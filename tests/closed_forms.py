"""Closed-form references the tests compare the package against.

The concentration at a zero crossing is written out, by hand, as what
cm_invert_concentration(1j*eps2, neat, nu0) and ce_for_nu0 compute through
complex arithmetic: the real and imaginary parts of the concentration for a
purely imaginary doped permittivity i*eps2, and the difference of two
liquids' concentrations for a shared crossing. The synthesized oscillation is
written out as its cosine sum, term by term.
"""

import math

import numpy as np

from impostoron.constants import CONSTANTS
from impostoron.dielectric import LiquidModel, eval_neat
from impostoron.mixing import DopedLiquid, alpha_el
from impostoron.polaron import eps_imag_at_nu0, lineshape
from impostoron.signal import DEFAULT_BAND


def ce_real_part(eps2: float, neat: complex, nu0: float) -> float:
    """Re(ce) in mol/m^3 for a purely imaginary doped permittivity i*eps2 at nu0."""
    sigma = abs(complex(neat)) ** 2
    pref = 3.0 / (CONSTANTS.avogadro * alpha_el(nu0).real)
    return pref * (
        (eps2**2 - 2.0) / (eps2**2 + 4.0)
        - (sigma + neat.real - 2.0) / (sigma + 4.0 * neat.real + 4.0)
    )


def ce_imag_part(eps2: float, neat: complex, nu0: float) -> float:
    """Im(ce) in mol/m^3 for a purely imaginary doped permittivity i*eps2 at nu0."""
    sigma = abs(complex(neat)) ** 2
    pref = 3.0 / (CONSTANTS.avogadro * alpha_el(nu0).real)
    return pref * (
        3.0 * eps2 / (eps2**2 + 4.0)
        - 3.0 * neat.imag / (sigma + 4.0 * neat.real + 4.0)
    )


def concentration_difference(liquid1: LiquidModel, liquid2: LiquidModel, nu0: float) -> float:
    """ce_1 - ce_2 (mol/m^3) for a shared zero crossing at nu0, in closed form.

    Written out as the difference of the two split real-part expressions; the
    result equals ce_for_nu0(liquid1, nu0) - ce_for_nu0(liquid2, nu0) without
    the non-negativity screening.
    """
    pref = 3.0 / (CONSTANTS.avogadro * alpha_el(nu0).real)
    bracket = 0.0
    for sign, liquid in ((+1.0, liquid1), (-1.0, liquid2)):
        neat = complex(eval_neat(liquid, nu0))
        eps2 = eps_imag_at_nu0(neat)
        sigma = abs(neat) ** 2
        bracket += sign * (
            (eps2**2 - 2.0) / (eps2**2 + 4.0)
            - (sigma + neat.real - 2.0) / (sigma + 4.0 * neat.real + 4.0)
        )
    return pref * bracket


def dense_oscillation(doped: DopedLiquid, tau, band=DEFAULT_BAND) -> np.ndarray:
    """synth_oscillation's sum, one cosine per bin, at the given delays tau.

    s(tau) = H(tau) * dnu * sum_k A(nu_k) cos(2 pi nu_k tau) over the FFT bin
    frequencies nu_k = k * dnu inside the band, dnu = 1 / (n * dtau) with dtau
    from the grid's end points, and A the line shape normalized to unit
    maximum. The cosines are evaluated 256 frequencies at a time.
    """
    tau = np.asarray(tau, dtype=float)
    n = tau.size
    dnu = 1.0 / (n * ((tau[-1] - tau[0]) / (n - 1)))
    freqs = np.arange(n // 2 + 1) * dnu
    freqs = freqs[(freqs >= band[0]) & (freqs <= band[1])]
    amps = lineshape(doped, freqs).values
    amps = amps / amps.max()
    s = np.zeros(n)
    for start in range(0, freqs.size, 256):
        f = freqs[start : start + 256]
        s += np.cos(2.0 * math.pi * tau[:, None] * f[None, :]) @ amps[start : start + 256]
    s *= dnu
    s[tau < 0] = 0.0
    return s
