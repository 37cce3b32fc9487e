"""Closed-form references the tests compare the package against.

The concentration at a zero crossing is written out, by hand, as what
cm_invert_concentration(1j*eps2, neat, nu0) and ce_for_nu0 compute through
complex arithmetic: the real and imaginary parts of the concentration for a
purely imaginary doped permittivity i*eps2, and the difference of two
liquids' concentrations for a shared crossing. The synthesized oscillation is
written out as its cosine sum, term by term, and the 2D Fourier filter as one
complex FFT of the whole map. The package's own filtered map, which extract
never builds, is built here whole from the band that extract cuts.

For Debye liquids two high-precision references follow, both in mpmath and
neither calling the package's formulas: the profile match of a pair, with
roots from findroot and slopes from numerical differentiation, and the
numerator polynomial whose real roots are the zero crossings of eps'.
"""

import math

import mpmath as mp
import numpy as np

from impostoron.constants import CONSTANTS
from impostoron.dielectric import DebyeModel, LiquidModel, eval_neat
from impostoron.mixing import DopedLiquid, alpha_el
from impostoron.polaron import eps_imag_at_nu0, lineshape
from impostoron.signal import DEFAULT_BAND, FieldMap2D, _band


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


def dense_fourier_filter_2d(fmap: FieldMap2D, bandwidth: float) -> FieldMap2D:
    """The 2D Fourier filter of extract as one complex 2D FFT over every probe-time column.

    Zeroes each component of fft2(values) whose radial frequency
    sqrt(f_tau**2 + f_t**2) exceeds bandwidth (THz) and keeps the real part
    of the inverse. bandwidth must be positive.
    """
    f_t = np.fft.fftfreq(fmap.t_grid.size, d=fmap.dt)
    f_tau = np.fft.fftfreq(fmap.tau_grid.size, d=fmap.dtau)
    radial = np.sqrt(f_tau[:, None] ** 2 + f_t[None, :] ** 2)
    spec = np.fft.fft2(fmap.values)
    spec[radial > bandwidth] = 0.0
    return FieldMap2D(
        t_grid=fmap.t_grid, tau_grid=fmap.tau_grid, values=np.fft.ifft2(spec).real
    )


def band_filtered_map(fmap: FieldMap2D, bandwidth: float) -> FieldMap2D:
    """The whole map that signal._band filters: one inverse real FFT of the band along probe time.

    The band's columns above bandwidth (THz) count as zeros, so each row is
    that row of the map with its 2D spectrum zeroed outside the radius.
    extract cuts its trace from the band without building this map.
    """
    values = np.fft.irfft(_band(fmap, bandwidth), n=fmap.t_grid.size, axis=1)
    return FieldMap2D(t_grid=fmap.t_grid, tau_grid=fmap.tau_grid, values=values)


def _mp_alpha_1thz() -> mp.mpf:
    """alpha_el at 1 THz (m^3) from the CODATA literals; alpha_el(nu) is this / nu**2."""
    c = CONSTANTS
    e, eps0, m = (
        mp.mpf(repr(v)) for v in (c.elementary_charge, c.vacuum_permittivity, c.electron_mass)
    )
    return -(e**2) / (eps0 * m * (2 * mp.pi * mp.mpf("1e12")) ** 2)


def _mp_local_sum_scale(ce_mol) -> mp.mpf:
    """ce*N_A*alpha_el(1 THz)/3, the electron term of L times nu**2."""
    return mp.mpf(ce_mol) * mp.mpf(repr(CONSTANTS.avogadro)) * _mp_alpha_1thz() / 3


def _mp_neat(model: DebyeModel, nu):
    return mp.mpf(model.eps_inf) + sum(
        mp.mpf(d) / (1 - 2j * mp.pi * mp.mpf(t) * nu) for d, t in model.terms
    )


def _mp_lf(eps):
    return (eps - 1) / (eps + 2)


def _mp_crossing(model: DebyeModel, nu):
    """(ce in mol/m^3, eps2) putting the model's zero crossing at nu, in mpmath."""
    neat = _mp_neat(model, nu)
    r = neat.imag / abs(neat + 2) ** 2
    eps2 = (1 - mp.sqrt(1 - 16 * r**2)) / (2 * r)
    ce = 3 * (_mp_lf(1j * eps2) - _mp_lf(neat)) * nu**2 / (
        mp.mpf(repr(CONSTANTS.avogadro)) * _mp_alpha_1thz()
    )
    return ce.real, eps2


def _mp_eps_doped(model: DebyeModel, ce_mol, nu):
    L = _mp_lf(_mp_neat(model, nu)) + _mp_local_sum_scale(ce_mol) / nu**2
    return (1 + 2 * L) / (1 - L)


def mp_profile_match(model1: DebyeModel, model2: DebyeModel, guess: float, dps: int = 40):
    """(nu*, ce_1, ce_2) in THz and uM at which B_1/eps2_1 = B_2/eps2_2.

    Each liquid takes the concentration that puts its crossing at nu; B is
    d(eps')/d(nu) at that fixed concentration, by mpmath's numerical
    differentiation, and nu* is findroot's root nearest the guess.
    """
    with mp.workdps(dps):

        def width(model, nu):
            ce, eps2 = _mp_crossing(model, nu)
            slope = mp.diff(lambda t: _mp_eps_doped(model, ce, t).real, nu)
            return slope / eps2

        nu_star = mp.findroot(lambda nu: width(model1, nu) - width(model2, nu), mp.mpf(guess))
        micromolar = [_mp_crossing(m, nu_star)[0] * 1000 for m in (model1, model2)]
        return tuple(float(v) for v in (nu_star, *micromolar))


def _pmul(p, q):
    out = [mp.mpc(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _padd(*polys):
    out = [mp.mpc(0)] * max(len(p) for p in polys)
    for p in polys:
        for i, a in enumerate(p):
            out[i] += a
    return out


def _pscale(k, p):
    return [k * a for a in p]


def _pconj(p):
    return [mp.conj(a) for a in p]


def crossing_polynomials(model: DebyeModel, ce_mol: float):
    """(P, Q), ascending real mpmath coefficients, with eps'(nu) = P(nu)/Q(nu).

    eps_neat = A/B with B = prod_k (1 - i x_k), x_k = 2 pi tau_k nu, and the
    local-field sum L = (A - B)/(A + 2B) + s/nu**2 = N/M, where s is
    ce*N_A*alpha_el(1 THz)/3. Then eps = (M + 2N)/(M - N), whose real part
    is P/Q with P = |M|**2 + Re(N conj(M)) - 2|N|**2 and Q = |M - N|**2 > 0.
    Call inside an mpmath precision context.
    """
    factors = [[mp.mpc(1), -2j * mp.pi * mp.mpf(t)] for _, t in model.terms]
    b = [mp.mpc(1)]
    for f in factors:
        b = _pmul(b, f)
    a = _pscale(mp.mpf(model.eps_inf), b)
    for k, (delta, _) in enumerate(model.terms):
        rest = [mp.mpc(mp.mpf(delta))]
        for j, f in enumerate(factors):
            if j != k:
                rest = _pmul(rest, f)
        a = _padd(a, rest)
    nu2 = [0, 0, 1]
    a_plus_2b = _padd(a, _pscale(2, b))
    m_poly = _pmul(nu2, a_plus_2b)
    n_poly = _padd(
        _pmul(nu2, _padd(a, _pscale(-1, b))), _pscale(_mp_local_sum_scale(ce_mol), a_plus_2b)
    )
    mm = _pmul(m_poly, _pconj(m_poly))
    nm = _pmul(n_poly, _pconj(m_poly))
    nn = _pmul(n_poly, _pconj(n_poly))
    p = [x.real + y.real - 2 * z.real for x, y, z in zip(mm, nm, nn)]
    d = _padd(m_poly, _pscale(-1, n_poly))
    q = [x.real for x in _pmul(d, _pconj(d))]
    return p, q
