"""Clausius-Mossotti mixing of free solvated electrons into a polar liquid.

The doped permittivity eps follows from adding the electron polarizability to
the local-field relation of the neat liquid:

    3*(eps - 1)/(eps + 2) = 3*(eps_neat - 1)/(eps_neat + 2) + ce*NA*alpha_el(nu)

with alpha_el the Drude polarizability of a free electron,

    alpha_el(nu) = -e**2 / (eps0 * m * ((2*pi*nu)**2 + i*gamma*(2*pi*nu))).

Units: frequencies enter in THz and are converted to SI exactly once inside
alpha_el; concentrations are carried in mol/m^3 (Concentration converts from
the micromolar values used at the interfaces); alpha_el is in m^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .dielectric import LiquidModel
from .errors import DomainError, SingularityError

#: |1 - L| below this is treated as a Clausius-Mossotti divergence.
CM_SINGULARITY_EPS = 1e-12

#: mol/m^3 per micromolar (1 uM = 1e-6 mol/L).
MOL_M3_PER_MICROMOLAR = 1e-3


@dataclass(frozen=True)
class Concentration:
    """Electron concentration, stored in mol/m^3, displayed in micromolar."""

    mol_per_m3: float

    def __post_init__(self):
        if not math.isfinite(self.mol_per_m3) or self.mol_per_m3 < 0:
            raise DomainError(f"concentration must be finite and >= 0, got {self.mol_per_m3} mol/m^3")

    @classmethod
    def from_micromolar(cls, value: float) -> "Concentration":
        return cls(value * MOL_M3_PER_MICROMOLAR)

    @property
    def micromolar(self) -> float:
        return self.mol_per_m3 / MOL_M3_PER_MICROMOLAR


@dataclass(frozen=True)
class DopedLiquid:
    """A neat liquid model plus a solvated-electron concentration."""

    liquid: LiquidModel
    ce: Concentration


def alpha_el(nu, gamma: float = 0.0):
    """Free-electron polarizability (m^3) at nu (THz, scalar or array).

    gamma is a phenomenological damping rate in 1/s; the default 0 gives a
    purely real, negative polarizability scaling exactly as 1/nu^2. No other
    operation in the package takes a damping argument.
    """
    arr = np.atleast_1d(np.asarray(nu, dtype=float))  # scalars round as array elements
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise DomainError("frequency must be finite and > 0 THz")
    if gamma < 0:
        raise DomainError(f"damping rate must be >= 0, got {gamma}")
    omega = 2.0 * math.pi * arr * 1e12  # rad/s
    c = CONSTANTS
    out = -c.elementary_charge**2 / (
        c.vacuum_permittivity * c.electron_mass * (omega**2 + 1j * gamma * omega)
    )
    if np.isscalar(nu) or np.ndim(nu) == 0:
        return out.item()
    return out


def _local_field(eps):
    """(eps - 1)/(eps + 2) and the mask of values on the eps = -2 pole."""
    eps = np.atleast_1d(np.asarray(eps, dtype=complex))
    denom = eps + 2.0
    pole = np.abs(denom) < CM_SINGULARITY_EPS
    return (eps - 1.0) / np.where(pole, 1.0, denom), pole


def _checked_local_field(eps):
    lf, pole = _local_field(eps)
    if np.any(pole):
        raise SingularityError("local-field ratio diverges: permittivity too close to -2")
    return lf


def _mix(lf_neat, ce_mol, nu):
    """Doped permittivity (1 + 2L)/(1 - L), L = lf_neat + ce*N_A*alpha_el(nu)/3.

    lf_neat is the neat local-field ratio, ce_mol the concentration in
    mol/m^3; both broadcast against nu. Returns (eps, divergent) with
    divergent marking |1 - L| below CM_SINGULARITY_EPS, where eps is
    meaningless. The one copy of the mixing relation.
    """
    # alpha_el of an array: for a scalar nu it would return a Python complex,
    # whose division by 3 rounds otherwise than numpy's
    L = lf_neat + ce_mol * CONSTANTS.avogadro * alpha_el(np.atleast_1d(nu)) / 3.0
    denom = 1.0 - L
    divergent = np.abs(denom) < CM_SINGULARITY_EPS
    return (1.0 + 2.0 * L) / np.where(divergent, 1.0, denom), divergent


def _invert(lf_eps, lf_neat, nu):
    """Concentration (complex, mol/m^3) mapping local-field ratio lf_neat onto lf_eps at nu."""
    return 3.0 * (lf_eps - lf_neat) / (CONSTANTS.avogadro * alpha_el(np.atleast_1d(nu)))


def cm_mix(neat, ce: Concentration, nu):
    """Doped permittivity from the neat value(s) and concentration at nu (THz).

    Raises SingularityError when the mixing relation itself diverges, i.e.
    the combined local-field sum approaches 1.
    """
    out, divergent = _mix(_checked_local_field(neat), ce.mol_per_m3, nu)
    if np.any(divergent):
        nu_arr = np.broadcast_to(np.asarray(nu, dtype=float), divergent.shape)
        nu_bad = float(np.atleast_1d(nu_arr)[np.atleast_1d(divergent)][0])
        raise SingularityError(
            f"Clausius-Mossotti divergence at nu = {nu_bad:g} THz, ce = {ce.micromolar:g} uM"
        )
    if np.ndim(neat) == np.ndim(nu) == 0:
        return out.item()
    return out


def cm_invert_concentration(eps, neat, nu) -> complex:
    """Concentration (complex, mol/m^3) that maps neat onto eps at nu (THz).

    The imaginary part is a consistency residual: it vanishes exactly when the
    pair (eps, neat) is reachable by doping with real concentration.
    """
    return _invert(_checked_local_field(eps), _checked_local_field(neat), nu).item()


# --------------------------------------------------------------------------
# Split real/imaginary closed forms at a zero crossing, eps = i*eps2.
# These duplicate cm_invert_concentration(1j*eps2, neat, nu0) on purpose:
# they are kept as independent reference expressions for testing and are not
# used by the production code paths.
# --------------------------------------------------------------------------


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
