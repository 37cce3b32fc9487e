"""Clausius-Mossotti mixing of free solvated electrons into a polar liquid.

The doped permittivity eps follows from adding the electron polarizability to
the local-field relation of the neat liquid:

    3*(eps - 1)/(eps + 2) = 3*(eps_neat - 1)/(eps_neat + 2) + ce*NA*alpha_el(nu)

with alpha_el the Drude polarizability of a free electron,

    alpha_el(nu) = -e**2 / (eps0 * m * (2*pi*nu)**2).

Units: frequencies enter in THz and are converted to SI exactly once inside
alpha_el; concentrations are carried in mol/m^3 (Concentration converts from
the micromolar values used at the interfaces); alpha_el is in m^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .dielectric import LiquidModel, _check_nu
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
        if not math.isfinite(self.mol_per_m3 * CONSTANTS.avogadro) or self.mol_per_m3 < 0:
            raise DomainError(
                f"concentration must be >= 0 with ce*N_A finite, got {self.micromolar:g} uM"
            )

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


def _alpha(arr: np.ndarray) -> np.ndarray:
    """Free-electron polarizability (m^3, complex) at each frequency of a float array.

    The formula alone: alpha_el checks arr and raises where it leaves the
    float range. That range holds at every frequency between two in it.
    """
    omega = 2.0 * math.pi * arr * 1e12  # rad/s
    c = CONSTANTS
    return -c.elementary_charge**2 / (c.vacuum_permittivity * c.electron_mass * (omega**2 + 0j))


def alpha_el(nu):
    """Free-electron polarizability (m^3) at nu (THz, scalar or array).

    Undamped: real (as a complex), negative and exactly 1/nu^2 in scaling.
    Raises DomainError where it leaves the float range.
    """
    arr = _check_nu(nu)[0]  # scalars round as array elements
    try:
        with np.errstate(all="raise"):
            out = _alpha(arr)
    except FloatingPointError:
        nu_range = f"[{arr.min():g}, {arr.max():g}]"
        raise DomainError(f"alpha_el leaves the float range at nu in {nu_range} THz") from None
    return out.item() if np.ndim(nu) == 0 else out


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


def _mix(lf_neat, ce_mol, alpha):
    """Doped permittivity (1 + 2L)/(1 - L), L = lf_neat + ce*N_A*alpha/3.

    lf_neat is the neat local-field ratio, ce_mol the concentration in
    mol/m^3 and alpha the array alpha_el(nu); they broadcast. Returns (eps,
    divergent) with divergent marking |1 - L| below CM_SINGULARITY_EPS,
    where eps is meaningless. The one copy of the mixing relation.
    """
    L = lf_neat + ce_mol * CONSTANTS.avogadro * alpha / 3.0
    denom = 1.0 - L
    divergent = np.abs(denom) < CM_SINGULARITY_EPS
    return (1.0 + 2.0 * L) / np.where(divergent, 1.0, denom), divergent


def _mix_slope(lf_neat, neat_slope, L, nu):
    """d(eps)/d(nu) (1/THz) of the doped liquid whose local-field sum is L.

    L = lf_neat + x is _mix's sum, x = ce*N_A*alpha_el(nu)/3, and
    neat_slope = d(eps_neat)/d(nu). The chain rule on eps = (1 + 2L)/(1 - L)
    gives 3 L'/(1 - L)**2 with L' = 3 eps_neat'/(eps_neat + 2)**2 - 2x/nu,
    since alpha_el goes as 1/nu**2; 3/(eps_neat + 2)**2 is written
    (1 - lf_neat)**2/3, finite on the local-field pole.
    """
    dL = neat_slope * (1.0 - lf_neat) ** 2 / 3.0 - 2.0 * (L - lf_neat) / nu
    return 3.0 * dL / (1.0 - L) ** 2


def _invert(lf_eps, lf_neat, alpha):
    """Concentration (complex, mol/m^3) mapping local-field ratio lf_neat onto lf_eps.

    alpha is the array alpha_el(nu) at the frequencies of the ratios.
    """
    return 3.0 * (lf_eps - lf_neat) / (CONSTANTS.avogadro * alpha)


def _check_operands(nu, *permittivities) -> None:
    """DomainError unless each permittivity is finite and all broadcast with nu."""
    if not all(np.isfinite(eps).all() for eps in permittivities):
        raise DomainError("permittivity must be finite")
    try:
        np.broadcast(*permittivities, nu)
    except ValueError:
        shapes = [np.shape(v) for v in (*permittivities, nu)]
        raise DomainError(f"permittivity and frequency shapes {shapes} do not broadcast") from None


def cm_mix(neat, ce: Concentration, nu):
    """Doped permittivity from the neat value(s) and concentration at nu (THz).

    Raises SingularityError on the neat local-field pole and where the mixing
    relation diverges (the combined local-field sum approaches 1), and
    DomainError for bad operands (_check_operands) or when
    ce*N_A*alpha_el(nu) overflows.
    """
    _check_operands(nu, neat)
    # alpha_el of an array: for a scalar nu it would return a Python complex,
    # whose division by 3 rounds otherwise than numpy's
    arr = np.atleast_1d(nu)
    try:
        with np.errstate(over="raise"):
            out, divergent = _mix(_checked_local_field(neat), ce.mol_per_m3, alpha_el(arr))
    except FloatingPointError:
        # |alpha_el| is largest at the lowest frequency
        raise DomainError(
            f"electron term overflows at nu = {np.min(arr):g} THz, ce = {ce.micromolar:g} uM"
        ) from None
    if np.any(divergent):
        nu_arr = np.broadcast_to(np.asarray(arr, dtype=float), divergent.shape)
        nu_bad = float(nu_arr[divergent][0])
        raise SingularityError(
            f"Clausius-Mossotti divergence at nu = {nu_bad:g} THz, ce = {ce.micromolar:g} uM"
        )
    return out.item() if np.ndim(neat) == np.ndim(nu) == 0 else out


def cm_invert_concentration(eps, neat, nu):
    """Concentration (complex, mol/m^3) that maps neat onto eps at nu (THz).

    The imaginary part is a consistency residual: it vanishes exactly when the
    pair (eps, neat) is reachable by doping with real concentration. A scalar
    or an array, and DomainError for bad operands, as in cm_mix.
    """
    _check_operands(nu, eps, neat)
    lf_eps, lf_neat = _checked_local_field(eps), _checked_local_field(neat)
    out = _invert(lf_eps, lf_neat, alpha_el(np.atleast_1d(nu)))
    return out.item() if np.ndim(eps) == np.ndim(neat) == np.ndim(nu) == 0 else out

