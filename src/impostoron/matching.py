"""Cross-liquid matching: make two doped liquids resonate alike.

Frequency matching finds, per liquid, the concentration whose zero crossing
lands on a shared target nu0. Profile matching additionally demands equal
Lorentzian line shapes, i.e. equal B/eps''(nu0); an electron population whose
apparent resonance reproduces another liquid's both in position and width is
called an impostoron here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .dielectric import DERIVATIVE_STEP, LiquidModel, eval_neat, validity_range
from .errors import (
    DomainError,
    NoProfileMatchError,
    UnreachableFrequencyError,
)
from .mixing import (
    Concentration,
    DopedLiquid,
    _invert,
    _local_field,
    _mix,
    alpha_el,
    cm_invert_concentration,
)
from .polaron import (
    DEFAULT_TOL,
    _crossing_loss,
    _refine_root,
    eps_doped,  # noqa: F401  (bound here as before, for callers that use matching.eps_doped)
    eps_imag_at_nu0,
    find_nu0,
)

#: Convergence threshold on the mean-normalized profile residual.
PROFILE_TOL = 1e-8

#: Pre-scan points for the profile-matching root search.
PROFILE_SCAN_POINTS = 200


@dataclass(frozen=True)
class ImpostoronSolution:
    """Concentration pair placing both liquids' resonances at nu0."""

    ce_1: Concentration
    ce_2: Concentration
    nu0: float  # THz
    #: |nu0_1 - nu0_2| from independent zero-crossing solves, THz
    freq_residual: float
    #: B1/eps2_1 - B2/eps2_2, 1/THz
    profile_residual: float
    #: True when the solution came from the profile-matching root search
    profile_matched: bool
    #: identical line-shape profiles at every frequency in the bracket
    degenerate: bool = False
    note: str = ""
    #: further profile-match roots in the bracket, lowest first
    alternatives: tuple[float, ...] = ()
    #: pre-scan nodes skipped because one liquid's profile is undefined there
    skipped_nodes: int = 0


def ce_for_nu0(liquid: LiquidModel, nu0: float) -> Concentration:
    """Concentration placing the liquid's zero crossing at nu0 (THz).

    The loss at the crossing is fixed by the neat liquid alone, so the doped
    permittivity there is i*eps2; inverting the mixing relation at that value
    gives the concentration in closed form.
    """
    neat = eval_neat(liquid, nu0)
    eps2 = eps_imag_at_nu0(neat)
    ce = cm_invert_concentration(1j * eps2, neat, nu0)
    if ce.real < 0:
        raise UnreachableFrequencyError(
            f"target frequency {nu0:g} THz unreachable for '{liquid.name}': "
            f"would need negative concentration {ce.real:g} mol/m^3"
        )
    return Concentration(ce.real)


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


def _shared_bracket(
    liquid1: LiquidModel, liquid2: LiquidModel, bracket: tuple[float, float], h: float
) -> tuple[float, float]:
    if not h > 0:
        raise DomainError(f"derivative step must be positive, got {h}")
    lo, hi = float(bracket[0]), float(bracket[1])
    for liquid in (liquid1, liquid2):
        vlo, vhi = validity_range(liquid)
        lo = max(lo, vlo + h)
        hi = min(hi, vhi - h)
    if not (lo > 0 and hi > lo):
        raise DomainError(f"bracket [{bracket[0]}, {bracket[1]}] THz has no shared validity")
    return lo, hi


def match_frequency(
    liquid1: LiquidModel,
    liquid2: LiquidModel,
    nu0: float,
    bracket: tuple[float, float] = (0.1, 3.0),
    tol: float = DEFAULT_TOL,
    h: float = DERIVATIVE_STEP,
) -> ImpostoronSolution:
    """Concentration pair whose zero crossings both land on nu0 (THz).

    freq_residual reports the round-trip disagreement of the two independent
    zero-crossing solves; profile_residual reports how unequal the Lorentzian
    widths remain (frequency matching does not equalize them).
    """
    ce1 = ce_for_nu0(liquid1, nu0)
    ce2 = ce_for_nu0(liquid2, nu0)
    lo, hi = _shared_bracket(liquid1, liquid2, bracket, h)
    res1 = find_nu0(DopedLiquid(liquid1, ce1), (lo, hi), tol)
    res2 = find_nu0(DopedLiquid(liquid2, ce2), (lo, hi), tol)
    eps2_1 = eps_imag_at_nu0(eval_neat(liquid1, nu0))
    eps2_2 = eps_imag_at_nu0(eval_neat(liquid2, nu0))
    note = ""
    if eps2_1 > 0.0 and eps2_2 > 0.0:
        terms = _profile_terms(res1.slope_B, eps2_1, res2.slope_B, eps2_2)
        residual = terms[0] - terms[1]
    else:
        # a lossless crossing has no finite width; the diagnostic is 0 for a
        # symmetric pair and undefined otherwise
        symmetric = eps2_1 == eps2_2 and res1.slope_B == res2.slope_B
        residual = 0.0 if symmetric else math.nan
        note = "width diagnostic undefined: zero loss at the crossing"
    return ImpostoronSolution(
        ce_1=ce1,
        ce_2=ce2,
        nu0=nu0,
        freq_residual=abs(res1.nu0 - res2.nu0),
        profile_residual=residual,
        profile_matched=False,
        note=note,
    )


def _profile_terms(b1: float, eps2_1: float, b2: float, eps2_2: float) -> tuple[float, float]:
    if eps2_1 <= 0 or eps2_2 <= 0:
        raise NoProfileMatchError(
            "profile undefined: a liquid has zero loss at its zero crossing"
        )
    return b1 / eps2_1, b2 / eps2_2


def _profile(liquid: LiquidModel, nu: np.ndarray, h: float) -> np.ndarray:
    """B/eps2 of the liquid at each frequency of the array nu, NaN where undefined.

    At each nu the concentration is ce_for_nu0's closed form, eps2 the loss
    at the crossing and B the central difference of eps' over nu +- h. A
    node is undefined where ce_for_nu0 would raise, where eps2 is zero, or
    where the +-h stencil leaves the model's domain or meets a mixing
    divergence.
    """
    vlo, vhi = validity_range(liquid)
    stencil = np.stack([nu + h, nu - h])
    inside = (stencil > 0.0) & (stencil >= vlo) & (stencil <= vhi)
    stencil = np.where(inside, stencil, nu)
    neat = eval_neat(liquid, np.stack([nu, *stencil]))
    lf, lf_pole = _local_field(neat)
    eps2 = _crossing_loss(neat[0])[0]
    ce = _invert(_local_field(1j * eps2)[0], lf[0], nu).real
    # eps2 > 0 only where the loss at the crossing is defined and non-zero
    ok = (eps2 > 0.0) & ~lf_pole[0] & np.isfinite(ce) & (ce >= 0.0)
    eps, divergent = _mix(lf[1:], np.where(ok, ce, 0.0), stencil)
    ok &= np.all(inside & ~lf_pole[1:] & ~divergent, axis=0)
    slope = (eps[0].real - eps[1].real) / (2.0 * h)
    return np.where(ok, slope / np.where(ok, eps2, 1.0), np.nan)


def match_profiles(
    liquid1: LiquidModel,
    liquid2: LiquidModel,
    bracket: tuple[float, float] = (0.2, 2.0),
    profile_tol: float = PROFILE_TOL,
    tol: float = DEFAULT_TOL,
    n_scan: int = PROFILE_SCAN_POINTS,
    h: float = DERIVATIVE_STEP,
) -> ImpostoronSolution:
    """Frequency at which both liquids can host identical Lorentzian lines.

    Solves g(nu) = B1/eps2_1 - B2/eps2_2 = 0 over the bracket, where each
    B_i is evaluated at the concentration that puts liquid i's crossing at nu.
    Convergence is judged on g normalized by the mean of the two terms.
    One vector evaluation on n_scan grid nodes brackets the sign changes;
    nodes where a liquid's profile is undefined are skipped and counted in
    `skipped_nodes`. Each sign change is bisected to float resolution,
    ROUND_LEVELS steps per vector evaluation, and its root is the bisection
    point of least |g|.
    """
    lo, hi = _shared_bracket(liquid1, liquid2, bracket, h)

    def g_norm(nu: np.ndarray) -> np.ndarray:
        t1, t2 = _profile(liquid1, nu, h), _profile(liquid2, nu, h)
        mean = 0.5 * (t1 + t2)
        zero = mean == 0.0
        return np.where(zero, 0.0, (t1 - t2) / np.where(zero, 1.0, mean))

    grid = np.linspace(lo, hi, n_scan)
    vals = g_norm(grid)
    finite = np.isfinite(vals)
    skipped = int(np.count_nonzero(~finite))

    if finite.any() and np.nanmax(np.abs(vals)) < profile_tol:
        ce = ce_for_nu0(liquid1, lo)
        return ImpostoronSolution(
            ce_1=ce,
            ce_2=ce_for_nu0(liquid2, lo),
            nu0=lo,
            freq_residual=0.0,
            profile_residual=0.0,
            profile_matched=True,
            degenerate=True,
            note="degenerate: all frequencies match",
            skipped_nodes=skipped,
        )

    roots = []
    sign_change = (vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)
    for i in np.flatnonzero(finite[:-1] & finite[1:] & sign_change):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
            continue
        _, _, best = _refine_root(g_norm, float(grid[i]), float(grid[i + 1]), float(vals[i]), 0.0)
        roots.append(best)

    if not roots:
        raise NoProfileMatchError(
            f"no profile-matched impostoron in range [{lo:g}, {hi:g}] THz"
        )

    nu_star = roots[0]
    sol = match_frequency(liquid1, liquid2, nu_star, (lo, hi), tol, h)
    at = np.array([nu_star])
    return ImpostoronSolution(
        ce_1=sol.ce_1,
        ce_2=sol.ce_2,
        nu0=nu_star,
        freq_residual=sol.freq_residual,
        profile_residual=float(_profile(liquid1, at, h)[0] - _profile(liquid2, at, h)[0]),
        profile_matched=True,
        alternatives=tuple(roots[1:]),
        skipped_nodes=skipped,
    )
