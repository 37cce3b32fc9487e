"""Polaron resonance of a doped liquid: the rising zero crossing of eps'.

The observable line shape is the energy-loss function -Im[1/eps] =
eps'' / (eps'^2 + eps''^2). Near the zero crossing nu0 it is close to a
Lorentzian of half width eps''(nu0)/B, where B = d(eps')/d(nu) at nu0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dielectric import _check_axis, _finite_field, _neat, _neat_slope, _readonly, eval_neat
from .errors import (
    DegenerateLineshapeError,
    DomainError,
    NoConsistentLossError,
    NoResonanceError,
    SingularityError,
)
from .mixing import Concentration, DopedLiquid, _alpha, _cm, _local_field, _mix_slope, cm_mix

#: Number of pre-scan points used to bracket sign changes of eps'.
SCAN_POINTS = 400

#: Default search bracket (THz) and bisection tolerance (THz).
DEFAULT_BRACKET = (0.1, 3.0)
DEFAULT_TOL = 1e-6

#: Bisection levels resolved per call of the refined function: each call
#: evaluates the 2**ROUND_LEVELS - 1 interior nodes of the bracket's
#: bisection tree at once.
ROUND_LEVELS = 8

#: Most bisection steps one refinement takes.
MAX_BISECTIONS = 200


@dataclass(frozen=True)
class Spectrum:
    """Real-valued samples on a frequency grid (THz), checked by _check_axis."""

    frequencies: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_axis(_readonly(self, "frequencies"), "spectrum frequency grid", 2)
        _finite_field(self, "values", self.frequencies.shape, "spectrum samples")


@dataclass(frozen=True)
class PolaronResonance:
    """Zero-crossing frequency with the local quantities of the doped medium."""

    nu0: float  # THz
    eps_imag_at_nu0: float
    slope_B: float  # d(eps')/d(nu) at nu0, 1/THz
    ce: Concentration
    #: further rising crossings found in the bracket, lowest first
    alternatives: tuple[float, ...] = ()


def eps_doped(doped: DopedLiquid, nu):
    """Complex permittivity of the doped liquid at nu (THz, scalar or array)."""
    return cm_mix(eval_neat(doped.liquid, nu), doped.ce, nu)


def _eps_real(doped: DopedLiquid, nu: np.ndarray) -> np.ndarray:
    """eps_doped(doped, nu).real on nodes inside a bracket whose ends it accepted.

    Skips the checks that hold between two accepted frequencies (the
    frequency range, eval_neat's overflow guard, the table range and
    alpha_el's float range) and keeps the per-node ones: a node on the
    local-field pole or the Clausius-Mossotti divergence raises
    SingularityError, an overflow DomainError, as eps_doped does.
    """
    return _cm(_neat(doped.liquid, nu), doped.ce, nu, _alpha).real


def _bisection_tree(a: float, b: float) -> np.ndarray:
    """The 2**ROUND_LEVELS + 1 nodes of [a, b]'s bisection tree, in order.

    Each node is the float midpoint 0.5*(left + right) of its two neighbours
    on the level above, exactly the point a bisection step computes.
    """
    nodes = np.array([a, b])
    for _ in range(ROUND_LEVELS):
        finer = np.empty(2 * nodes.size - 1)
        finer[0::2] = nodes
        finer[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
        nodes = finer
    return nodes


def _refine_root(f, a: float, b: float, fa: float, tol: float) -> tuple[float, float, float]:
    """Bisect [a, b] for a sign change of f, ROUND_LEVELS steps per call of f.

    f maps an array of points to an array of values, NaN where f is
    undefined. Each call evaluates the 2**ROUND_LEVELS - 1 interior nodes of
    the bisection tree of the current bracket; the steps then walk that
    tree. Every node lies inside [a, b], so f may skip the checks that the
    caller's scan has passed at the bracket's ends. A step moves a
    up to mid when f(mid) has the sign of f(a) (negative or not), b down to
    mid otherwise. Bisection stops when b - a <= tol, when mid rounds onto
    an end of the bracket, when f(mid) == 0 (the bracket collapses onto mid)
    or after MAX_BISECTIONS steps. Returns the final bracket and the point of
    least |f| seen, a included.
    """
    best_abs, best = abs(fa), a
    steps = 0
    while True:
        nodes = _bisection_tree(a, b)
        values = f(nodes[1:-1])
        left, right = 0, nodes.size - 1
        while right - left > 1:
            k = (left + right) // 2
            mid = float(nodes[k])
            if b - a <= tol or steps == MAX_BISECTIONS or mid == a or mid == b:
                return a, b, best
            fm = float(values[k - 1])
            if math.isnan(fm):
                raise DomainError(
                    f"root search met an undefined point at nu = {mid!r} THz"
                )
            steps += 1
            if abs(fm) < best_abs:
                best_abs, best = abs(fm), mid
            if fm == 0.0:
                return mid, mid, mid
            if (fa < 0.0) == (fm < 0.0):
                a, fa, left = mid, fm, k
            else:
                b, right = mid, k


def find_nu0(
    doped: DopedLiquid,
    bracket: tuple[float, float] = DEFAULT_BRACKET,
    tol: float = DEFAULT_TOL,
) -> PolaronResonance:
    """Lowest rising zero crossing of eps'(nu) inside the bracket.

    A uniform pre-scan of SCAN_POINTS points, both ends of the bracket
    included, locates sign changes from negative to non-negative. The scan
    goes through eps_doped and so validates the whole bracket. Each sign
    change is bisected until its bracket is at most tol (THz) wide, and its
    midpoint is the crossing; each round evaluates the 2**ROUND_LEVELS - 1
    nodes of one bisection tree through the unchecked kernels (_eps_real).
    The lowest crossing is returned, any further ones are listed in
    `alternatives`. slope_B is d(eps')/d(nu) at nu0 in closed form
    (mixing._mix_slope).
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0 or hi <= lo:
        raise DomainError(f"bad bracket [{lo}, {hi}] THz")
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")

    grid = np.linspace(lo, hi, SCAN_POINTS)  # holds lo and hi themselves
    f = np.real(eps_doped(doped, grid))
    roots = []
    for i in np.flatnonzero((f[:-1] < 0.0) & (f[1:] >= 0.0)):
        a, b, _ = _refine_root(
            lambda nu: _eps_real(doped, nu), float(grid[i]), float(grid[i + 1]), float(f[i]), tol
        )
        roots.append(0.5 * (a + b))

    if not roots:
        raise NoResonanceError(f"no polaron resonance in range [{lo:g}, {hi:g}] THz")

    nu0 = roots[0]
    at = np.array([nu0])
    neat = eval_neat(doped.liquid, at)
    eps = cm_mix(neat, doped.ce, at)
    lf, L = _local_field(neat)[0], _local_field(eps)[0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
        slope_B = float(_mix_slope(lf, _neat_slope(doped.liquid, at), L, at)[0].real)
    if not math.isfinite(slope_B):
        raise DomainError(f"slope d(eps')/d(nu) at nu0 = {nu0!r} THz leaves the float range")
    return PolaronResonance(
        nu0=nu0,
        eps_imag_at_nu0=float(eps[0].imag),
        slope_B=slope_B,
        ce=doped.ce,
        alternatives=tuple(roots[1:]),
    )


def _crossing_loss(neat):
    """Loss eps2 of the doped liquid at its own zero crossing, per neat value.

    At the crossing eps = i*eps2, consistency of the mixing relation forces
    eps2/(eps2^2 + 4) = R with R = eps2_neat / |eps_neat + 2|^2; the smaller
    root of the resulting quadratic is the physical branch (it vanishes with
    the neat loss). Returns (eps2, R, pole) as arrays: pole marks neat values
    at eps = -2, where R is undefined; eps2 holds where 0 <= R <= 1/4 and is
    0 elsewhere. Past |eps_neat| of about 1.3e154, |eps_neat + 2|^2 overflows
    and R is NaN; callers run this under np.errstate(over="ignore",
    invalid="ignore"), since the overflow can also be inf - inf.
    """
    neat = np.atleast_1d(np.asarray(neat, dtype=complex))
    # hypot gives |neat| as abs() of a Python complex does; numpy's abs of a
    # complex array can differ from it in the last bit
    denom = np.hypot(neat.real, neat.imag) ** 2 + 4.0 * neat.real + 4.0  # |neat + 2|^2
    pole = denom <= 0
    r = np.where(np.isfinite(denom), neat.imag / np.where(pole, 1.0, denom), math.nan)
    rp = np.where(~pole & (r > 0.0) & (r <= 0.25), r, 0.0)
    # algebraically (1 - sqrt(1 - 16 R^2)) / (2 R); this form avoids
    # cancellation for small R
    return 8.0 * rp / (1.0 + np.sqrt(1.0 - 16.0 * rp * rp)), r, pole


def eps_imag_at_nu0(neat_at_nu0: complex) -> float:
    """Loss of the doped liquid at its own zero crossing, fixed by the neat value.

    The scalar form of _crossing_loss. Requires 0 <= R <= 1/4.
    """
    neat = complex(neat_at_nu0)
    with np.errstate(over="ignore", invalid="ignore"):
        eps2, r, pole = (v.item() for v in _crossing_loss(neat))
    if pole:
        raise SingularityError("local-field ratio diverges: permittivity too close to -2")
    if math.isnan(r):
        raise DomainError(f"neat permittivity {neat} too large: |eps_neat + 2|^2 overflows")
    if r < 0:
        raise DomainError(f"neat loss must be >= 0, got eps'' = {neat.imag}")
    if r > 0.25:
        raise NoConsistentLossError(
            f"no consistent eps'' at the zero crossing: R = {r:.6g} exceeds 1/4"
        )
    return eps2


def lineshape(doped: DopedLiquid, frequencies) -> Spectrum:
    """Energy-loss function -Im[1/eps] = eps''/(eps'^2 + eps''^2) on a grid (THz)."""
    freqs = np.asarray(frequencies, dtype=float)
    eps = np.asarray(eps_doped(doped, freqs))
    mag2 = np.abs(eps) ** 2
    tiny = np.abs(eps) < 1e-12
    if np.any(tiny):
        nu_bad = float(freqs[np.nonzero(tiny)[0][0]])
        raise SingularityError(f"singular line shape: |eps| < 1e-12 at nu = {nu_bad:g} THz")
    return Spectrum(frequencies=freqs, values=eps.imag / mag2)


def lorentz_lineshape(resonance: PolaronResonance, frequencies) -> Spectrum:
    """Lorentzian approximation of the line shape around the zero crossing.

    (1/eps2) / (1 + (B*(nu - nu0)/eps2)^2) with eps2 = eps''(nu0). Zero loss
    at the crossing means a delta-like line and is rejected.
    """
    eps2 = resonance.eps_imag_at_nu0
    if eps2 <= 0:
        raise DegenerateLineshapeError(
            "line shape degenerates to a delta: eps''(nu0) = 0"
        )
    freqs = np.asarray(frequencies, dtype=float)
    det = resonance.slope_B * (freqs - resonance.nu0) / eps2
    return Spectrum(frequencies=freqs, values=(1.0 / eps2) / (1.0 + det * det))
