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
    ImpostoronError,
    NoConsistentLossError,
    NoResonanceError,
    SingularityError,
)
from .mixing import Concentration, DopedLiquid, _alpha, _local_field, _mix, _mix_slope, cm_mix

#: Number of pre-scan points used to bracket sign changes of eps'.
SCAN_POINTS = 400

#: Default search bracket (THz) and bisection tolerance (THz).
DEFAULT_BRACKET = (0.1, 3.0)
DEFAULT_TOL = 1e-6


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


def _eps(dopeds, nu: np.ndarray):
    """(lf_neat, eps_doped, undefined) of each doped liquid, one row each, at the nodes nu.

    nu holds nodes inside a bracket whose ends the checks accepted. The
    formulas alone (_neat, _alpha, _mix), skipping the checks that hold
    between two accepted frequencies. undefined marks, like
    matching._profiles, the nodes where eps_doped would raise at that node
    alone: on the local-field pole, on the Clausius-Mossotti divergence and
    where the electron term overflows. Each row is bit for bit that
    liquid's pass alone.
    """
    if len(dopeds) == 1:  # one row runs unstacked, which numpy broadcasts more cheaply
        neat, ce = _neat(dopeds[0].liquid, nu), dopeds[0].ce.mol_per_m3
    else:
        neat = np.array([_neat(d.liquid, nu) for d in dopeds])
        ce = np.array([[d.ce.mol_per_m3] for d in dopeds])
    lf, pole = _local_field(neat)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing node is undefined
        eps, divergent = _mix(lf, ce, _alpha(nu))
    undefined = pole | divergent | ~np.isfinite(eps)
    return (lf, eps, undefined) if lf.ndim == 2 else (lf[None], eps[None], undefined[None])


def _predict(a: float, b: float, c: float, fa: float, fb: float, fc: float) -> float:
    """A guess at the root of f in (a, b), from f at a, b and a third point c.

    Inverse quadratic interpolation (Brent, Algorithms for Minimization
    without Derivatives, 1973) through the three points; if that is not
    strictly inside (a, b), the secant through a and b; failing that, the
    midpoint. Every divisor is a difference of two values, zero only where
    they are equal, so nothing raises; a guess that is NaN or not inside
    (a, b), as a NaN, an infinity or an overflow can leave, falls through.
    """
    if fa != fb and fa != fc and fb != fc:
        p = (
            a * (fb / (fa - fb)) * (fc / (fa - fc))
            + b * (fa / (fb - fa)) * (fc / (fb - fc))
            + c * (fa / (fc - fa)) * (fb / (fc - fb))
        )
        if a < p < b:
            return p
    if fa != fb:
        p = b - fb * ((b - a) / (fb - fa))
        if a < p < b:
            return p
    return 0.5 * (a + b)


def _midpoint(a: float, b: float, tol: float) -> float | None:
    """0.5*(a + b), or None where bisection of [a, b] stops.

    It stops when b - a <= min(tol, a) or when the midpoint rounds onto an
    end, so float rounding alone ends it. For a > 0, a bracket no wider than
    a holds its midpoint within a factor 2 of the root, however large tol is
    against the root.
    """
    mid = 0.5 * (a + b)
    if b - a <= min(tol, a) or mid == a or mid == b:
        return None
    return mid


def _round_nodes(a: float, b: float, p: float, tol: float) -> np.ndarray:
    """The nodes of one round on [a, b], for a predicted root p in (a, b).

    The bisection path from [a, b] toward p: each midpoint of the bracket,
    stepping toward p, until bisection of that bracket stops (_midpoint),
    and last the closing midpoint 0.5*(lo + hi) of the path's last bracket.
    The caller keeps that node out of the walk's cache: a walk that reads
    the path to its end stops before it, and find_nu0 returns it as the
    crossing; where float rounding ended the path it repeats an end of the
    bracket. Within one binade (b <= 2*a) at most sys.float_info.mant_dig
    halvings remain. On a wider bracket the path steps toward a instead: a
    root far below its scan cell's width lies hundreds of halvings toward
    the cell's lower end, and the path reaches its binade in one round.
    """
    if b > 2.0 * a:
        p = a
    path = []
    while (mid := _midpoint(a, b, tol)) is not None:
        path.append(mid)
        if p < mid:
            b = mid
        else:
            a = mid
    path.append(0.5 * (a + b))
    return np.array(path)


def _refine_root(
    f, seen: dict, grid: np.ndarray, scan: np.ndarray, i: int, tol: float, undefined
) -> tuple[float, float, float]:
    """Bisect the scan cell [grid[i], grid[i + 1]] for a sign change of f.

    scan holds the values of f on grid, and seen maps each node that the
    search's rounds entered to f there, NaN where f is undefined. The walk
    is plain bisection: a step moves a up to mid when f(mid) has the sign of
    f(a) (negative or not), b down to mid otherwise, and undefined(mid)
    raises the caller's error where f(mid) is NaN, so a NaN node off the
    walk stops nothing. The walk stops as _midpoint says, checked before
    each step, or when f(mid) == 0 (the bracket collapses onto mid).

    The walk reads f(mid) from seen. Where no round entered mid, one call
    f(nodes) evaluates a new round (_round_nodes): the bisection path from
    mid toward a root predicted (_predict) through the bracket's two ends
    and the end they last replaced, on the first round through the next scan
    node. The caller enters every node of the round into seen but the path's
    closing midpoint, which no step reads. So the walk reads f only at the
    floats that plain bisection evaluates, a wrong prediction costs only the
    path's nodes, and a node of any round, whoever asked for it, costs no
    new one. Every node lies inside [a, b], so f may skip the checks that
    the caller's scan has passed at the bracket's ends. A caller that keeps
    each round finds there the point of least |f| unless it is a, and
    0.5*(a + b) of the final bracket, where the walk read a path to its end,
    as the closing midpoint of the last round. Returns the final bracket and
    the point of least |f| seen, a included.
    """
    a, b, fa, fb = float(grid[i]), float(grid[i + 1]), float(scan[i]), float(scan[i + 1])
    c, fc = (float(grid[i + 2]), float(scan[i + 2])) if i + 2 < len(grid) else (math.nan, math.nan)
    best_abs, best = abs(fa), a
    while (mid := _midpoint(a, b, tol)) is not None:
        fm = seen.get(mid)
        if fm is None:  # no round entered mid
            f(_round_nodes(a, b, _predict(a, b, c, fa, fb, fc), tol))
            fm = seen[mid]
        if math.isnan(fm):
            undefined(mid)
        if abs(fm) < best_abs:
            best_abs, best = abs(fm), mid
        if fm == 0.0:
            return mid, mid, mid
        if (fa < 0.0) == (fm < 0.0):
            a, fa, c, fc = mid, fm, a, fa
        else:
            b, fb, c, fc = mid, fm, b, fb
    return a, b, best


def _pass_at(passes, node: float):
    """The arrays of a pass in passes that evaluated node, at node, or None.

    Each pass is (nodes, *arrays), each array holding one value per node
    along its last axis, which the returned arrays drop. Every pass that
    evaluated node holds the same values there. The search runs from the
    last pass, where a walk that ended on a round's path finds its closing
    midpoint.
    """
    for nodes, *arrays in reversed(passes):
        k = np.flatnonzero(nodes == node)
        if k.size:
            return [v[..., k[0]] for v in arrays]
    return None


def _at_crossings(dopeds, nu0s: list, passes) -> list:
    """(eps_imag_at_nu0, slope_B) of each row at its crossing, all rows in one pass.

    _eps's (lf, eps, undefined) come from a pass in passes that evaluated
    the crossing where every row's is the same node (_pass_at), and
    otherwise from one _eps pass of every row at every crossing, each row
    keeping its own. slope_B is d(eps')/d(nu) in closed form (_mix_slope).
    Row by row, eps_doped raises its own error where the crossing is
    undefined, and DomainError says where slope_B overflows.
    """
    nu = np.array(nu0s)
    at = _pass_at(passes, nu0s[0]) if nu0s.count(nu0s[0]) == len(nu0s) else None
    if at is None:  # each row at every crossing: a row's own values are the diagonal
        at = [v.diagonal() for v in _eps(dopeds, nu)]
    lf, eps, undefined = at
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
        neat_slope = [_neat_slope(d.liquid, nu) for d in dopeds]
        neat_slope = neat_slope[0] if len(dopeds) == 1 else np.diagonal(neat_slope)
        slopes = _mix_slope(lf, neat_slope, _local_field(eps)[0], nu).real.tolist()
    for r, (bad, slope_B) in enumerate(zip(undefined.tolist(), slopes)):
        if bad:
            eps_doped(dopeds[r], nu[r : r + 1])  # raises its error at the undefined crossing
        if not math.isfinite(slope_B):
            nu0 = nu0s[r]
            raise DomainError(f"slope d(eps')/d(nu) at nu0 = {nu0!r} THz leaves the float range")
    return list(zip(eps.imag.tolist(), slopes))


def _crossings(dopeds, bracket, tol: float = DEFAULT_TOL, ends_checked: bool = False) -> list:
    """find_nu0 of each doped liquid, one row each, in one search whose passes all rows share.

    A row's scan goes through eps_doped. Where the caller has run eval_neat
    of every liquid and alpha_el at the bracket's two ends (ends_checked),
    the scan is one _eps pass of all rows instead, and only a row with an
    undefined node goes through eps_doped, which raises its error there.
    Each round is one _eps pass of all rows, which enters its nodes into
    every row's cache, so a row's walk reads a node of any round, its own or
    another row's (_refine_root), before it asks for a new one; the loss and
    slope at every row's crossing come from one closing pass
    (_at_crossings). Where a search of several rows raises, each row is
    searched alone in turn, so that the error raised is the first failing
    row's, as find_nu0 on one row after the other raises.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0 or hi <= lo:
        raise DomainError(f"bad bracket [{lo}, {hi}] THz")
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol}")

    grid = np.linspace(lo, hi, SCAN_POINTS)  # holds lo and hi themselves
    seen = [{} for _ in dopeds]  # per row, _refine_root's nodes: eps', NaN where undefined
    passes = []  # (nodes, lf, eps, undefined) of each round

    def round_(nu):
        lf, eps, undefined = _eps(dopeds, nu)
        passes.append((nu, lf, eps, undefined))
        nodes = nu[:-1].tolist()  # all but the closing midpoint
        for row, values in zip(seen, np.where(undefined, math.nan, eps.real).tolist()):
            row.update(zip(nodes, values))

    try:
        scans = [None] * len(dopeds)
        if ends_checked:
            _, eps, undefined = _eps(dopeds, grid)
            scans = [None if u.any() else e.real for e, u in zip(eps, undefined)]
        scans = [np.real(eps_doped(d, grid)) if f is None else f for d, f in zip(dopeds, scans)]
        roots = []  # each row's crossings, lowest first
        for doped, f, row in zip(dopeds, scans, seen):
            found = []
            for i in np.flatnonzero((f[:-1] < 0.0) & (f[1:] >= 0.0)):
                a, b, _ = _refine_root(
                    round_, row, grid, f, i, tol, lambda mid: eps_doped(doped, mid)
                )
                found.append(0.5 * (a + b))
            if not found:
                raise NoResonanceError(f"no polaron resonance in range [{lo:g}, {hi:g}] THz")
            roots.append(found)
        closing = _at_crossings(dopeds, [found[0] for found in roots], passes)
    except ImpostoronError:
        if len(dopeds) > 1:
            for doped in dopeds:  # the first row that fails alone raises its error
                _crossings([doped], bracket, tol)
        raise
    return [
        PolaronResonance(
            nu0=found[0], eps_imag_at_nu0=eps2, slope_B=slope_B, ce=doped.ce,
            alternatives=tuple(found[1:]),
        )
        for doped, found, (eps2, slope_B) in zip(dopeds, roots, closing)
    ]


def find_nu0(
    doped: DopedLiquid,
    bracket: tuple[float, float] = DEFAULT_BRACKET,
    tol: float = DEFAULT_TOL,
) -> PolaronResonance:
    """Lowest rising zero crossing of eps'(nu) inside the bracket.

    A uniform pre-scan of SCAN_POINTS points, both ends of the bracket
    included, locates sign changes from negative to non-negative. The scan
    goes through eps_doped and so validates the whole bracket. Each sign
    change is bisected (_refine_root, reading a cache of the nodes that
    rounds through the unchecked kernel _eps evaluate) until its bracket is
    at most tol (THz) wide and no wider than its lower end, and its midpoint
    is the crossing. An undefined node stops the search, with eps_doped's
    error there, only where the bisection reaches it. The lowest crossing is
    returned, any further ones are listed in `alternatives`, and its loss
    and slope_B, d(eps')/d(nu) in closed form, come from _at_crossings, on
    the round that evaluated it where one did. The search is _crossings of
    the one row.
    """
    return _crossings([doped], bracket, tol)[0]


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
    if not np.isfinite(neat):
        raise DomainError(f"neat permittivity must be finite, got {neat}")
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
    at the crossing means a delta-like line and is rejected, and so is a loss
    whose peak height 1/eps2 overflows. A detuning whose square overflows
    gives the line's exact limit there, 0.
    """
    eps2 = resonance.eps_imag_at_nu0
    if not (eps2 > 0 and math.isfinite(1.0 / eps2)):
        raise DegenerateLineshapeError(f"line shape degenerates to a delta: eps''(nu0) = {eps2:g}")
    freqs = np.asarray(frequencies, dtype=float)
    with np.errstate(over="ignore"):
        det = resonance.slope_B * (freqs - resonance.nu0) / eps2
        return Spectrum(frequencies=freqs, values=(1.0 / eps2) / (1.0 + det * det))
