"""Per-node scalar references for the vector scans and the root refiner.

These are the scan and bisection loops find_nu0 and match_profiles ran
before both moved to vector evaluation: one scalar evaluation per node, an
ImpostoronError at a scan node meaning "skip it", and plain one-point-per-step
bisection that, like the package's, also ends where the midpoint rounds onto
an end of the bracket. They call the package's scalar functions, so a
disagreement with the package points at the vector scan or the refiner, not
at the formulas. bisect_root is the walk of polaron._refine_root itself, one
scalar evaluation per step and no prediction; find_nu0_roots and match_roots
walk each scan cell with it.
"""

import math

import numpy as np

from impostoron.dielectric import _neat_slope, eval_neat
from impostoron.errors import ImpostoronError, NoProfileMatchError
from impostoron.matching import ce_for_nu0
from impostoron.mixing import _local_field, _mix_slope
from impostoron.polaron import SCAN_POINTS, eps_doped, eps_imag_at_nu0


def find_nu0_roots(doped, bracket, tol, n_scan=SCAN_POINTS):
    """Every rising crossing of eps' in the bracket, lowest first, as find_nu0 finds them.

    Each scan cell with a sign change is walked by bisect_root, one
    eps_doped call per step, which raises at an undefined node the walk
    reaches; its crossing is the midpoint of the final bracket.
    """
    grid = np.linspace(bracket[0], bracket[1], n_scan)
    f = np.real(eps_doped(doped, grid))

    def eps_real(nu):
        return float(np.real(eps_doped(doped, nu)))

    def undefined(nu):  # not reached: eps_real raises eps_doped's error, never returns NaN
        eps_doped(doped, nu)

    roots = []
    for i in range(n_scan - 1):
        if f[i] < 0.0 <= f[i + 1]:
            a, b = float(grid[i]), float(grid[i + 1])
            a, b, _ = bisect_root(eps_real, a, b, float(f[i]), tol, undefined)
            roots.append(0.5 * (a + b))
    return roots


def bisect_root(f, a, b, fa, tol, undefined):
    """The walk of polaron._refine_root on [a, b], one call of the scalar f per step.

    The same stop rule (b - a <= min(tol, a), a midpoint that rounds onto an
    end, f(mid) == 0), the same moves, the same undefined(mid) call where
    f(mid) is NaN, and the same point of least |f| (a included).
    """
    best_abs, best = abs(fa), a
    while True:
        mid = 0.5 * (a + b)
        if b - a <= min(tol, a) or mid == a or mid == b:
            return a, b, best
        fm = f(mid)
        if math.isnan(fm):
            undefined(mid)
        if abs(fm) < best_abs:
            best_abs, best = abs(fm), mid
        if fm == 0.0:
            return mid, mid, mid
        if (fa < 0.0) == (fm < 0.0):
            a, fa = mid, fm
        else:
            b = mid


def profile_term(liquid, nu):
    """B/eps2 of one liquid at nu; raises where the profile is undefined."""
    ce_for_nu0(liquid, nu)  # raises where no concentration reaches the crossing
    neat = eval_neat(liquid, nu)
    eps2 = eps_imag_at_nu0(neat)
    if eps2 <= 0:
        raise NoProfileMatchError(
            f"profile undefined for '{liquid.name}': zero loss at the crossing"
        )
    # at the crossing the doped permittivity is i*eps2: L is its local-field sum
    L, at = _local_field(1j * eps2)[0], np.array([nu])
    return float(_mix_slope(_local_field(neat)[0], _neat_slope(liquid, at), L, at)[0].real) / eps2


def g_norm(liquid1, liquid2, nu):
    t1, t2 = profile_term(liquid1, nu), profile_term(liquid2, nu)
    mean = 0.5 * (t1 + t2)
    if mean == 0:
        return 0.0
    return (t1 - t2) / mean


def profile_scan(liquid1, liquid2, grid):
    """g at each grid node, NaN where either profile raises."""
    vals = np.full(grid.shape, np.nan)
    for i, nu in enumerate(grid):
        try:
            vals[i] = g_norm(liquid1, liquid2, float(nu))
        except ImpostoronError:
            continue
    return vals


def match_roots(liquid1, liquid2, lo, hi, n_scan):
    """Profile-match roots on the shared bracket [lo, hi], and the scan values.

    A node where the scan is exactly zero is a root. Each scan cell with a
    sign change and finite ends is walked by bisect_root at tol 0, one g_norm
    call per step, and its root is the walk's point of least |g|.
    """
    grid = np.linspace(lo, hi, n_scan)
    vals = profile_scan(liquid1, liquid2, grid)
    finite = np.isfinite(vals)

    def g(nu):
        return g_norm(liquid1, liquid2, nu)

    roots = []
    for i in range(len(grid) - 1):
        if not (finite[i] and finite[i + 1]):
            continue
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif vals[i] * vals[i + 1] < 0:
            a, b, fa = float(grid[i]), float(grid[i + 1]), float(vals[i])
            roots.append(bisect_root(g, a, b, fa, 0.0, lambda nu: None)[2])
    return roots, vals
