"""Per-node scalar references for the vector scans and the root refiner.

These are the scan and bisection loops find_nu0 and match_profiles ran
before both moved to vector evaluation: one scalar evaluation per node, an
ImpostoronError at a scan node meaning "skip it", and plain one-point-per-step
bisection. They call the package's scalar functions, so a disagreement with
the package points at the vector scan or the refiner, not at the formulas.
"""

import numpy as np

from impostoron.dielectric import DERIVATIVE_STEP, eval_neat
from impostoron.errors import ImpostoronError, NoProfileMatchError
from impostoron.matching import ce_for_nu0
from impostoron.mixing import DopedLiquid
from impostoron.polaron import SCAN_POINTS, eps_doped, eps_imag_at_nu0


def find_nu0_roots(doped, bracket, tol, n_scan=SCAN_POINTS):
    """Every rising crossing of eps' in the bracket, each bisected to tol."""
    grid = np.linspace(bracket[0], bracket[1], n_scan)
    f = np.real(eps_doped(doped, grid))
    roots = []
    for i in range(n_scan - 1):
        if not (f[i] < 0.0 <= f[i + 1]):
            continue
        a, b = grid[i], grid[i + 1]
        while (b - a) > tol:
            mid = 0.5 * (a + b)
            if float(np.real(eps_doped(doped, mid))) >= 0.0:
                b = mid
            else:
                a = mid
        roots.append(float(0.5 * (a + b)))
    return roots


def profile_term(liquid, nu, h=DERIVATIVE_STEP):
    """B/eps2 of one liquid at nu; raises where the profile is undefined."""
    ce = ce_for_nu0(liquid, nu)
    eps2 = eps_imag_at_nu0(eval_neat(liquid, nu))
    if eps2 <= 0:
        raise NoProfileMatchError(
            f"profile undefined for '{liquid.name}': zero loss at the crossing"
        )
    doped = DopedLiquid(liquid, ce)
    slope = (
        float(np.real(eps_doped(doped, nu + h)))
        - float(np.real(eps_doped(doped, nu - h)))
    ) / (2.0 * h)
    return slope / eps2


def g_norm(liquid1, liquid2, nu, h=DERIVATIVE_STEP):
    t1, t2 = profile_term(liquid1, nu, h), profile_term(liquid2, nu, h)
    mean = 0.5 * (t1 + t2)
    if mean == 0:
        return 0.0
    return (t1 - t2) / mean


def profile_scan(liquid1, liquid2, grid, h=DERIVATIVE_STEP):
    """g at each grid node, NaN where either profile raises."""
    vals = np.full(grid.shape, np.nan)
    for i, nu in enumerate(grid):
        try:
            vals[i] = g_norm(liquid1, liquid2, float(nu), h)
        except ImpostoronError:
            continue
    return vals


def match_roots(liquid1, liquid2, lo, hi, n_scan, h=DERIVATIVE_STEP):
    """Profile-match roots on the shared bracket [lo, hi], and the scan values."""
    grid = np.linspace(lo, hi, n_scan)
    vals = profile_scan(liquid1, liquid2, grid, h)
    finite = np.isfinite(vals)
    roots = []
    for i in range(len(grid) - 1):
        if not (finite[i] and finite[i + 1]):
            continue
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
            continue
        if vals[i] * vals[i + 1] >= 0:
            continue
        a, b = float(grid[i]), float(grid[i + 1])
        ga = vals[i]
        best = (abs(ga), a)
        for _ in range(200):
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            gm = g_norm(liquid1, liquid2, mid, h)
            if abs(gm) < best[0]:
                best = (abs(gm), mid)
            if gm == 0.0:
                break
            if (ga < 0) == (gm < 0):
                a, ga = mid, gm
            else:
                b = mid
        roots.append(best[1])
    return roots, vals
