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

from .dielectric import LiquidModel, _neat, _neat_slope, eval_neat, validity_range
from .errors import (
    DomainError,
    NoProfileMatchError,
    UnreachableFrequencyError,
)
from .mixing import (
    Concentration,
    DopedLiquid,
    _alpha,
    _invert,
    _local_field,
    _mix_slope,
    alpha_el,
    cm_invert_concentration,
)
from .polaron import (
    DEFAULT_BRACKET,
    _crossing_loss,
    _crossings,
    _pass_at,
    _refine_root,
    # perfbench/tracing.py rebinds matching.eps_doped, and perfbench/test_perfbench.py asserts it
    eps_doped,  # noqa: F401
    eps_imag_at_nu0,
)

#: Degeneracy threshold on the mean-normalized profile residual, not a convergence test.
PROFILE_TOL = 1e-8

#: Pre-scan points for the profile-matching root search.
PROFILE_SCAN_POINTS = 200

#: Default search bracket (THz) of match_profiles and of the CLI's match.
PROFILE_BRACKET = (0.2, 2.0)


@dataclass(frozen=True)
class ImpostoronSolution:
    """Concentration pair placing both liquids' resonances at nu0."""

    ce_1: Concentration
    ce_2: Concentration
    nu0: float  # THz
    #: |nu0_1 - nu0_2| from independent zero-crossing solves, THz
    freq_residual: float
    #: B1/eps2_1 - B2/eps2_2 at nu0, 1/THz
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


def _shared_bracket(
    liquid1: LiquidModel, liquid2: LiquidModel, bracket: tuple[float, float]
) -> tuple[float, float]:
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"bad bracket [{lo}, {hi}] THz")
    for liquid in (liquid1, liquid2):
        vlo, vhi = validity_range(liquid)
        lo = max(lo, vlo)
        hi = min(hi, vhi)
    if not (lo > 0 and hi > lo):
        raise DomainError(f"bracket [{bracket[0]}, {bracket[1]}] THz has no shared validity")
    return lo, hi


def match_frequency(
    liquid1: LiquidModel,
    liquid2: LiquidModel,
    nu0: float,
    bracket: tuple[float, float] = DEFAULT_BRACKET,
) -> ImpostoronSolution:
    """Concentration pair whose zero crossings both land on nu0 (THz).

    freq_residual reports the round-trip disagreement of the two crossings
    that find_nu0 finds on the bracket clipped to both liquids' validity, in
    one search for both (_solution) whose scan checks each liquid's grid
    through eps_doped; profile_residual reports how unequal the Lorentzian
    widths remain (frequency matching does not equalize them): B1/eps2_1 -
    B2/eps2_2 at nu0 itself, both terms from one _profiles pass. That pass
    runs unchecked: the two ce_for_nu0 calls have run eval_neat and
    alpha_el at nu0.
    """
    ce = (ce_for_nu0(liquid1, nu0), ce_for_nu0(liquid2, nu0))
    bracket = _shared_bracket(liquid1, liquid2, bracket)
    terms = _profiles(liquid1, liquid2, np.array([nu0], dtype=float))[0][:, 0].tolist()
    return _solution(liquid1, liquid2, nu0, ce, terms, bracket, profile_matched=False)


def _solution(liquid1, liquid2, nu0, ce, terms, bracket, **fields) -> ImpostoronSolution:
    """The solution at nu0 from the two concentrations ce and width terms B/eps2 there.

    The round trip is find_nu0 on the bracket for both liquids in one
    search (polaron._crossings: one scan, shared rounds, one closing pass),
    with the error that find_nu0 on liquid 1 and then on liquid 2 raises
    first. A profile match has run eval_neat of both liquids and alpha_el
    at the bracket's ends, so its scan skips the grid checks. freq_residual
    comes from the two crossings, and their slopes say whether a pair with
    both terms undefined is symmetric.
    """
    dopeds = [DopedLiquid(liq, c) for liq, c in zip((liquid1, liquid2), ce)]
    r1, r2 = _crossings(dopeds, bracket, ends_checked=fields["profile_matched"])
    t1, t2 = terms
    residual, note = t1 - t2, ""
    if math.isnan(t1) or math.isnan(t2):
        # with both concentrations found, only a crossing of no finite width
        # (zero loss, or so little that B/eps2 overflows) leaves a term
        # undefined: 0 for a symmetric pair, else undefined
        symmetric = math.isnan(t1) and math.isnan(t2) and r1.slope_B == r2.slope_B
        residual = 0.0 if symmetric else math.nan
        note = "width diagnostic undefined: zero loss at the crossing"
    return ImpostoronSolution(
        ce_1=ce[0], ce_2=ce[1], nu0=nu0, freq_residual=abs(r1.nu0 - r2.nu0),
        profile_residual=residual, note=note, **fields,
    )


def _profiles(liquid1: LiquidModel, liquid2: LiquidModel, nu: np.ndarray):
    """B/eps2 and the concentration of both liquids at each frequency of the float array nu.

    Returns (profile, ce), each of shape (2, nu.size), row i liquid i's. At
    each nu ce is ce_for_nu0's closed form (mol/m^3) bit for bit, eps2 the
    loss at the crossing and B = d(eps')/d(nu) in closed form, as in
    find_nu0. The profile is NaN where undefined: where ce_for_nu0 would
    raise, where eps2 is zero or where |eps_neat + 2|^2, B or B/eps2 leaves
    the float range; ce means something only where the profile is defined.
    The formulas alone (_neat, _neat_slope, _alpha): the caller has run
    eval_neat of both liquids and alpha_el at frequencies on both sides of
    nu, and their checks hold between two frequencies that pass. Every
    operation is elementwise, so each row is bit for bit that liquid's pass
    alone.
    """
    neat = np.stack((_neat(liquid1, nu), _neat(liquid2, nu)))
    lf, lf_pole = _local_field(neat)
    # an overflow, or a division by a zero or undefined eps2, leaves a node undefined
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        neat_slope = np.stack((_neat_slope(liquid1, nu), _neat_slope(liquid2, nu)))
        eps2 = _crossing_loss(neat)[0]
        L = _local_field(1j * eps2)[0]  # the local-field sum of eps = i*eps2
        profile = _mix_slope(lf, neat_slope, L, nu).real / eps2
    ce = _invert(L, lf, _alpha(nu)).real
    # eps2 > 0 only where the loss at the crossing is defined and non-zero
    ok = (eps2 > 0.0) & ~lf_pole & np.isfinite(ce) & (ce >= 0.0) & np.isfinite(profile)
    return np.where(ok, profile, np.nan), ce


def _residual(profile: np.ndarray) -> np.ndarray:
    """(t1 - t2)/mean of _profiles' two profile rows: 0 where the mean is, NaN where undefined."""
    t1, t2 = profile
    mean = 0.5 * (t1 + t2)
    zero = mean == 0.0
    return np.where(zero, 0.0, (t1 - t2) / np.where(zero, 1.0, mean))


def match_profiles(
    liquid1: LiquidModel,
    liquid2: LiquidModel,
    bracket: tuple[float, float] = PROFILE_BRACKET,
) -> ImpostoronSolution:
    """Frequency at which both liquids can host identical Lorentzian lines.

    Solves g(nu) = B1/eps2_1 - B2/eps2_2 = 0 over the bracket, where each
    B_i is evaluated at the concentration that puts liquid i's crossing at nu.
    Convergence is judged on g normalized by the mean of the two terms
    (_residual). The bracket is checked once, at its two ends, by
    eval_neat(liquid1), alpha_el and eval_neat(liquid2) in that order; each
    of their checks is a range check that holds between two frequencies
    that pass it. One vector evaluation of _residual on PROFILE_SCAN_POINTS
    grid nodes, both ends included, then brackets the sign changes; nodes
    where a liquid's profile is undefined are skipped and counted in
    `skipped_nodes`. When |g| stays below PROFILE_TOL on every defined node
    the pair is degenerate, witnessed at the lowest node where both width
    terms are defined, with the scan's concentrations there. Otherwise each
    defined node where g is exactly 0 is a root, and each strict sign change
    between defined nodes is bisected to float resolution (_refine_root,
    reading one cache of the nodes that rounds through the same _residual
    evaluate, shared by every sign change); its root is the bisection point
    of least |g|. The scan and every round evaluate both liquids in one array
    pass of _profiles, one row per liquid. Each B_i is d(eps_i')/d(nu) in
    closed form, as in find_nu0. The lowest root nu* gives match_frequency's
    solution at nu*, marked profile-matched: its concentrations and width
    terms come from the pass that evaluated nu*. _solution gives its round
    trip, one search for both liquids whose scan reuses the end checks.
    """
    lo, hi = _shared_bracket(liquid1, liquid2, bracket)
    ends = np.array([lo, hi])
    eval_neat(liquid1, ends)
    alpha_el(ends)
    eval_neat(liquid2, ends)
    passes = []  # (nodes, profile, ce) of the scan and of every round

    def residual(nu):
        profile, ce = _profiles(liquid1, liquid2, nu)
        passes.append((nu, profile, ce))
        return _residual(profile)

    grid = np.linspace(lo, hi, PROFILE_SCAN_POINTS)  # holds lo and hi themselves
    vals = residual(grid)

    finite = np.isfinite(vals)
    skipped = int(np.count_nonzero(~finite))

    if finite.any() and np.nanmax(np.abs(vals)) < PROFILE_TOL:
        nu0 = float(grid[np.argmax(finite)])  # the lowest node where both profiles are defined
        ce_1, ce_2 = map(Concentration, _pass_at(passes, nu0)[1].tolist())
        return ImpostoronSolution(
            ce_1=ce_1,
            ce_2=ce_2,
            nu0=nu0,
            freq_residual=0.0,
            profile_residual=0.0,
            profile_matched=True,
            degenerate=True,
            note="degenerate: all frequencies match",
            skipped_nodes=skipped,
        )

    def undefined(nu):
        raise DomainError(f"root search met an undefined point at nu = {nu!r} THz")

    seen = {}  # _refine_root's nodes of the residual

    def round_(nu):  # enters all but the closing midpoint
        seen.update(zip(nu[:-1].tolist(), residual(nu).tolist()))

    roots = grid[vals == 0.0].tolist()
    for i in np.flatnonzero(finite[:-1] & finite[1:] & (vals[:-1] * vals[1:] < 0.0)):
        roots.append(_refine_root(round_, seen, grid, vals, i, 0.0, undefined)[2])
    roots.sort()

    if not roots:
        raise NoProfileMatchError(
            f"no profile-matched impostoron in range [{lo:g}, {hi:g}] THz"
        )

    profile, ce = _pass_at(passes, roots[0])  # the root is a node of the scan or of a round
    return _solution(
        liquid1, liquid2, roots[0], tuple(map(Concentration, ce.tolist())), profile.tolist(),
        (lo, hi),
        profile_matched=True,
        alternatives=tuple(roots[1:]),
        skipped_nodes=skipped,
    )
