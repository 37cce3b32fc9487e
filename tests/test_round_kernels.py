"""The refinement rounds of the root searches against the checked path.

find_nu0 validates its bracket on the scan, match_profiles at the bracket's
two ends; both then evaluate nodes through unchecked kernels (polaron._eps,
matching._profiles). Each kernel marks a node undefined (NaN) exactly where
the checked path raises at that node alone and gives bit for bit what the
checked path gives elsewhere. The roots must not depend on where a round's
predicted root lies, and the searches must still raise the
errors and messages of the checked path: match_profiles those that
eval_neat(liquid1), alpha_el and eval_neat(liquid2) raise on its scan grid,
find_nu0 the one that eps_doped raises at an undefined node the bisection
reaches, as one-point-per-step bisection does (scalar_oracle), and the loss
and slope at its crossing (polaron._at_crossing) those of the checked path
or its error, whether they come from the round that evaluated the crossing
(polaron._pass_at) or from a one-node pass. An undefined node off the
bisection path stops nothing. _profiles runs both liquids in one array
pass; each of its rows must be bit for bit the pass of that liquid alone.

A round evaluates the bisection path from the bracket toward a predicted
root, closed by the midpoint of the path's last bracket. The walk must be
scalar_oracle.bisect_root exactly, however the prediction is misled (by the
function's shape, or by a stand-in predictor that guesses the midpoint, an
end or the wrong side of the root), and the predictor must raise and warn
nothing of its own. A path on a bracket wider than a binade steps toward the
lower end, a done bracket gets no round, a pole or a step within one binade
costs at most a round per halving, and the kernel passes of the packaged
liquids' searches are counted: one per scan or round, none after a profile
match's search and no one-node pass where a round evaluated the crossing,
so that losing the path or its closing midpoint shows in these tests.
"""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracle import bisect_root, find_nu0_roots
from test_scalar_oracle import BASE_PAIRS, twin

from impostoron import matching, polaron
from impostoron.dielectric import (
    DebyeModel,
    TabulatedModel,
    _neat_slope,
    eval_neat,
    validity_range,
)
from impostoron.errors import (
    DomainError,
    ImpostoronError,
    NoProfileMatchError,
    NoResonanceError,
    RangeError,
    SingularityError,
)
from impostoron.matching import (
    PROFILE_SCAN_POINTS,
    _profiles,
    _shared_bracket,
    ce_for_nu0,
    match_frequency,
    match_profiles,
)
from impostoron.mixing import (
    Concentration,
    DopedLiquid,
    _local_field,
    _mix_slope,
    alpha_el,
    cm_mix,
)
from impostoron.polaron import DEFAULT_TOL, _eps, eps_doped, find_nu0

#: polaron._predict and stand-ins for it that mislead the path: the midpoint,
#: either end, and its own guess mirrored through the midpoint, onto the
#: wrong side of the root wherever the guess lies in the root's half
PREDICTORS = {
    "brent": polaron._predict,
    "midpoint": lambda a, b, *_: 0.5 * (a + b),
    "lower-end": lambda a, b, *_: a,
    "upper-end": lambda a, b, *_: b,
    "mirrored": lambda a, b, *rest, predict=polaron._predict: a + (b - predict(a, b, *rest)),
}


def bits(values):
    """The float64 bit patterns of an array, so NaNs and signed zeros compare too."""
    return np.asarray(values, dtype=float).view(np.uint64)


def checked_profiles(liquid1, liquid2, nu):
    """_profiles with its unchecked formulas swapped for eval_neat and alpha_el."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matching, "_neat", eval_neat)
        patch.setattr(matching, "_alpha", alpha_el)
        return _profiles(liquid1, liquid2, nu)


def checked_at_crossing(doped, nu0):
    """_at_crossing's loss and slope through eval_neat and cm_mix, which check the node."""
    at = np.array([nu0])
    neat = eval_neat(doped.liquid, at)
    eps = cm_mix(neat, doped.ce, at)
    with np.errstate(over="ignore", invalid="ignore"):
        lf, L = _local_field(neat)[0], _local_field(eps)[0]
        slope = _mix_slope(lf, _neat_slope(doped.liquid, at), L, at)
    return np.array([eps[0].imag, slope[0].real])


def assert_pair_kernels(liquid1, liquid2, nu):
    """The pair pass is bit for bit the checked pass, and each row the pass of its liquid alone."""
    # the profile and concentration rows, shape (2, 2, nu.size)
    pair = np.stack(_profiles(liquid1, liquid2, nu))
    alone = np.stack(_profiles(liquid1, liquid1, nu)), np.stack(_profiles(liquid2, liquid2, nu))
    np.testing.assert_array_equal(bits(pair), bits(checked_profiles(liquid1, liquid2, nu)))
    np.testing.assert_array_equal(bits(pair[:, 0]), bits(alone[0][:, 0]))
    np.testing.assert_array_equal(bits(pair[:, 1]), bits(alone[1][:, 1]))


def outcome(f, *args):
    """f(*args), or the type and message of the ImpostoronError it raises."""
    try:
        return f(*args)
    except ImpostoronError as exc:
        return type(exc), str(exc)


@st.composite
def debye_models(draw, max_strength=80.0):
    terms = draw(
        st.lists(st.tuples(st.floats(0.05, max_strength), st.floats(0.01, 20.0)), max_size=3)
    )
    return DebyeModel("d", draw(st.floats(1.0, 6.0)), tuple(terms))


@st.composite
def table_models(draw, liquids):
    if draw(st.booleans()):
        return twin(liquids[draw(st.sampled_from(["ipa", "eg", "water"]))])
    # knots anywhere in eps', metallic and near the -2 pole included; every
    # table covers 0.5-1 THz, so any two share nodes
    freqs = np.union1d([0.5, 1.0], draw(st.lists(st.floats(0.02, 5.0), max_size=4)))
    n = freqs.size
    re = draw(st.lists(st.floats(-6.0, 12.0), min_size=n, max_size=n))
    im = draw(st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n))
    return TabulatedModel("t", freqs, np.array(re) + 1j * np.array(im))


@st.composite
def nodes_for(draw, *models):
    lo, hi = 0.02, 6.0
    for model in models:
        vlo, vhi = validity_range(model)
        lo, hi = max(lo, vlo), min(hi, vhi)
    values = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=40))
    return np.array(values)


def liquid_models(liquids):
    return st.one_of(debye_models(), table_models(liquids))


@st.composite
def singular_tables(draw):
    """Tables with -2 or a value of 3.0001e12 or more at some knots.

    eps_doped raises at such a knot alone: the local-field pole at -2, and at
    a concentration of 0 the Clausius-Mossotti divergence, where
    1 - L = 3/(eps + 2) falls below 1e-12.
    """
    freqs = np.union1d([0.5, 1.0], draw(st.lists(st.floats(0.02, 5.0), max_size=4)))
    n = freqs.size
    value = st.one_of(st.floats(-6.0, 12.0), st.just(-2.0), st.floats(3.0001e12, 1e300))
    re = draw(st.lists(value, min_size=n, max_size=n))
    return TabulatedModel("s", freqs, np.array(re) + 0j)


def assert_same_outcome(got, want):
    """got is want bit for bit, or an error of want's type and message.

    A slope that overflows in the checked path is _at_crossing's DomainError.
    """
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and got == want, got
    elif not math.isfinite(want[1]):
        assert got[0] is DomainError, got
    else:
        np.testing.assert_array_equal(bits(got), bits(want))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_find_nu0_round_is_eps_doped(liquids, data):
    # node by node: undefined exactly where eps_doped raises at that node
    # alone, and bit for bit eps_doped's value elsewhere
    model = data.draw(st.one_of(debye_models(), table_models(liquids), singular_tables()))
    nodes = [data.draw(nodes_for(model))]
    if isinstance(model, TabulatedModel):
        nodes.append(model.frequencies)  # the knots, where a singular table is singular
    else:
        # |alpha_el| grows as 1/nu**2: near 0 THz a large ce*N_A*alpha_el overflows
        nodes.append(10.0 ** np.array(data.draw(st.lists(st.floats(-150.0, 0.0), max_size=5))))
    ce = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 0.4), st.floats(0.0, 1e280)))
    doped = DopedLiquid(model, Concentration(ce))
    nu = np.concatenate(nodes)
    round_ = (nu, *_eps(doped, nu))
    for k, node in enumerate(nu):
        want = outcome(lambda: eps_doped(doped, np.array([node]))[0])
        if isinstance(want, tuple):
            assert round_[3][k], (node, want)
        else:
            assert not round_[3][k], node
            got = round_[2][k]
            np.testing.assert_array_equal(bits([got.real, got.imag]), bits([want.real, want.imag]))
        # the loss and slope at a crossing: the checked path's, or its error,
        # from a one-node pass and from a round that holds the node
        want = outcome(checked_at_crossing, doped, node)
        for at in (None, polaron._pass_at([round_], node)):
            got = outcome(lambda: np.array(polaron._at_crossing(doped, node, at)))
            assert_same_outcome(got, want)
    # find_nu0: the crossings of one-point bisection, and the checked loss
    # and slope at the lowest
    lo, hi = float(nu.min()), float(nu.max())
    if lo < hi:
        tol = data.draw(st.sampled_from([DEFAULT_TOL, 1e-9, 1e-300]))
        roots = outcome(find_nu0_roots, doped, (lo, hi), tol)
        got = outcome(find_nu0, doped, (lo, hi), tol)
        if isinstance(roots, tuple):
            assert got == roots
        elif not roots:
            assert got[0] is NoResonanceError, got
        else:
            if not isinstance(got, tuple):
                assert [got.nu0, *got.alternatives] == roots
                got = np.array([got.eps_imag_at_nu0, got.slope_B])
            assert_same_outcome(got, outcome(checked_at_crossing, doped, roots[0]))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_match_profiles_round_is_profile(liquids, data):
    liquid1 = data.draw(liquid_models(liquids))
    liquid2 = data.draw(liquid_models(liquids))
    assert_pair_kernels(liquid1, liquid2, data.draw(nodes_for(liquid1, liquid2)))


def test_round_kernels_on_the_reference_liquids(liquids):
    nu = np.linspace(0.05, 3.5, 301)
    models = [*liquids.values(), *(twin(liquids[s]) for s in ("ipa", "eg", "water"))]
    for model in models:
        doped = DopedLiquid(model, Concentration.from_micromolar(40.0))
        _, eps, undefined = _eps(doped, nu)
        assert not undefined.any()
        np.testing.assert_array_equal(bits(eps.view(float)), bits(eps_doped(doped, nu).view(float)))
        for other in models:
            assert_pair_kernels(model, other, nu)


# --------------------------------------------------------------------------
# Prediction independence: every round node is a bisection midpoint, so the
# walk and the roots do not depend on where the predicted root lies
# --------------------------------------------------------------------------


def base_pair(label, f1=1.0, f2=1.0):
    """The one-term Debye pair of BASE_PAIRS[label].

    Liquid 1's strength is scaled by f1, liquid 2's relaxation time by f2.
    """
    (d1, t1), (d2, t2) = BASE_PAIRS[label]
    return (
        DebyeModel(f"{label}1", 2.2, ((d1 * f1, t1),)),
        DebyeModel(f"{label}2", 2.2, ((d2, t2 * f2),)),
    )


def match_pairs(liquids):
    a, b = base_pair("a/b")
    return [
        (a, b), base_pair("A/B"), base_pair("a/b", 1.07, 0.93), base_pair("A/B", 0.95, 1.08),
        (twin(a), b), (a, twin(b)),
        (liquids["ipa"], liquids["water"]), (liquids["eg"], liquids["water"]),
        (liquids["dispersionless"], liquids["ipa"]), (liquids["eg"], liquids["eg"]),
    ]


def solve_all(liquids):
    """repr of every find_nu0 and match_profiles outcome, errors included."""
    models = [*liquids.values(), *(twin(liquids[s]) for s in ("ipa", "eg", "water"))]
    out = []
    for model in models:
        for ce in (10.0, 25.0, 60.0, 150.0):
            doped = DopedLiquid(model, Concentration.from_micromolar(ce))
            for tol in (1e-6, 1e-9, 1e-300):
                out.append(repr(outcome(find_nu0, doped, (0.1, 3.0), tol)))
    # tables with an undefined node off the bisection path
    for level, value, toward_b in ((2, -2.0, False), (6, -2.0, False), (2, 3.0001e12, True)):
        for ce in (0.0, 1e-6):
            doped = DopedLiquid(knot_table(level, value, toward_b)[0], Concentration(ce))
            out.append(repr(outcome(find_nu0, doped, (1.0, 2.0))))
    for pair in match_pairs(liquids):
        for bracket in ((0.2, 2.0), (0.2, 3.0)):
            out.append(repr(outcome(match_profiles, *pair, bracket)))
    return out


def test_roots_do_not_depend_on_the_prediction(liquids, monkeypatch):
    want = solve_all(liquids)
    assert sum("PolaronResonance(" in r for r in want) > 50
    assert sum("profile_matched=True" in r for r in want) > 10
    for predict in PREDICTORS.values():
        monkeypatch.setattr(polaron, "_predict", predict)
        assert solve_all(liquids) == want


# --------------------------------------------------------------------------
# The walk is one-point bisection, whatever the prediction; a round reads
# along the predicted path, so few rounds remain
# --------------------------------------------------------------------------


def misleading(a, b, root, shape, scale, islands):
    """A scalar function on [a, b] with its sign change at root, NaN on the islands.

    shape is a line, a step, a plateau of the given width or a kink with the
    given slope ratio; scale multiplies it, sign included.
    """
    kind, arg = shape

    def f(x):
        if any(lo <= x <= hi for lo, hi in islands):
            return math.nan
        d = x - root
        if kind == "step":
            d = -1.0 if d < 0.0 else 1.0
        elif kind == "plateau":
            d = max(-1.0, min(1.0, d / arg))
        elif kind == "kink" and d < 0.0:
            d *= arg
        return scale * (d / (b - a))

    return f


@st.composite
def refine_cases(draw):
    """A scan cell [a, b], a function on it that misleads the predictor, and the scan's values.

    The cell lies within one binade or spans up to three decades. The
    function is a step, a plateau, a kink or a line, scaled by 1e-300 to
    1e300 either way, with NaN islands: one on the bisection path toward
    the first prediction, where the walk may leave it, and one anywhere. The
    scan's value at b is f(b), 0 (find_nu0 brackets on f >= 0 there) or any
    float; at the next scan node, if there is one, f there, NaN (a node
    match_profiles skips), an infinity or any float.
    """
    a = 10.0 ** draw(st.floats(-20.0, 20.0))
    b = a + a * 10.0 ** draw(st.floats(-14.0, 3.0))
    root = a + (b - a) * draw(st.floats(0.0, 1.0))
    shape = draw(
        st.one_of(
            st.tuples(st.sampled_from(["line", "step"]), st.just(0.0)),
            st.tuples(st.just("plateau"), st.floats(1e-12, 1.0).map(lambda w: w * (b - a))),
            st.tuples(st.just("kink"), st.floats(-10.0, 10.0).map(lambda e: 10.0**e)),
        )
    )
    scale = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-300.0, 300.0))
    f = misleading(a, b, root, shape, scale, [])
    fa = f(a)
    fb = draw(st.one_of(st.just(f(b)), st.just(0.0), st.floats()))
    grid, scan = [a, b], [fa, fb]
    c = fc = math.nan  # as _refine_root takes a missing next scan node
    if draw(st.booleans()):
        c = b + (b - a) * 10.0 ** draw(st.floats(-3.0, 3.0))
        odd = st.sampled_from([math.nan, math.inf, -math.inf])
        fc = draw(st.one_of(st.just(f(c)), odd, st.floats()))
        grid.append(c)
        scan.append(fc)
    p = polaron._predict(a, b, c, fa, fb, fc)
    islands = []
    for center in (p, a + (b - a) * draw(st.floats(0.0, 1.0))):
        half_width = (b - a) * 2.0 ** -draw(st.floats(1.0, 60.0))
        islands.append((max(center - half_width, a), min(center + half_width, b)))
    islands = [(lo, hi) for lo, hi in islands if a < lo and hi < b]  # scan ends are defined
    tol = draw(st.sampled_from([0.0, 1e-6 * (b - a), 2.0 * (b - a)]))
    return misleading(a, b, root, shape, scale, islands), grid, scan, tol


def undefined_at(mid):
    raise DomainError(f"undefined at nu = {mid!r}")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=refine_cases())
def test_the_walk_is_one_point_bisection(case):
    # every value the walk reads is f at the midpoint one-point bisection
    # evaluates next, so the bracket, the best point and the error raised at
    # a NaN node it reaches are exactly the reference's, for any predictor.
    # The walk never reads a path's closing midpoint, so NaN there changes
    # nothing, also at tol 0, where that node repeats a bracket end. The
    # predictor raises nothing of its own, and nothing warns
    f, grid, scan, tol = case
    want = outcome(bisect_root, f, grid[0], grid[1], scan[0], tol, undefined_at)

    def rounds(nodes):
        values = np.array([f(x) for x in nodes.tolist()])
        values[-1] = math.nan  # the path's closing midpoint
        return values

    for predict in PREDICTORS.values():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polaron, "_predict", predict)
            got = outcome(
                polaron._refine_root, rounds, np.array(grid), np.array(scan), 0, tol, undefined_at
            )
        assert got == want


@pytest.mark.parametrize("p", [1e-129, 1e-3, 2.4e-3])
def test_a_round_on_a_wide_bracket_steps_toward_its_lower_end(p):
    # a root far below a wide cell's width is hundreds of halvings away
    # toward its lower end, whatever the prediction says: the path halves
    # toward a until the midpoint rounds onto it, then closes
    a, b = 1e-130, 2.5e-3
    nodes = polaron._round_nodes(a, b, p, 0.0).tolist()
    hi = b
    for node in nodes[:-1]:
        assert node == 0.5 * (a + hi)
        hi = node
    assert nodes[-1] == 0.5 * (a + hi) and nodes[-1] in (a, hi)
    assert nodes[-2] <= 2 * a


def test_a_wide_bracket_reaches_the_root_binade_in_the_first_round():
    # the first round's path toward the lower end passes the root's binade,
    # so the second round starts within a factor 2 of the root
    a, b, root = 1e-130, 2.5e-3, 1e-100
    calls = []

    def f(nodes):
        calls.append(nodes)
        return nodes - root

    grid = np.array([a, b, 2 * b])
    got = polaron._refine_root(f, grid, f(grid), 0, 0.0, undefined_at)
    del calls[0]  # the scan
    assert got == bisect_root(lambda x: x - root, a, b, a - root, 0.0, undefined_at)
    assert len(calls) >= 2 and np.all((calls[1] > root / 2) & (calls[1] < 2 * root)), calls[1]


def pole_at(x0):
    """1/(x - x0): a sign change from -inf to inf at x0, no root."""
    def f(x):
        with np.errstate(divide="ignore"):
            return 1.0 / (np.asarray(x) - x0)

    return f


def step_at(x0):
    """sign(x - x0): -1 below x0, 1 above, 0 at x0."""
    return lambda x: np.sign(np.asarray(x) - x0)


@pytest.mark.parametrize("tol", [0.0, 1e-9])
@pytest.mark.parametrize("shape", [pole_at, step_at])
@pytest.mark.parametrize("x0", [1.2345678901234567, 1.0 + 2.0**-40, 1.5 - 2.0**-45])
def test_a_pole_or_a_step_in_a_binade_costs_at_most_a_round_per_halving(shape, x0, tol):
    # a prediction through values of a pole or a step misses the sign
    # change, so the walk may leave each path after its first node, the
    # bracket's midpoint; within one binade that is mant_dig halvings at most
    f = shape(x0)
    calls = []

    def rounds(nodes):
        calls.append(nodes.size)
        return f(nodes)

    grid = np.array([1.0, 1.5, 2.0])
    got = polaron._refine_root(rounds, grid, f(grid), 0, tol, undefined_at)
    assert got == bisect_root(lambda x: float(f(x)), 1.0, 1.5, float(f(1.0)), tol, undefined_at)
    assert 1 <= len(calls) <= sys.float_info.mant_dig + 1, calls


def test_a_round_in_a_binade_reads_on_to_float_resolution():
    # within one binade the path halves the bracket toward the prediction
    # until the midpoint rounds onto an end: at most mant_dig nodes, then
    # the closing midpoint of its last bracket, which at tol 0 repeats one
    # of that bracket's ends
    a, b, p = 0.7, 0.7073, 0.70312345
    nodes = polaron._round_nodes(a, b, p, 0.0)
    path, closing = nodes[:-1].tolist(), float(nodes[-1])
    lo, hi = a, b
    for node in path:
        assert node == 0.5 * (lo + hi)
        lo, hi = (lo, node) if p < node else (node, hi)
    assert closing == 0.5 * (lo + hi) and closing in (lo, hi)
    assert 0 < len(path) <= sys.float_info.mant_dig


def kernel_calls(monkeypatch):
    """The round kernels called from now on: one (name, nodes) entry per call.

    nodes is the size of the pass; _residual's is that of the profile it reads.
    """
    calls = []
    for module, name in ((matching, "_profiles"), (matching, "_residual"), (polaron, "_eps")):
        def counted(*args, kernel=getattr(module, name), name=name):
            calls.append((name, np.shape(args[-1])[-1]))
            return kernel(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("label", ["a/b", "A/B"])
def test_a_profile_match_takes_few_kernel_calls(monkeypatch, label):
    # the scan, the rounds of the profile root and those of the round trip's
    # two find_nu0 calls: 5 and 6 passes in all. Each scan and round runs
    # _profiles once, read once by _residual; the root's concentrations and
    # width terms come from the pass that evaluated the root, so no pass
    # follows the search, and ce_for_nu0 does not run. Each crossing of the
    # round trip is a node of one of its search's rounds, so no one-node
    # pass runs either
    def called(*args):
        raise AssertionError("match_profiles called ce_for_nu0")

    searched = []

    def counted_find_nu0(doped, *args, find_nu0=matching.find_nu0):
        searched.append(doped.liquid)
        return find_nu0(doped, *args)

    monkeypatch.setattr(matching, "ce_for_nu0", called)
    monkeypatch.setattr(matching, "find_nu0", counted_find_nu0)
    calls = kernel_calls(monkeypatch)
    pair = base_pair(label)
    assert match_profiles(*pair).profile_matched
    assert searched == list(pair)
    profiles = [call for call in calls if call[0] == "_profiles"]
    search, trip = calls[: 2 * len(profiles)], calls[2 * len(profiles) :]
    assert search == [c for p in profiles for c in (p, ("_residual", p[1]))], calls
    assert profiles[0] == ("_profiles", PROFILE_SCAN_POINTS), calls
    assert [name for name, _ in trip] == ["_eps", "_eps"], calls
    assert min(n for _, n in calls[2:]) >= 2, calls  # each round: a path and its closing midpoint
    assert len(profiles) + len(trip) == {"a/b": 5, "A/B": 6}[label], calls


@pytest.mark.parametrize("stem", ["water", "eg", "ipa"])
@pytest.mark.parametrize("tol, rounds", [(DEFAULT_TOL, 1), (1e-9, 2)])
def test_find_nu0_rounds(liquids, monkeypatch, stem, tol, rounds):
    # one _eps pass per round, each a path and its closing midpoint; the
    # crossing is a node of the last round, which gives its loss and slope
    # without a one-node pass
    calls = kernel_calls(monkeypatch)
    find_nu0(DopedLiquid(liquids[stem], Concentration.from_micromolar(40.0)), tol=tol)
    assert [name for name, _ in calls] == ["_eps"] * rounds, calls
    assert min(n for _, n in calls) >= 2, calls


def test_a_done_scan_cell_calls_no_round(liquids, monkeypatch):
    # the default bracket's scan cells are 0.0073 THz wide: at tol 0.05 the
    # stop rule holds before the first round, and the crossing is the cell's
    # midpoint, which no round evaluated: its loss and slope take one
    # one-node pass
    doped = DopedLiquid(liquids["water"], Concentration.from_micromolar(40.0))
    grid = np.linspace(*polaron.DEFAULT_BRACKET, polaron.SCAN_POINTS)
    f = eps_doped(doped, grid).real
    i = int(np.flatnonzero((f[:-1] < 0.0) & (f[1:] >= 0.0))[0])
    calls = kernel_calls(monkeypatch)
    assert find_nu0(doped, tol=0.05).nu0 == 0.5 * (grid[i] + grid[i + 1])
    assert calls == [("_eps", 1)]


# --------------------------------------------------------------------------
# Errors: the scan raises what eps_doped and _profiles raise; the rounds keep
# the per-node singularities
# --------------------------------------------------------------------------

DEBYE = DebyeModel("x", 2.2, ((1.0, 1.0),))
OVERFLOW = "frequency 1e+160 THz overflows 'x'"


def test_find_nu0_raises_eps_doped_error_at_an_undefined_crossing():
    # at tol 0.05 the crossing is its scan cell's midpoint, which the search
    # never evaluates; the table puts the local-field pole exactly there
    grid = np.linspace(*polaron.DEFAULT_BRACKET, polaron.SCAN_POINTS)
    a, b = grid[100], grid[101]
    knots = np.array([grid[0], a, 0.5 * (a + b), b, grid[-1]])
    pole = TabulatedModel("pole", knots, np.array([-1.0, -1.0, -2.0, 1.0, 1.0]) + 0j)
    with pytest.raises(SingularityError, match="local-field ratio diverges"):
        find_nu0(DopedLiquid(pole, Concentration(0.0)), tol=0.05)


def test_find_nu0_raises_eps_doped_error_at_an_undefined_round_node(monkeypatch):
    # eps' steps from -1 to 1 at the first round's predicted crossing p, so
    # the walk follows that round's path to its end, and the crossing is the
    # path's closing midpoint: the round evaluates it, the walk never reads
    # it. The table keeps every value the walk reads and puts the local-field
    # pole on that midpoint, so the round finds the crossing undefined and
    # eps_doped raises there, without a one-node pass
    grid = np.linspace(1.0, 2.0, polaron.SCAN_POINTS)
    a, b, c = (float(x) for x in grid[100:103])
    p = polaron._predict(a, b, c, -1.0, 1.0, 1.0)
    lo, hi, _ = polaron._refine_root(
        lambda nu: np.where(nu <= p, -1.0, 1.0), grid, np.where(grid <= p, -1.0, 1.0), 100,
        DEFAULT_TOL, undefined_at,
    )
    nu0 = 0.5 * (lo + hi)
    assert nu0 == polaron._round_nodes(a, b, p, DEFAULT_TOL)[-1]
    knots = np.array([1.0, lo, nu0, hi, 2.0])
    pole = TabulatedModel("pole", knots, np.array([-1.0, -1.0, -2.0, 1.0, 1.0]) + 0j)
    calls = kernel_calls(monkeypatch)
    message = "local-field ratio diverges: permittivity too close to -2"
    with pytest.raises(SingularityError, match=f"^{re.escape(message)}$"):
        find_nu0(DopedLiquid(pole, Concentration(0.0)), (1.0, 2.0))
    assert [name for name, _ in calls] == ["_eps"], calls


def test_find_nu0_overflow_at_the_upper_end():
    doped = DopedLiquid(DEBYE, Concentration.from_micromolar(25.0))
    with pytest.raises(DomainError, match=re.escape(OVERFLOW)):
        find_nu0(doped, (0.1, 1e160))


def test_match_profiles_overflow_at_the_upper_end():
    with pytest.raises(DomainError, match=re.escape(OVERFLOW)):
        match_profiles(DEBYE, DebyeModel("y", 2.2, ((25.0, 0.3),)), (0.2, 1e160))


def test_match_profiles_scan_checks_alpha_el_before_liquid_2():
    # the scan checks eval_neat(liquid1), alpha_el, eval_neat(liquid2) in that
    # order: alpha_el fails at 1e-170 THz before liquid 2 overflows at 1e160
    with pytest.raises(DomainError, match=re.escape("alpha_el leaves the float range")):
        match_profiles(DebyeModel("free", 2.2), DEBYE, (1e-170, 1e160))


def test_match_profiles_scan_names_liquid_2_overflow():
    # alpha_el holds up to about 2e141 THz; delta * x overflows from 3e7 THz on
    strong = DebyeModel("y", 2.2, ((1e300, 1.0),))
    with pytest.raises(DomainError, match=re.escape("frequency 1e+10 THz overflows 'y'")):
        match_profiles(DebyeModel("free", 2.2), strong, (0.2, 1e10))


@st.composite
def wide_brackets(draw):
    """[10**u, 10**(u + v)] for u in [-200, 200] and v in (0, 200]."""
    lo = 10.0 ** draw(st.floats(-200.0, 200.0))
    return lo, lo * 10.0 ** draw(st.floats(0.0, 200.0, exclude_min=True))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_match_profiles_raises_what_its_scan_grid_raises(liquids, data):
    # the ends check stands for the checks on every grid node: each is a
    # range check, and the grid's least and greatest nodes are its ends
    models = st.one_of(debye_models(1e300), table_models(liquids))
    liquid1, liquid2 = data.draw(models), data.draw(models)
    bracket = data.draw(wide_brackets())

    def grid_checks():
        grid = np.linspace(*_shared_bracket(liquid1, liquid2, bracket), PROFILE_SCAN_POINTS)
        eval_neat(liquid1, grid)
        alpha_el(grid)
        eval_neat(liquid2, grid)

    want = outcome(grid_checks)
    if want is not None:
        assert outcome(match_profiles, liquid1, liquid2, bracket) == want


def test_an_overflowing_width_leaves_the_node_undefined():
    # a loss of 1e-310 leaves eps2 at the crossing so small that B/eps2
    # overflows above 1 THz: those nodes are undefined, and nothing warns
    tiny = TabulatedModel("tiny", np.array([0.5, 1.0, 2.0]), np.array([0.0, 0.0, 1 + 1e-310j]))
    assert np.isnan(_profiles(tiny, tiny, np.array([1.2, 1.5, 2.0]))[0]).all()
    with pytest.raises(NoProfileMatchError):
        match_profiles(DebyeModel("free", 1.0), tiny, (1.0, 10.0))
    sol = match_frequency(tiny, tiny, 1.5, (0.5, 2.0))
    assert (sol.profile_residual, sol.note) == (0.0, "width diagnostic undefined: zero loss at the crossing")


def test_find_nu0_bracket_leaving_the_table(liquids):
    doped = DopedLiquid(twin(liquids["water"]), Concentration.from_micromolar(25.0))
    message = "frequency outside tabulated range [0.05, 3.5] THz for 'water-table'"
    with pytest.raises(RangeError, match=re.escape(message)):
        find_nu0(doped, (0.01, 3.0))


def knot_table(level, value, toward_b=False):
    """Table whose only rising crossing lies in one scan cell [a, b] of find_nu0 on (1, 2).

    eps' is -3 up to a, 1 from b on, and value at the node that bisecting
    [a, b] toward a (toward b if toward_b) reaches on the given level:
    a + (b - a)/2**level (b - (b - a)/2**level), formed as the bisection
    path toward a (toward b) forms it. Returns the table and that node.
    """
    grid = np.linspace(1.0, 2.0, polaron.SCAN_POINTS)
    a, b = float(grid[100]), float(grid[101])
    node = a if toward_b else b
    for _ in range(level):
        node = 0.5 * (node + b) if toward_b else 0.5 * (a + node)
    freqs = np.array([1.0, a, node, b, 2.0])
    values = np.array([-3.0, -3.0, value, 1.0, 1.0]) + 0j
    return TabulatedModel("knot", freqs, values), node


def test_find_nu0_on_the_local_field_pole():
    # the pole is the first bisection midpoint, which every walk reaches
    model, _ = knot_table(1, -2.0)
    with pytest.raises(SingularityError, match="local-field ratio diverges"):
        find_nu0(DopedLiquid(model, Concentration(0.0)), (1.0, 2.0))


def test_find_nu0_on_the_clausius_mossotti_divergence():
    model, node = knot_table(2, 3.0001e12)  # 1 - L = 3/(eps + 2), below 1e-12 at the knot alone
    message = f"Clausius-Mossotti divergence at nu = {node:g} THz, ce = 0 uM"
    with pytest.raises(SingularityError, match=re.escape(message)):
        find_nu0(DopedLiquid(model, Concentration(0.0)), (1.0, 2.0))


@pytest.mark.parametrize("predictor", PREDICTORS)
def test_a_round_error_names_the_node_the_walk_reached(monkeypatch, predictor):
    # eps' exceeds 3e12, and so diverges, on a stretch around the level-2
    # knot that holds the first midpoint and many deeper nodes; each
    # predictor names that midpoint, where the walk stops
    model, _ = knot_table(2, 1e13)
    first_mid = knot_table(1, 0.0)[1]
    message = f"Clausius-Mossotti divergence at nu = {first_mid:g} THz, ce = 0 uM"
    monkeypatch.setattr(polaron, "_predict", PREDICTORS[predictor])
    with pytest.raises(SingularityError, match=re.escape(message)):
        find_nu0(DopedLiquid(model, Concentration(0.0)), (1.0, 2.0))


def test_an_off_path_singular_node_stops_no_round(monkeypatch):
    # the pole sits on level 6, left of the bisection walk (eps' at the first
    # midpoint is negative, so the walk goes right): a path toward the
    # cell's lower end evaluates it, and no round stops there
    model, node = knot_table(6, -2.0)
    doped = DopedLiquid(model, Concentration(0.0))
    results = set()
    for predict in PREDICTORS.values():
        monkeypatch.setattr(polaron, "_predict", predict)
        calls = []
        monkeypatch.setattr(polaron, "_eps", lambda d, nu: calls.append(nu) or _eps(d, nu))
        results.add(repr(find_nu0(doped, (1.0, 2.0))))
        if predict is PREDICTORS["lower-end"]:
            assert any(node in nu for nu in calls)
    assert len(results) == 1


@pytest.mark.parametrize("predictor", ["brent", "mirrored"])
@pytest.mark.parametrize("ce", [0.0, 1e-6])
@pytest.mark.parametrize("value", [-2.0, 3.0001e12, 1e13, -1e13])
@pytest.mark.parametrize("toward_b", [False, True], ids=["toward-a", "toward-b"])
@pytest.mark.parametrize("level", range(1, 9))
def test_find_nu0_agrees_with_one_point_bisection(
    monkeypatch, level, toward_b, value, ce, predictor
):
    # scalar_oracle bisects with one eps_doped call per midpoint, so it raises
    # at exactly the undefined nodes its walk reaches
    doped = DopedLiquid(knot_table(level, value, toward_b)[0], Concentration(ce))
    monkeypatch.setattr(polaron, "_predict", PREDICTORS[predictor])
    want = outcome(find_nu0_roots, doped, (1.0, 2.0), DEFAULT_TOL)
    got = outcome(find_nu0, doped, (1.0, 2.0))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert want == [got.nu0] and got.alternatives == ()


# --------------------------------------------------------------------------
# Float resolution ends a bisection: a root far below its scan cell's width
# is still reached
# --------------------------------------------------------------------------

WIDE_BRACKETS = [(1e-130, 1.0), (1e-125, 1e140)]


@pytest.mark.parametrize("predictor", PREDICTORS)
@pytest.mark.parametrize("bracket", WIDE_BRACKETS, ids=["130-decades", "265-decades"])
@pytest.mark.parametrize("target", [1e-100, 1e-60])
def test_a_tiny_root_bisects_to_its_target(liquids, monkeypatch, target, bracket, predictor):
    # the root lies in the first scan cell, hundreds of binades below the
    # cell's width: the walk halves on until its midpoint rounds onto an end
    model = liquids["dispersionless"]
    doped = DopedLiquid(model, ce_for_nu0(model, target))
    monkeypatch.setattr(polaron, "_predict", PREDICTORS[predictor])
    res = find_nu0(doped, bracket, 1e-300)
    assert res.nu0 == target and res.slope_B > 0
    assert [res.nu0, *res.alternatives] == find_nu0_roots(doped, bracket, 1e-300)


@pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-300])
def test_an_ordinary_root_on_a_bracket_of_many_decades(liquids, tol):
    water = liquids["water"]
    doped = DopedLiquid(water, ce_for_nu0(water, 0.7))
    res = find_nu0(doped, WIDE_BRACKETS[1], tol)
    assert abs(res.nu0 - 0.7) <= max(tol, 4 * np.spacing(0.7)) and res.slope_B > 0
    assert res.alternatives == ()
    assert find_nu0_roots(doped, WIDE_BRACKETS[1], tol) == [res.nu0]


@pytest.mark.parametrize("bracket", WIDE_BRACKETS, ids=["130-decades", "265-decades"])
@pytest.mark.parametrize("target", [1e-100, 1e-60, 1e-20, 1e-8])
@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_a_tolerance_above_the_root_still_lands_on_a_rising_crossing(liquids, tol, target, bracket):
    # a bracket at most tol wide still reaches down to the scan node, where
    # eps' is not crossing; one no wider than its lower end holds the root
    # within a factor 2
    model = liquids["dispersionless"]
    doped = DopedLiquid(model, ce_for_nu0(model, target))
    res = find_nu0(doped, bracket, tol)
    assert res.slope_B > 0
    assert abs(res.nu0 - target) <= tol and target / 2 <= res.nu0 <= 2 * target
    assert [res.nu0, *res.alternatives] == find_nu0_roots(doped, bracket, tol)
