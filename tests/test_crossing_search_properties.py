"""The crossing search of several doped liquids against find_nu0 on each alone.

polaron._crossings runs find_nu0 for a list of doped liquids, one row each:
one scan, rounds that every row reads, one closing pass. match_profiles and
match_frequency run it on their two liquids as the round trip. Each row must
give bit for bit the resonance that find_nu0 gives for that row alone. Where
rows fail, the search raises the first failing row's error, type and
message, as find_nu0 on one row after the other does. match_frequency's round
trip runs on a bracket whose ends nothing has checked, so it relies on that
order; match_profiles' has checked eval_neat and alpha_el at both ends, and
its scan is one unchecked pass of both rows (ends_checked).

The liquids are random one- and two-term Debye models and their tabulated
twins, some with the local-field pole (-2) at a knot, where a bracket may
begin. The concentrations are drawn freely, or put both crossings on one
target (ce_for_nu0), as the round trip does. The brackets may leave a twin's
table. A table whose crossing sits on the pole checks that an earlier row's
closing error comes before a later row's scan error.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_scalar_oracle import TABLE_GRID, twin

from impostoron.dielectric import DebyeModel, TabulatedModel, eval_neat
from impostoron.errors import ImpostoronError, RangeError, SingularityError
from impostoron.matching import ce_for_nu0
from impostoron.mixing import Concentration, DopedLiquid, alpha_el
from impostoron.polaron import DEFAULT_BRACKET, DEFAULT_TOL, SCAN_POINTS, _crossings, find_nu0


def outcome(f, *args, **kwargs):
    """f(*args, **kwargs), or the type and message of the ImpostoronError it raises."""
    try:
        return f(*args, **kwargs)
    except ImpostoronError as exc:
        return type(exc), str(exc)


def bits(resonance):
    """A resonance's floats as float64 bit patterns, its concentration and alternatives."""
    floats = [resonance.nu0, resonance.eps_imag_at_nu0, resonance.slope_B]
    return np.array(floats).view(np.uint64).tolist(), resonance.ce, resonance.alternatives


#: the knots of TABLE_GRID that hold a pole, and where a bracket may begin
POLE_KNOTS = [5, 40, 90]


@st.composite
def liquids(draw, name):
    terms = st.tuples(st.floats(0.05, 80.0), st.floats(0.01, 20.0))
    terms = draw(st.lists(terms, min_size=1, max_size=2))
    model = DebyeModel(name, draw(st.floats(1.0, 6.0)), tuple(terms))
    kind = draw(st.sampled_from(["debye", "twin", "pole"]))
    if kind == "twin":
        return twin(model)
    if kind == "pole":  # eps_doped raises at this knot alone
        values = eval_neat(model, TABLE_GRID)
        values[draw(st.sampled_from(POLE_KNOTS))] = -2.0
        return TabulatedModel(f"{name}-pole", TABLE_GRID, values)
    return model


@st.composite
def searches(draw):
    """Two doped liquids, named apart so that their errors differ, a bracket and a tolerance."""
    knots = TABLE_GRID[POLE_KNOTS].tolist()
    lo = draw(st.one_of(st.floats(0.02, 1.5), st.sampled_from(knots)))
    bracket = (lo, lo + draw(st.floats(0.05, 3.0)))
    models = [draw(liquids("a")), draw(liquids("b"))]
    target = draw(st.one_of(st.none(), st.floats(*bracket)))
    dopeds = []
    for model in models:
        ce = outcome(ce_for_nu0, model, target) if target is not None else None
        if not isinstance(ce, Concentration):  # no target, or none reachable
            ce = Concentration.from_micromolar(draw(st.floats(0.0, 300.0)))
        dopeds.append(DopedLiquid(model, ce))
    return dopeds, bracket, draw(st.sampled_from([DEFAULT_TOL, 1e-9]))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=searches())
def test_each_row_is_find_nu0_of_that_row_alone(case):
    dopeds, bracket, tol = case
    alone = [outcome(find_nu0, doped, bracket, tol) for doped in dopeds]
    failed = [want for want in alone if isinstance(want, tuple)]
    ends = np.array(bracket)
    checks = [outcome(eval_neat, d.liquid, ends) for d in dopeds] + [outcome(alpha_el, ends)]
    # the unchecked scan only where its end checks hold, as match_profiles runs it
    modes = [False] + [True] * all(not isinstance(c, tuple) for c in checks)
    for ends_checked in modes:
        got = outcome(_crossings, dopeds, bracket, tol, ends_checked=ends_checked)
        if failed:
            assert got == failed[0], (ends_checked, got, alone)
        else:
            assert [bits(r) for r in got] == [bits(r) for r in alone], ends_checked


def test_a_closing_error_of_an_earlier_row_comes_first():
    # row 0 crosses on the local-field pole: at tol 0.05 its crossing is
    # its scan cell's midpoint, where a table puts -2, so only the closing
    # raises for it. Row 1's table stops short of the bracket, so its scan
    # raises first. find_nu0 one row after the other raises row 0's error
    grid = np.linspace(*DEFAULT_BRACKET, SCAN_POINTS)
    a, b = grid[100], grid[101]
    knots = np.array([grid[0], a, 0.5 * (a + b), b, grid[-1]])
    pole = TabulatedModel("pole", knots, np.array([-1.0, -1.0, -2.0, 1.0, 1.0]) + 0j)
    short = TabulatedModel("short", knots[:-1], np.ones(4) + 0j)
    dopeds = [DopedLiquid(pole, Concentration(0.0)), DopedLiquid(short, Concentration(0.0))]
    alone = [outcome(find_nu0, doped, DEFAULT_BRACKET, 0.05) for doped in dopeds]
    assert [err for err, _ in alone] == [SingularityError, RangeError]
    assert outcome(_crossings, dopeds, DEFAULT_BRACKET, 0.05) == alone[0]
