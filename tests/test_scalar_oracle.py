"""The vector scans and the root refiner against per-node scalar references.

scalar_oracle.py keeps the per-node scan and the one-point-per-step bisection
that find_nu0 and match_profiles used to run. The package must find the same
skip mask, the same profile values and the same roots.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from impostoron import matching
from impostoron.dielectric import DebyeModel, TabulatedModel, eval_neat
from impostoron.errors import ImpostoronError, NoResonanceError
from impostoron.matching import _profiles, _shared_bracket, match_frequency, match_profiles
from impostoron.mixing import Concentration, DopedLiquid
from impostoron.polaron import find_nu0

#: one-term Debye pairs with a profile match in (0.2, 2.0) THz
BASE_PAIRS = {
    "a/b": ((1.0, 0.3), (25.0, 0.3)),
    "A/B": ((0.4, 0.15), (1.6, 1.0)),
}
TABLE_GRID = np.linspace(0.05, 3.5, 240)


def twin(model):
    """Tabulated model sampling a Debye model, linearly interpolated between samples."""
    return TabulatedModel(f"{model.name}-table", TABLE_GRID, eval_neat(model, TABLE_GRID))


def metal_tail(model, above):
    """Tabulated twin that turns metallic above a frequency: unreachable there."""
    values = np.where(TABLE_GRID > above, -0.5 + 0.1j, eval_neat(model, TABLE_GRID))
    return TabulatedModel(f"{model.name}-metal", TABLE_GRID, values)


def assert_close_ulps(got, want, ulps=4):
    assert len(got) == len(want), (got, want)
    for g, w in zip(got, want):
        assert abs(g - w) <= ulps * np.spacing(w), (got, want)


factor = st.floats(0.9, 1.1)


@st.composite
def debye_pairs(draw):
    label = draw(st.sampled_from(sorted(BASE_PAIRS)))
    return tuple(
        DebyeModel(f"{label}{side}", 2.2, ((delta * draw(factor), tau * draw(factor)),))
        for side, (delta, tau) in zip("12", BASE_PAIRS[label])
    )


@pytest.fixture(scope="module")
def packaged_pairs(liquids):
    a = DebyeModel("a", 2.2, (BASE_PAIRS["a/b"][0],))
    b = DebyeModel("b", 2.2, (BASE_PAIRS["a/b"][1],))
    return [
        (liquids["ipa"], liquids["water"]),
        (liquids["eg"], liquids["water"]),
        (DebyeModel("A", 2.2, (BASE_PAIRS["A/B"][0],)), liquids["eg"]),
        (twin(a), b),
        (metal_tail(a, 1.6), b),
        (liquids["dispersionless"], liquids["ipa"]),
    ]


def check_scan(liquid1, liquid2):
    lo, hi = _shared_bracket(liquid1, liquid2, (0.2, 2.0))
    grid = np.linspace(lo, hi, 200)
    # one pass gives both liquids' profiles, a row each
    for liquid, got in zip((liquid1, liquid2), _profiles(liquid1, liquid2, grid)[0]):
        want = np.full(grid.shape, np.nan)
        for i, nu in enumerate(grid):
            try:
                want[i] = oracle.profile_term(liquid, float(nu))
            except ImpostoronError:
                pass
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=1e-12)


def check_match(liquid1, liquid2):
    lo, hi = _shared_bracket(liquid1, liquid2, (0.2, 2.0))
    roots, vals = oracle.match_roots(liquid1, liquid2, lo, hi, 200)
    if not roots:
        with pytest.raises(ImpostoronError):
            match_profiles(liquid1, liquid2, (0.2, 2.0))
        return
    sol = match_profiles(liquid1, liquid2, (0.2, 2.0))
    if sol.degenerate:
        return
    assert_close_ulps([sol.nu0, *sol.alternatives], roots)
    assert sol.skipped_nodes == int(np.count_nonzero(~np.isfinite(vals)))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(debye_pairs())
def test_profile_scan_matches_scalar_oracle(pair):
    check_scan(*pair)


def test_profile_scan_matches_scalar_oracle_on_reference_liquids(packaged_pairs):
    for pair in packaged_pairs:
        check_scan(*pair)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(debye_pairs())
def test_match_profiles_roots_match_scalar_oracle(pair):
    check_match(*pair)


def test_match_profiles_roots_match_scalar_oracle_on_reference_liquids(packaged_pairs):
    for pair in packaged_pairs:
        check_match(*pair)


@st.composite
def doped_liquids(draw, liquids):
    kind = draw(st.sampled_from(["ipa", "eg", "water", "dispersionless", "twin", "debye"]))
    if kind == "twin":
        model = twin(liquids[draw(st.sampled_from(["ipa", "eg", "water"]))])
    elif kind == "debye":
        model = draw(debye_pairs())[draw(st.sampled_from([0, 1]))]
    else:
        model = liquids[kind]
    return DopedLiquid(model, Concentration.from_micromolar(draw(st.floats(5.0, 200.0))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), tol=st.sampled_from([1e-6, 1e-9, 1e-12, 1e-300]))
def test_find_nu0_roots_match_scalar_oracle(liquids, data, tol):
    doped = data.draw(doped_liquids(liquids))
    roots = oracle.find_nu0_roots(doped, (0.1, 3.0), tol)
    if not roots:
        with pytest.raises(NoResonanceError):
            find_nu0(doped, (0.1, 3.0), tol)
        return
    res = find_nu0(doped, (0.1, 3.0), tol)
    assert [res.nu0, *res.alternatives] == roots


def test_undefined_point_inside_a_refinement_round_raises(monkeypatch):
    # a zero-loss knot exactly at the first bisection midpoint of the only
    # scan interval: the profile is undefined there, and the scan nodes at
    # both ends are fine
    a = DebyeModel("a", 2.2, (BASE_PAIRS["a/b"][0],))
    b = DebyeModel("b", 2.2, (BASE_PAIRS["a/b"][1],))
    mid = 0.5 * (0.5 + 0.9)
    freqs = np.union1d(TABLE_GRID, [mid])
    values = eval_neat(a, freqs)
    values[freqs == mid] = values[freqs == mid].real
    holed = TabulatedModel("a-holed", freqs, values)
    with pytest.raises(ImpostoronError):
        oracle.match_roots(holed, b, 0.5, 0.9, 2)
    monkeypatch.setattr(matching, "PROFILE_SCAN_POINTS", 2)
    with pytest.raises(ImpostoronError, match="undefined point"):
        match_profiles(holed, b, (0.5, 0.9))


def test_skipped_nodes_counts_unreachable_scan_nodes():
    a = DebyeModel("a", 2.2, (BASE_PAIRS["a/b"][0],))
    b = DebyeModel("b", 2.2, (BASE_PAIRS["a/b"][1],))
    assert match_profiles(a, b, (0.2, 2.0)).skipped_nodes == 0
    assert match_frequency(a, b, 0.7).skipped_nodes == 0
    sol = match_profiles(metal_tail(a, 1.6), b, (0.2, 2.0))
    # the metallic 1.6-2.0 THz end of the 1.8 THz wide band is unreachable:
    # about 44 of the 200 nodes
    assert 40 <= sol.skipped_nodes <= 48
    # the interpolated twin moves the match by a few 1e-4 THz
    assert sol.nu0 == pytest.approx(0.7005741151286292, abs=1e-3)


def test_find_nu0_stops_at_float_resolution():
    # a tolerance below float spacing used to bisect forever
    doped = DopedLiquid(DebyeModel("d", 2.449, ()), Concentration.from_micromolar(25.0))
    coarse = find_nu0(doped, (0.1, 3.0), 1e-9)
    fine = find_nu0(doped, (0.1, 3.0), 1e-300)
    assert abs(fine.nu0 - coarse.nu0) < 1e-9
