import math
import warnings
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import pytest

from impostoron.dielectric import (
    DebyeModel,
    TabulatedModel,
    _neat_slope,
    _readonly,
    eval_neat,
    load_liquid_file,
    loads_liquid,
    validity_range,
)
from impostoron.errors import DomainError, ParseError, RangeError


@dataclass(frozen=True)
class Holder:
    values: object


class Owned(np.ndarray):
    """An ndarray subclass; an instance made by its constructor owns its data."""


def read_only(arr):
    arr.setflags(write=False)
    return arr


def owned_subclass():
    arr = Owned(4)
    arr[:] = np.arange(4.0)
    assert arr.flags.owndata
    return read_only(arr)


class TestReadonly:
    def test_keeps_a_read_only_owned_array_of_the_dtype(self):
        arr = read_only(np.arange(4.0))
        holder = Holder(arr)
        assert _readonly(holder, "values") is arr
        assert holder.values is arr

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.arange(4.0),  # writeable
            lambda: read_only(np.arange(4.0)[:]),  # read-only view of a writeable base
            lambda: [0.0, 1.0, 2.0, 3.0],
            lambda: read_only(np.arange(4)),  # another dtype
            owned_subclass,
        ],
        ids=["writeable", "view", "list", "int", "subclass"],
    )
    def test_copies_anything_else(self, make):
        arg = make()
        holder = Holder(arg)
        arr = _readonly(holder, "values")
        assert arr is not arg and holder.values is arr
        assert type(arr) is np.ndarray and arr.dtype == float
        assert not arr.flags.writeable and arr.flags.owndata
        np.testing.assert_array_equal(arr, [0.0, 1.0, 2.0, 3.0])
        if isinstance(arg, np.ndarray) and arg.flags.writeable:
            arg[0] = 9.0
            assert arr[0] == 0.0


class TestDebyeModel:
    def test_no_terms_is_constant(self):
        m = DebyeModel("flat", 2.0)
        for nu in (0.01, 0.7, 5.0, 300.0):
            assert eval_neat(m, nu) == 2.0 + 0.0j

    def test_static_limit_of_single_term(self):
        # eps(0+) -> eps_inf + delta
        m = DebyeModel("w", 2.0, ((79.0, 8.3),))
        eps = eval_neat(m, 1e-12)
        assert eps.real == pytest.approx(81.0, abs=1e-6)
        assert eps.imag == pytest.approx(0.0, abs=1e-6)

    def test_halfway_point_of_debye_term(self):
        # at 2*pi*nu*tau = 1 a Debye term contributes delta/2 * (1 + i)
        tau = 8.3
        m = DebyeModel("w", 2.0, ((79.0, tau),))
        eps = eval_neat(m, 1.0 / (2.0 * math.pi * tau))
        assert eps.real == pytest.approx(41.5, rel=1e-12)
        assert eps.imag == pytest.approx(39.5, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eps_inf=0.5),
            dict(eps_inf=float("nan")),
            dict(eps_inf=2.0, terms=((0.0, 1.0),)),
            dict(eps_inf=2.0, terms=((-1.0, 1.0),)),
            dict(eps_inf=2.0, terms=((1.0, 0.0),)),
            dict(eps_inf=2.0, terms=((1.0, -2.0),)),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(DomainError):
            DebyeModel("bad", **kwargs)

    def test_loss_nonnegative_everywhere(self):
        rng = np.random.default_rng(11)
        grid = np.linspace(0.01, 10.0, 500)
        for _ in range(50):
            n_terms = rng.integers(0, 4)
            terms = tuple(
                (float(rng.uniform(0.1, 80.0)), float(rng.uniform(0.05, 400.0)))
                for _ in range(n_terms)
            )
            m = DebyeModel("r", float(rng.uniform(1.0, 6.0)), terms)
            eps = eval_neat(m, grid)
            assert np.all(eps.imag >= 0.0)
            # monotone decay of eps' for pure Debye dispersion
            assert np.all(np.diff(eps.real) <= 1e-12)


class TestTabulatedModel:
    def _table(self):
        nu = np.array([0.2, 0.5, 1.0, 2.0])
        vals = np.array([4.0 + 1.0j, 3.5 + 0.8j, 3.0 + 0.5j, 2.5 + 0.2j])
        return TabulatedModel("tab", nu, vals)

    def test_interpolates_linearly(self):
        m = self._table()
        eps = eval_neat(m, 0.75)
        assert eps == pytest.approx(3.25 + 0.65j, rel=1e-12)
        # exact at the nodes
        assert eval_neat(m, 0.5) == pytest.approx(3.5 + 0.8j, rel=1e-15)

    def test_validity_range(self):
        assert validity_range(self._table()) == (0.2, 2.0)
        assert validity_range(DebyeModel("d", 2.0)) == (0.0, math.inf)

    def test_out_of_range_rejected(self):
        m = self._table()
        with pytest.raises(RangeError, match=r"\[0\.2, 2\] THz for 'tab'"):
            eval_neat(m, 2.5)
        with pytest.raises(RangeError):
            eval_neat(m, np.array([0.5, 0.1]))

    def test_validation(self):
        nu = np.array([0.2, 0.5])
        with pytest.raises(DomainError, match="at least 2 samples"):
            TabulatedModel("t", np.array([0.2]), np.array([1.0 + 0j]))
        with pytest.raises(DomainError, match="increasing"):
            TabulatedModel("t", np.array([0.5, 0.2]), np.ones(2, complex))
        with pytest.raises(DomainError, match="positive"):
            TabulatedModel("t", np.array([-0.1, 0.5]), np.ones(2, complex))
        with pytest.raises(DomainError, match="equal length"):
            TabulatedModel("t", nu, np.ones(3, complex))
        with pytest.raises(DomainError, match="passive"):
            TabulatedModel("t", nu, np.array([1 + 1j, 1 - 1j]))
        with pytest.raises(DomainError, match="tabulated permittivities must be finite"):
            TabulatedModel("t", nu, np.array([1 + 1j, complex(1, math.inf)]))

    @pytest.mark.parametrize(
        "freqs, msg",
        [
            ([[0.2, 0.5]], "at least 2 samples"),
            ([0.2, 0.2], "strictly increasing"),
            ([0.2, math.nan], "finite and strictly increasing"),
            ([math.nan, 0.5], "finite and strictly increasing"),
            ([0.2, math.inf], "finite and strictly increasing"),
            ([-math.inf, 0.5], "finite and strictly increasing"),
            ([0.0, 0.5], "positive"),
        ],
    )
    def test_bad_grid_rejected(self, freqs, msg):
        freqs = np.asarray(freqs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=msg):
                TabulatedModel("t", freqs, np.ones(freqs.shape, complex))

    def test_arrays_are_frozen(self):
        m = self._table()
        with pytest.raises(ValueError):
            m.frequencies[0] = 0.0


def test_eval_neat_rejects_bad_frequencies():
    m = DebyeModel("d", 2.0)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError):
            eval_neat(m, bad)
    with pytest.raises(DomainError):
        eval_neat(m, np.array([]))


def test_eval_neat_names_an_overflowing_frequency():
    # (2 pi nu tau)**2 leaves the float range above about 2.6e151 THz for a
    # 8.3 ps term
    water = DebyeModel("water", 5.8, ((73.0, 8.3), (2.2, 0.25)))
    with pytest.raises(DomainError, match=r"frequency 1e\+200 THz overflows 'water'"):
        eval_neat(water, 1e200)
    with pytest.raises(DomainError, match=r"frequency 1e\+200 THz"):
        eval_neat(water, np.array([0.7, 1e200]))


def test_eval_neat_names_a_frequency_where_a_strong_term_overflows():
    # delta * x leaves the float range above about 1.6e7 THz for this term,
    # far below where x**2 does
    strong = DebyeModel("strong", 2.0, ((1e300, 1.0),))
    with pytest.raises(DomainError, match=r"frequency 1e\+10 THz overflows 'strong'"):
        eval_neat(strong, 1e10)
    with pytest.raises(DomainError, match=r"frequency 1e\+10 THz"):
        eval_neat(strong, np.array([0.7, 1e10]))
    assert np.all(np.isfinite(eval_neat(strong, np.array([1e-3, 0.7, 1e7]))))


def test_debye_strengths_must_sum_to_a_float():
    # eps_inf + sum(delta_eps) bounds eps' at every frequency; two 1e308 terms
    # would overflow eval_neat's sum at low frequency
    with pytest.raises(DomainError, match=r"eps_inf \+ sum\(delta_eps\) is not finite"):
        DebyeModel("x", 2.0, ((1e308, 1.0), (1e308, 1.0)))
    with pytest.raises(DomainError, match="is not finite"):
        DebyeModel("x", 1e308, ((1e308, 1.0),))
    big = DebyeModel("x", 2.0, ((8e307, 1.0), (8e307, 1.0)))
    assert math.isfinite(eval_neat(big, 1e-3).real)


class TestNeatSlope:
    def test_debye_matches_mpmath_derivative(self):
        m = DebyeModel("w", 5.8, ((73.0, 8.3), (2.2, 0.25)))
        grid = np.array([1e-3, 0.1, 0.7, 3.0, 40.0])
        got = _neat_slope(m, grid)
        with mp.workdps(30):
            for nu, g in zip(grid, got):
                ref = mp.diff(
                    lambda t: 5.8 + sum(d / (1 - 2j * mp.pi * tau * t) for d, tau in m.terms),
                    mp.mpf(nu),
                )
                assert abs(g - complex(ref)) <= 1e-14 * abs(complex(ref))

    def test_no_warning_where_eval_neat_succeeds(self):
        # eval_neat is finite up to x = 2 pi nu tau of about 1.3e154; the
        # slope's w**2 only underflows there
        m = DebyeModel("w", 5.8, ((73.0, 8.3),))
        nu = np.array([1e152])
        eval_neat(m, nu)
        assert np.all(np.isfinite(_neat_slope(m, nu)))

    def test_finite_where_two_pi_tau_delta_overflows(self):
        # 2 pi tau delta = 6.3e308 leaves the float range; the slope, about
        # -16i at 1e-5 THz, does not, and is linear in delta
        nu = np.array([1e-5, 2e-5])
        got = _neat_slope(DebyeModel("s", 2.0, ((1e150, 1e158),)), nu)
        unit = _neat_slope(DebyeModel("u", 2.0, ((1.0, 1e158),)), nu)
        np.testing.assert_allclose(got, 1e150 * unit, rtol=1e-15)

    def test_table_takes_the_segment_above_a_knot(self):
        nu = np.array([0.2, 0.5, 1.0, 2.0])
        vals = np.array([4.0 + 1.0j, 3.5 + 0.8j, 3.0 + 0.5j, 2.5 + 0.2j])
        m = TabulatedModel("tab", nu, vals)
        seg = np.diff(vals) / np.diff(nu)
        got = _neat_slope(m, np.array([0.2, 0.3, 0.5, 0.75, 1.0, 2.0]))
        np.testing.assert_array_equal(got, seg[[0, 0, 1, 1, 2, 2]])


def test_eval_neat_vectorizes():
    m = DebyeModel("d", 2.0, ((10.0, 1.0),))
    grid = np.array([0.3, 0.7, 1.5])
    eps = eval_neat(m, grid)
    assert eps.shape == grid.shape
    # numpy may use SIMD kernels on arrays, so agreement is to the ulp,
    # not bitwise
    for i in range(3):
        assert eps[i] == pytest.approx(eval_neat(m, float(grid[i])), rel=1e-14)


GOOD_DEBYE = """
# a comment line
name = demo liquid
type = debye
eps_inf = 2.5   # trailing comment
term = 10.0, 1.5
term = 0.5, 0.2
"""

GOOD_TABLE = """
name = demo table
type = table
columns = nu_THz, eps_real, eps_imag
0.2, 4.0, 1.0
0.5, 3.5, 0.8
1.0, 3.0, 0.5
"""


class TestParser:
    def test_parses_debye(self):
        m = loads_liquid(GOOD_DEBYE)
        assert isinstance(m, DebyeModel)
        assert m.name == "demo liquid"
        assert m.eps_inf == 2.5
        assert m.terms == ((10.0, 1.5), (0.5, 0.2))

    def test_parses_table(self):
        m = loads_liquid(GOOD_TABLE)
        assert isinstance(m, TabulatedModel)
        assert m.frequencies.tolist() == [0.2, 0.5, 1.0]
        assert m.values[1] == 3.5 + 0.8j

    @pytest.mark.parametrize(
        "text,msg",
        [
            ("type = debye\neps_inf = 2", "missing 'name'"),
            ("name = x", "missing 'type'"),
            ("name =\ntype = debye\neps_inf = 2", ":1: empty name"),
            ("name = x\ntype = maxwell", "unknown model type"),
            ("name = x\ntype = debye", "requires 'eps_inf'"),
            ("name = x\ntype = debye\neps_inf = two", "bad eps_inf"),
            ("name = x\ntype = debye\neps_inf = 2\nterm = 1.0", "term needs exactly"),
            ("name = x\ntype = debye\neps_inf = 2\nterm = 1.0, fast", "bad term values '1.0, fast'"),
            ("name = x\ntype = debye\neps_inf = 2\ncolour = red", "unknown key 'colour'"),
            ("name = x\ntype = table\ncolumns = nu, e1, e2", "columns must be"),
            ("name = x\ntype = table\n0.2, 1, 0", "before a columns declaration"),
            (
                "name = x\ntype = table\ncolumns = nu_THz, eps_real, eps_imag\n0.2, 1, i",
                ":4: bad table row '0.2, 1, i'",
            ),
            (GOOD_TABLE + "eps_inf = 2\n", "debye keys not allowed"),
            (GOOD_DEBYE + "columns = nu_THz, eps_real, eps_imag\n", "table data not allowed"),
            (
                "name = x\ntype = table\ncolumns = nu_THz, eps_real, eps_imag\n0.2, 1, 0",
                "at least two data rows",
            ),
            (GOOD_DEBYE + "name = y\n", ":8: duplicate key 'name'"),
            ("name = x\ntype = table\ntype = debye\neps_inf = 2", ":3: duplicate key 'type'"),
            (GOOD_DEBYE + "eps_inf = 3\n", "duplicate key 'eps_inf'"),
            (GOOD_TABLE + "columns = nu_THz, eps_real, eps_imag\n", "duplicate key 'columns'"),
        ],
    )
    def test_rejects_malformed(self, text, msg):
        with pytest.raises(ParseError, match=msg):
            loads_liquid(text)

    def test_error_carries_source_and_line(self):
        with pytest.raises(ParseError, match=r"demo\.liq:3: unknown key 'foo'"):
            loads_liquid("name = x\ntype = debye\nfoo = 1\n", source="demo.liq")

    def test_model_validation_reported_as_parse_error(self):
        with pytest.raises(ParseError, match="positive"):
            loads_liquid("name = x\ntype = debye\neps_inf = 2\nterm = -1, 1\n")

    def test_load_file_roundtrip(self, tmp_path):
        p = tmp_path / "demo.liq"
        p.write_text(GOOD_DEBYE, encoding="utf-8")
        m = load_liquid_file(p)
        assert m.name == "demo liquid"


def test_packaged_reference_files_load(liquids):
    assert set(liquids) == {"ipa", "eg", "water", "dispersionless"}
    # static limits stated in the data-file comments
    for stem, static in (("ipa", 17.90), ("eg", 37.00), ("water", 81.0)):
        m = liquids[stem]
        assert m.eps_inf + sum(d for d, _ in m.terms) == pytest.approx(static, abs=1e-9)
    assert liquids["dispersionless"].terms == ()
    assert liquids["dispersionless"].eps_inf == 2.449
