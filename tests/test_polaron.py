import math
import warnings

import numpy as np
import pytest

from impostoron.constants import CONSTANTS
from impostoron.dielectric import DebyeModel, TabulatedModel, eval_neat
from impostoron.errors import (
    DegenerateLineshapeError,
    DomainError,
    NoConsistentLossError,
    NoResonanceError,
    SingularityError,
)
from impostoron.mixing import Concentration, DopedLiquid, alpha_el, cm_mix
from impostoron.polaron import (
    PolaronResonance,
    Spectrum,
    eps_doped,
    eps_imag_at_nu0,
    find_nu0,
    lineshape,
    lorentz_lineshape,
)

DISPERSIONLESS = DebyeModel("dispersionless", 2.449, ())
CE25 = Concentration.from_micromolar(25.0)

# constant complex table: same real part as the dispersionless reference but
# with finite loss, so the crossing carries a measurable line width
LOSSY_CONST = TabulatedModel(
    "lossy-const", np.array([0.05, 5.0]), np.array([2.449 + 0.1j, 2.449 + 0.1j])
)


def analytic_nu0_dispersionless(eps_neat: float, ce: Concentration) -> float:
    # lossless host: the crossing sits where the local-field sum equals -1/2,
    # which for a frequency-flat host solves in closed form
    c = CONSTANTS
    l_neat = (eps_neat - 1.0) / (eps_neat + 2.0)
    omega2 = (
        ce.mol_per_m3
        * c.avogadro
        * c.elementary_charge**2
        / (3.0 * (l_neat + 0.5) * c.vacuum_permittivity * c.electron_mass)
    )
    return math.sqrt(omega2) / (2e12 * math.pi)


class TestSpectrum:
    def test_arrays_frozen_and_validated(self):
        s = Spectrum(np.array([0.1, 0.2]), np.array([1.0, 2.0]))
        with pytest.raises((ValueError, AttributeError)):
            s.values[0] = 5.0

    @pytest.mark.parametrize(
        "freqs, vals, msg",
        [
            ([0.1], [1.0], "at least 2 samples"),
            ([0.1, 0.2], [1.0], "equal length"),
            ([0.2, 0.1], [1.0, 2.0], "strictly increasing"),
            ([0.1, 0.1], [1.0, 2.0], "strictly increasing"),
            ([0.1, 0.2], [1.0, float("nan")], "finite"),
            ([[0.1, 0.2]], [[1.0, 2.0]], "at least 2 samples"),
            ([float("nan"), 0.2], [1.0, 2.0], "finite and strictly increasing"),
            ([0.1, math.inf], [1.0, 2.0], "finite and strictly increasing"),
            ([-math.inf, 0.1], [1.0, 2.0], "finite and strictly increasing"),
            ([-1.7e308, 1.7e308], [1.0, 2.0], "span exceeds"),
        ],
    )
    def test_rejects_bad_arrays(self, freqs, vals, msg):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=msg):
                Spectrum(np.asarray(freqs, float), np.asarray(vals, float))


class TestFindNu0:
    def test_dispersionless_matches_closed_form(self):
        res = find_nu0(DopedLiquid(DISPERSIONLESS, CE25), (0.1, 3.0), tol=1e-9)
        assert abs(res.nu0 - analytic_nu0_dispersionless(2.449, CE25)) < 1e-8
        # the 25 uM / 2.449 combination was chosen to land on 0.7 THz
        assert abs(res.nu0 - 0.7) < 5e-5
        assert res.eps_imag_at_nu0 == 0.0
        assert res.alternatives == ()
        assert res.ce is CE25

    def test_quadrupled_concentration_doubles_the_crossing(self):
        r1 = find_nu0(DopedLiquid(DISPERSIONLESS, CE25), (0.1, 3.0), tol=1e-9)
        r4 = find_nu0(
            DopedLiquid(DISPERSIONLESS, Concentration.from_micromolar(100.0)),
            (0.1, 3.0),
            tol=1e-9,
        )
        assert r4.nu0 == pytest.approx(2.0 * r1.nu0, rel=1e-6)

    def test_crossing_residual_bounded_by_tolerance(self, liquids):
        for name in ("ipa", "eg", "water"):
            doped = DopedLiquid(liquids[name], Concentration.from_micromolar(60.0))
            res = find_nu0(doped, (0.1, 3.0), tol=1e-7)
            resid = float(np.real(eps_doped(doped, res.nu0)))
            assert abs(resid) < 10.0 * 1e-7 * abs(res.slope_B)

    def test_positive_slope_at_upward_crossing(self, liquids):
        res = find_nu0(DopedLiquid(liquids["water"], Concentration.from_micromolar(60.0)))
        assert res.slope_B > 0

    def test_no_crossing_in_bracket(self):
        with pytest.raises(NoResonanceError, match=r"no polaron resonance in range \[1, 3\] THz"):
            find_nu0(DopedLiquid(DISPERSIONLESS, CE25), (1.0, 3.0))

    @pytest.mark.parametrize("bracket", [(0.0, 1.0), (-0.5, 1.0), (2.0, 1.0), (1.0, 1.0)])
    def test_bad_bracket(self, bracket):
        with pytest.raises(DomainError, match="bad bracket"):
            find_nu0(DopedLiquid(DISPERSIONLESS, CE25), bracket)

    def test_bad_tolerance_and_scan(self):
        for tol in (0.0, math.nan):
            with pytest.raises(DomainError, match="tolerance"):
                find_nu0(DopedLiquid(DISPERSIONLESS, CE25), tol=tol)

    def test_overflowing_slope_raises(self):
        # the crossing near 0.007 THz is found, but d(eps')/d(nu) there is
        # about 5e309, beyond the float range
        big = DebyeModel("big", 2.0, ((1e308, 10.0),))
        with pytest.raises(DomainError, match=r"slope d\(eps'\)/d\(nu\) at nu0 = 0\.007"):
            find_nu0(DopedLiquid(big, Concentration.from_micromolar(0.005)), (1e-3, 0.02))

    def test_multiple_crossings_reported_as_alternatives(self):
        # piecewise host whose real part dips below the doping threshold
        # twice inside the bracket: two upward crossings
        wiggle = TabulatedModel(
            "wiggle",
            np.array([0.2, 0.8, 1.2, 2.0]),
            np.array([1.0 + 0.05j, 6.0 + 0.05j, 0.5 + 0.05j, 8.0 + 0.05j]),
        )
        ce = Concentration(1.5 / (CONSTANTS.avogadro * abs(alpha_el(1.0).real)))
        res = find_nu0(DopedLiquid(wiggle, ce), (0.25, 1.95), tol=1e-8)
        assert 0.675 < res.nu0 < 0.69
        assert len(res.alternatives) == 1
        assert 1.205 < res.alternatives[0] < 1.215
        for root in (res.nu0, *res.alternatives):
            assert abs(float(np.real(eps_doped(DopedLiquid(wiggle, ce), root)))) < 1e-6


class TestEpsImagAtNu0:
    def test_consistency_relation(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            neat = complex(rng.uniform(1.2, 80.0), rng.uniform(0.0, 3.0))
            r = neat.imag / abs(neat + 2.0) ** 2
            if r > 0.25:
                continue
            e2 = eps_imag_at_nu0(neat)
            assert e2 / (e2 * e2 + 4.0) == pytest.approx(r, rel=1e-13, abs=1e-15)
            assert 0.0 <= e2 <= 2.0  # physical branch stays below the double root

    def test_lossless_host_gives_zero(self):
        assert eps_imag_at_nu0(2.449 + 0.0j) == 0.0

    def test_boundary_double_root(self):
        # eps' = -1, eps'' = 2 - sqrt(3) gives R = 1/4 exactly, the top of the
        # consistency window; approach it from below and watch eps2 -> 2
        neat_imag = (2.0 - math.sqrt(3.0)) * (1.0 - 1e-9)
        e2 = eps_imag_at_nu0(complex(-1.0, neat_imag))
        assert e2 < 2.0
        assert e2 == pytest.approx(2.0, rel=1e-4)

    def test_excess_loss_rejected(self):
        # R = 0.8 / |1 + 0.8j|^2 = 0.488
        with pytest.raises(NoConsistentLossError, match="exceeds 1/4"):
            eps_imag_at_nu0(-1.0 + 0.8j)

    def test_negative_loss_rejected(self):
        with pytest.raises(DomainError, match="neat loss"):
            eps_imag_at_nu0(2.0 - 0.1j)

    def test_local_field_pole(self):
        with pytest.raises(SingularityError, match="close to -2"):
            eps_imag_at_nu0(-2.0 + 0.0j)

    @pytest.mark.parametrize("neat", [complex("nan"), complex(math.inf, 1.0)])
    def test_non_finite_neat_value_rejected(self, neat):
        with pytest.raises(DomainError, match="neat permittivity must be finite"):
            eps_imag_at_nu0(neat)

    def test_overflowing_neat_value_rejected(self):
        # |eps_neat + 2|^2 exceeds the float range above |eps_neat| of about 1.3e154
        for neat in (1e300 + 6e298j, -1e308 + 1j):
            with pytest.raises(DomainError, match=r"too large: \|eps_neat \+ 2\|\^2 overflows"):
                eps_imag_at_nu0(neat)

    def test_small_loss_linear_regime(self):
        # for R -> 0 the physical root behaves as 4R
        neat = 10.0 + 1e-6j
        r = neat.imag / abs(neat + 2.0) ** 2
        assert eps_imag_at_nu0(neat) == pytest.approx(4.0 * r, rel=1e-6)


class TestLineshape:
    def test_matches_hand_formula(self, liquids):
        doped = DopedLiquid(liquids["eg"], Concentration.from_micromolar(80.0))
        grid = np.linspace(0.3, 1.5, 64)
        ls = lineshape(doped, grid)
        eps = eps_doped(doped, grid)
        ref = eps.imag / (eps.real**2 + eps.imag**2)
        np.testing.assert_allclose(ls.values, ref, rtol=1e-13)
        np.testing.assert_array_equal(ls.frequencies, grid)
        # same thing, stated as the negative imaginary part of 1/eps
        np.testing.assert_allclose(ls.values, -np.imag(1.0 / eps), rtol=1e-13)

    def test_identically_zero_permittivity_is_singular(self):
        # a host table pinned at eps = 0 mixes to exactly eps = 0 at ce = 0
        null = TabulatedModel(
            "null", np.array([0.1, 2.0]), np.array([0.0 + 0.0j, 0.0 + 0.0j])
        )
        with pytest.raises(SingularityError, match=r"singular line shape.*nu = 0\.3"):
            lineshape(DopedLiquid(null, Concentration(0.0)), np.linspace(0.3, 1.0, 8))


class TestLorentzLineshape:
    def test_peak_height_and_width(self):
        res = find_nu0(DopedLiquid(LOSSY_CONST, CE25), (0.1, 3.0), tol=1e-9)
        e2, b, nu0 = res.eps_imag_at_nu0, res.slope_B, res.nu0
        hwhm = e2 / b
        grid = np.array([nu0 - hwhm, nu0, nu0 + hwhm])
        lor = lorentz_lineshape(res, grid)
        assert lor.values[1] == pytest.approx(1.0 / e2, rel=1e-12)
        assert lor.values[0] == pytest.approx(0.5 / e2, rel=1e-9)
        assert lor.values[2] == pytest.approx(0.5 / e2, rel=1e-9)

    def test_frozen_reference_resonance(self):
        res = find_nu0(DopedLiquid(LOSSY_CONST, CE25), (0.1, 3.0), tol=1e-9)
        assert res.nu0 == pytest.approx(0.6999038276068847, abs=2e-9)
        assert res.eps_imag_at_nu0 == pytest.approx(0.020200407248136733, rel=1e-9)
        assert res.slope_B == pytest.approx(3.146315143846713, rel=1e-6)
        # solver loss agrees with the closed-form branch from the neat value
        neat = eval_neat(LOSSY_CONST, res.nu0)
        assert res.eps_imag_at_nu0 == pytest.approx(eps_imag_at_nu0(neat), rel=1e-7)

    def test_approximates_exact_shape_within_half_width(self):
        res = find_nu0(DopedLiquid(LOSSY_CONST, CE25), (0.1, 3.0), tol=1e-9)
        hwhm = res.eps_imag_at_nu0 / res.slope_B
        grid = np.linspace(res.nu0 - hwhm, res.nu0 + hwhm, 101)
        exact = lineshape(DopedLiquid(LOSSY_CONST, CE25), grid)
        lor = lorentz_lineshape(res, grid)
        dev = np.abs(lor.values - exact.values) / np.max(exact.values)
        assert float(np.max(dev)) < 0.01

    def test_delta_line_rejected(self):
        res = PolaronResonance(
            nu0=0.7, eps_imag_at_nu0=0.0, slope_B=3.0, ce=CE25, alternatives=()
        )
        with pytest.raises(DegenerateLineshapeError, match=r"delta: eps''\(nu0\) = 0$"):
            lorentz_lineshape(res, np.linspace(0.6, 0.8, 11))

    def test_height_past_the_float_range_rejected(self):
        # a loss of 1e-310 leaves eps''(nu0) = 2.77e-311, whose inverse overflows
        tiny = TabulatedModel("tiny", np.array([0.05, 3.5]), np.full(2, 1.8 + 1e-310j))
        res = find_nu0(DopedLiquid(tiny, Concentration.from_micromolar(40.0)))
        assert 0 < res.eps_imag_at_nu0 < 1e-308
        message = r"degenerates to a delta: eps''\(nu0\) = 2\.77008e-311"
        with pytest.raises(DegenerateLineshapeError, match=message):
            lorentz_lineshape(res, np.linspace(0.1, 3.0, 11))

    def test_overflowing_detuning_gives_the_exact_limit_zero(self):
        # B*(nu - nu0)/eps'' overflows off nu0, where the line is 0 to the last bit
        res = PolaronResonance(nu0=1.0, eps_imag_at_nu0=1e-300, slope_B=1e10, ce=CE25)
        lor = lorentz_lineshape(res, np.array([0.5, 1.0, 1.5]))
        assert lor.values.tolist() == [0.0, 1.0 / 1e-300, 0.0]
        # a detuning that stays finite but whose square overflows, too
        res = PolaronResonance(nu0=1.0, eps_imag_at_nu0=1e-100, slope_B=1e100, ce=CE25)
        assert lorentz_lineshape(res, np.array([1.0, 2.0])).values.tolist() == [1e100, 0.0]


def test_vacuum_host_crossing_is_local_field_shifted_plasma_point():
    # host eps = 1 (vacuum-like): the crossing sits at sqrt(2/3) times the
    # bare carrier plasma frequency of the same number density
    vac = DebyeModel("vacuum", 1.0, ())
    ce = Concentration.from_micromolar(40.0)
    res = find_nu0(DopedLiquid(vac, ce), (0.1, 3.0), tol=1e-9)
    c = CONSTANTS
    n_e = ce.mol_per_m3 * c.avogadro
    nu_p = (
        math.sqrt(n_e * c.elementary_charge**2 / (c.vacuum_permittivity * c.electron_mass))
        / (2e12 * math.pi)
    )
    assert res.nu0 / nu_p == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-7)
