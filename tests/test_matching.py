import numpy as np
import pytest

from impostoron.constants import CONSTANTS
from impostoron.dielectric import DebyeModel, TabulatedModel, eval_neat
from impostoron.errors import (
    DomainError,
    NoProfileMatchError,
    UnreachableFrequencyError,
)
from impostoron.matching import (
    ce_for_nu0,
    concentration_difference,
    match_frequency,
    match_profiles,
)
from impostoron.mixing import DopedLiquid, alpha_el
from impostoron.polaron import eps_imag_at_nu0, find_nu0, lineshape

DISPERSIONLESS = DebyeModel("d2449", 2.449, ())


class TestCeForNu0:
    def test_dispersionless_reference_concentration(self):
        ce = ce_for_nu0(DISPERSIONLESS, 0.7)
        # the 2.449 host was constructed to need about 25 uM for a 0.7 THz
        # crossing; the exact closed form lands 1.2e-3 uM above the round
        # number because 25 uM itself crosses at 0.699983 THz
        assert ce.micromolar == pytest.approx(25.0, abs=2.5e-3)
        assert ce.micromolar == pytest.approx(25.001193739210166, rel=1e-12)

    def test_doubled_frequency_needs_quadruple_concentration(self):
        c1 = ce_for_nu0(DISPERSIONLESS, 0.7)
        c2 = ce_for_nu0(DISPERSIONLESS, 1.4)
        assert c2.mol_per_m3 == pytest.approx(4.0 * c1.mol_per_m3, rel=1e-12)

    def test_round_trip_through_zero_crossing_solver(self, liquids):
        tol = 1e-6
        for name in ("ipa", "eg", "water"):
            for nu0 in np.linspace(0.3, 1.5, 7):
                ce = ce_for_nu0(liquids[name], float(nu0))
                res = find_nu0(DopedLiquid(liquids[name], ce), (0.1, 3.0), tol)
                assert abs(res.nu0 - nu0) < 10.0 * tol

    def test_reference_liquids_near_published_concentrations(self, liquids):
        # shipped IPA/EG/water parameterizations should need roughly
        # 25/30/40 uM for a common 0.7 THz crossing (within 20%)
        for name, target in (("ipa", 25.0), ("eg", 30.0), ("water", 40.0)):
            ce = ce_for_nu0(liquids[name], 0.7)
            assert abs(ce.micromolar - target) / target < 0.20

    def test_vacuum_like_host(self):
        # neat eps = 1: the neat local-field term vanishes and the closed
        # form reduces to -(3/2)/(N_A alpha)
        vac = DebyeModel("vacuum", 1.0, ())
        ce = ce_for_nu0(vac, 0.7)
        ref = -1.5 / (CONSTANTS.avogadro * alpha_el(0.7).real)
        assert ce.mol_per_m3 == pytest.approx(ref, rel=1e-12)
        assert ce.mol_per_m3 > 0

    def test_unreachable_target_raises(self):
        met = TabulatedModel(
            "metallic", np.array([0.1, 3.0]), np.array([-0.5 + 0.1j, -0.5 + 0.1j])
        )
        with pytest.raises(
            UnreachableFrequencyError, match="unreachable for 'metallic'"
        ):
            ce_for_nu0(met, 0.7)


class TestConcentrationDifference:
    def test_identical_liquids_cancel(self, liquids):
        assert concentration_difference(liquids["eg"], liquids["eg"], 0.7) == 0.0

    def test_equals_difference_of_closed_forms(self, liquids):
        for a, b in (("ipa", "eg"), ("eg", "water"), ("ipa", "water")):
            for nu0 in (0.4, 0.7, 1.3):
                direct = concentration_difference(liquids[a], liquids[b], nu0)
                split = (
                    ce_for_nu0(liquids[a], nu0).mol_per_m3
                    - ce_for_nu0(liquids[b], nu0).mol_per_m3
                )
                assert direct == pytest.approx(split, rel=1e-10)

    def test_antisymmetric(self, liquids):
        d = concentration_difference(liquids["ipa"], liquids["water"], 0.7)
        r = concentration_difference(liquids["water"], liquids["ipa"], 0.7)
        assert r == pytest.approx(-d, rel=1e-14)

    def test_dispersionless_pair_sign_and_value(self):
        # the host with the larger permittivity has the larger local-field
        # ratio and therefore needs the *larger* concentration to reach the
        # same crossing, so ce(2.449) - ce(3.0) comes out negative
        other = DebyeModel("d3000", 3.0, ())
        d = concentration_difference(DISPERSIONLESS, other, 0.7)
        assert d < 0
        assert d == pytest.approx(-0.0022500053491718744, rel=1e-10)
        assert ce_for_nu0(other, 0.7).mol_per_m3 > ce_for_nu0(DISPERSIONLESS, 0.7).mol_per_m3


class TestMatchFrequency:
    def test_identical_liquids(self, liquids):
        sol = match_frequency(liquids["eg"], liquids["eg"], 0.7)
        assert sol.ce_1.mol_per_m3 == sol.ce_2.mol_per_m3
        assert sol.freq_residual < 1e-6
        assert sol.profile_residual == 0.0
        assert sol.profile_matched is False

    def test_reference_pairing_at_0p7(self, liquids):
        sol = match_frequency(liquids["ipa"], liquids["water"], 0.7)
        assert sol.nu0 == 0.7
        assert sol.ce_1.micromolar == pytest.approx(25.0, rel=0.20)
        assert sol.ce_2.micromolar == pytest.approx(40.0, rel=0.20)
        assert sol.freq_residual < 2e-6

    def test_swap_symmetry(self, liquids):
        s12 = match_frequency(liquids["ipa"], liquids["eg"], 0.7)
        s21 = match_frequency(liquids["eg"], liquids["ipa"], 0.7)
        assert s12.nu0 == s21.nu0
        assert s12.ce_1.mol_per_m3 == s21.ce_2.mol_per_m3
        assert s12.ce_2.mol_per_m3 == s21.ce_1.mol_per_m3
        assert s12.profile_residual == pytest.approx(-s21.profile_residual, rel=1e-12)
        assert s12.freq_residual == s21.freq_residual

    def test_dispersionless_round_trip_residual(self):
        other = DebyeModel("d3000", 3.0, ())
        tol = 1e-7
        sol = match_frequency(DISPERSIONLESS, other, 0.7, (0.1, 3.0), tol)
        assert sol.freq_residual < 2.0 * tol

    def test_unreachable_target_names_liquid(self, liquids):
        met = TabulatedModel(
            "metallic", np.array([0.1, 3.0]), np.array([-0.5 + 0.1j, -0.5 + 0.1j])
        )
        with pytest.raises(UnreachableFrequencyError, match="'metallic'"):
            match_frequency(liquids["ipa"], met, 0.7)


class TestMatchProfiles:
    def test_identical_liquids_degenerate(self, liquids):
        sol = match_profiles(liquids["ipa"], liquids["ipa"], (0.3, 1.5))
        assert sol.degenerate is True
        assert sol.profile_matched is True
        assert sol.note == "degenerate: all frequencies match"
        assert sol.nu0 == 0.3  # reported at the bracket edge
        assert sol.profile_residual == 0.0

    def test_strength_only_pair_single_root(self):
        # same eps_inf and relaxation time, different strengths: exactly one
        # width-matching frequency in the band when the strength product
        # clears the local-field threshold
        a = DebyeModel("a", 2.2, ((1.0, 0.3),))
        b = DebyeModel("b", 2.2, ((25.0, 0.3),))
        sol = match_profiles(a, b, (0.2, 2.0))
        assert sol.profile_matched is True
        assert sol.alternatives == ()
        assert sol.nu0 == pytest.approx(0.7005741151286292, abs=1e-6)
        assert sol.ce_1.micromolar == pytest.approx(25.683494495293186, rel=1e-6)
        assert sol.ce_2.micromolar == pytest.approx(41.475789435270606, rel=1e-6)
        assert abs(sol.profile_residual) < 1e-8
        # both zero crossings really sit on the matched frequency
        for liquid, ce in ((a, sol.ce_1), (b, sol.ce_2)):
            res = find_nu0(DopedLiquid(liquid, ce), (0.2, 2.0), 1e-8)
            assert abs(res.nu0 - sol.nu0) < 1e-6

    def test_two_relaxation_time_pair(self):
        a = DebyeModel("A", 2.2, ((0.4, 0.15),))
        b = DebyeModel("B", 2.2, ((1.6, 1.0),))
        sol = match_profiles(a, b, (0.2, 2.0))
        assert sol.nu0 == pytest.approx(1.4022299660780648, abs=1e-6)
        assert sol.alternatives == ()
        assert abs(sol.profile_residual) < 1e-8

    def test_matched_exact_lineshapes_agree(self):
        # the Lorentz parameters are equalized by construction; the exact
        # (non-Lorentzian) line shapes must then also agree closely around
        # the shared resonance
        a = DebyeModel("A", 2.2, ((0.4, 0.15),))
        b = DebyeModel("B", 2.2, ((1.6, 1.0),))
        sol = match_profiles(a, b, (0.2, 2.0))
        ra = find_nu0(DopedLiquid(a, sol.ce_1), (0.2, 2.0), 1e-9)
        fwhm = 2.0 * ra.eps_imag_at_nu0 / ra.slope_B
        grid = np.linspace(sol.nu0 - fwhm, sol.nu0 + fwhm, 201)
        la = lineshape(DopedLiquid(a, sol.ce_1), grid).values
        lb = lineshape(DopedLiquid(b, sol.ce_2), grid).values
        dev = np.abs(la / la.max() - lb / lb.max())
        assert float(dev.max()) < 0.05
        assert float(dev.max()) == pytest.approx(0.00404, abs=0.002)

    def test_water_alcohol_pair_has_no_match(self, liquids):
        with pytest.raises(
            NoProfileMatchError,
            match=r"no profile-matched impostoron in range \[0\.2, 2\] THz",
        ):
            match_profiles(liquids["ipa"], liquids["water"], (0.2, 2.0))

    def test_empty_shared_bracket(self, liquids):
        tab = TabulatedModel(
            "narrow", np.array([1.0, 1.2]), np.array([3.0 + 0.2j, 3.0 + 0.2j])
        )
        with pytest.raises(DomainError, match="no shared validity"):
            match_profiles(liquids["ipa"], tab, (0.2, 0.9))

    def test_zero_derivative_step_rejected(self, liquids):
        with pytest.raises(DomainError, match="derivative step"):
            match_profiles(liquids["ipa"], liquids["eg"], h=0.0)


def test_profile_residual_consistent_with_direct_recomputation():
    a = DebyeModel("a", 2.2, ((1.0, 0.3),))
    b = DebyeModel("b", 2.2, ((25.0, 0.3),))
    sol = match_profiles(a, b, (0.2, 2.0))
    terms = []
    for liquid, ce in ((a, sol.ce_1), (b, sol.ce_2)):
        res = find_nu0(DopedLiquid(liquid, ce), (0.2, 2.0), 1e-9)
        eps2 = eps_imag_at_nu0(eval_neat(liquid, sol.nu0))
        terms.append(res.slope_B / eps2)
    # solver-independent recomputation: residual small relative to the terms
    assert abs(terms[0] - terms[1]) / abs(terms[0]) < 1e-5
