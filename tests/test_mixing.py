import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import ce_imag_part, ce_real_part
from impostoron.constants import CONSTANTS
from impostoron.dielectric import TabulatedModel, eval_neat
from impostoron.errors import DomainError, SingularityError
from impostoron.mixing import (
    Concentration,
    DopedLiquid,
    alpha_el,
    cm_invert_concentration,
    cm_mix,
)
from impostoron.matching import ce_for_nu0
from impostoron.polaron import find_nu0

mp.mp.dps = 40

# reference polarizability at 0.7 THz, computed independently at 40 digits:
# -e^2 / (eps0 * m * (2*pi*0.7e12)^2)
ALPHA_07 = -1.645232368244967e-22  # m^3


def mp_alpha(nu_thz: float) -> mp.mpf:
    om = 2 * mp.pi * mp.mpf(repr(nu_thz)) * mp.mpf("1e12")
    return -(
        mp.mpf("1.602176634e-19") ** 2
        / (mp.mpf("8.8541878128e-12") * mp.mpf("9.1093837015e-31") * om**2)
    )


def round_trip_bound(neat: complex, ce_mol: float, nu: float) -> float:
    """Largest |cm_invert_concentration(cm_mix(neat, ce), neat) - ce| rounding allows.

    With L_n = (neat - 1)/(neat + 2) and x = ce*N_A*alpha_el/3, mixing computes
    L = L_n + x and eps = (1 + 2L)/(1 - L); inversion computes
    L_e = (eps - 1)/(eps + 2) and ce = 3(L_e - L_n)/(N_A*alpha_el). L_n and
    alpha_el are the same bits on both sides, so their own errors cancel.
    With unit roundoff u and at most 9u for a complex division:
    - x and the final quotient carry 3u each and the difference L_e - L_n
      carries u, all relative to ce;
    - the sum L carries u|L|, and L_e's own evaluation 11u|L|;
    - eps carries 11u relative, which reaches L_e multiplied by
      |dL_e/deps| |eps| = |1 - L||1 + 2L|/3.
    An error e in L is an error e/|x| relative to ce.
    """
    u = np.finfo(float).eps / 2.0
    lf_neat = (neat - 1.0) / (neat + 2.0)
    x = ce_mol * CONSTANTS.avogadro * alpha_el(nu) / 3.0
    L = lf_neat + x
    in_L = 12.0 * abs(L) + 11.0 * abs(1.0 - L) * abs(1.0 + 2.0 * L) / 3.0
    return ce_mol * u * (7.0 + in_L / abs(x))


class TestAlphaEl:
    def test_reference_value(self):
        a = alpha_el(0.7)
        assert a.imag == 0.0
        assert a.real == pytest.approx(ALPHA_07, rel=1e-12)
        assert a.real == pytest.approx(float(mp_alpha(0.7)), rel=1e-13)

    def test_inverse_square_scaling(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            nu = float(rng.uniform(0.05, 5.0))
            k = float(rng.uniform(1.1, 10.0))
            assert alpha_el(k * nu).real * k**2 == pytest.approx(
                alpha_el(nu).real, rel=1e-12
            )

    def test_always_real_and_negative_without_damping(self):
        grid = np.linspace(0.05, 5.0, 200)
        a = alpha_el(grid)
        assert np.all(a.real < 0)
        assert np.all(a.imag == 0.0)

    def test_domain_errors(self):
        for bad in (0.0, -0.7, float("inf")):
            with pytest.raises(DomainError):
                alpha_el(bad)

    @pytest.mark.parametrize(
        "nu, shown", [(1e200, "1e+200"), (1e-200, "1e-200"), (1.7e308, "1.7e+308")]
    )
    def test_out_of_float_range_names_the_frequency(self, nu, shown):
        # (2 pi nu)**2 in rad/s overflows above about 2e141 THz and
        # vanishes below about 2e-167 THz; 2 pi nu itself overflows near
        # 1.7e308 THz, inside the same guard
        with pytest.raises(DomainError, match=re.escape(f"[{shown}, {shown}] THz")):
            alpha_el(nu)
        with pytest.raises(DomainError, match=re.escape(shown)):
            alpha_el(np.array([0.7, nu]))


class TestConcentration:
    def test_micromolar_round_trip(self):
        c = Concentration.from_micromolar(25.0)
        assert c.mol_per_m3 == pytest.approx(0.025, rel=1e-15)
        assert c.micromolar == pytest.approx(25.0, rel=1e-15)

    def test_rejects_negative_or_nonfinite(self):
        with pytest.raises(DomainError):
            Concentration(-1e-9)
        with pytest.raises(DomainError):
            Concentration(float("nan"))
        Concentration(0.0)  # zero doping is legal

    def test_overflowing_electron_count_rejected(self):
        # ce*N_A leaves the float range above about 3e287 uM
        with pytest.raises(DomainError, match=re.escape("got 1e+308 uM")):
            Concentration.from_micromolar(1e308)


class TestCmMix:
    def test_zero_concentration_is_identity(self):
        rng = np.random.default_rng(9)
        ce = Concentration(0.0)
        for _ in range(30):
            neat = complex(rng.uniform(1.0, 80.0), rng.uniform(0.0, 40.0))
            eps = cm_mix(neat, ce, 0.7)
            assert eps == pytest.approx(neat, rel=1e-12)

    def test_reference_point_against_mpmath(self):
        # 25 uM in a dispersionless eps = 2.449 host at 0.7 THz; the electron
        # term nearly cancels the local-field ratio against -1/2, leaving a
        # tiny real permittivity
        eps = cm_mix(2.449 + 0.0j, Concentration.from_micromolar(25.0), 0.7)
        L = (mp.mpf("2.449") - 1) / (mp.mpf("2.449") + 2) + mp.mpf(
            "0.025"
        ) * mp.mpf("6.02214076e23") * mp_alpha(0.7) / 3
        ref = (1 + 2 * L) / (1 - L)
        assert eps.real == pytest.approx(float(ref), rel=1e-10)
        assert eps.real == pytest.approx(5.256740074486678e-05, rel=1e-12)
        assert eps.imag == 0.0

    def test_vectorized_over_frequency(self):
        grid = np.array([0.4, 0.7, 1.3])
        ce = Concentration.from_micromolar(10.0)
        eps = cm_mix(2.5 + 0.1j, ce, grid)
        assert eps.shape == grid.shape
        for i, nu in enumerate(grid):
            assert eps[i] == cm_mix(2.5 + 0.1j, ce, float(nu))

    def test_real_part_strictly_decreasing_in_concentration(self):
        # lossless dispersionless host: doping only lowers eps'
        vals = [
            cm_mix(2.449 + 0.0j, Concentration.from_micromolar(c), 0.7).real
            for c in np.linspace(0.0, 24.0, 25)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_divergence_reported_with_location(self):
        # a (metallic) table value eps' < -2 pushes the local-field ratio
        # above 1, where doping can drive the mixing denominator to zero
        neat = -4.0 + 0.0j
        l_neat = (neat - 1.0) / (neat + 2.0)
        ce_sing = 3.0 * (1.0 - l_neat.real) / (CONSTANTS.avogadro * alpha_el(0.7).real)
        with pytest.raises(SingularityError, match=r"divergence at nu = 0\.7 THz"):
            cm_mix(neat, Concentration(ce_sing), 0.7)

    def test_overflowing_electron_term_names_frequency_and_concentration(self, liquids):
        # ce*N_A (6e300) and alpha_el (~1e257 m^3 at 1e-140 THz) are finite,
        # their product is not
        water = liquids["water"]
        ce = Concentration.from_micromolar(1e280)
        msg = r"electron term overflows at nu = 1e-140 THz, ce = 1e\+280 uM"
        with pytest.raises(DomainError, match=msg):
            cm_mix(eval_neat(water, 1e-140), ce, 1e-140)
        with pytest.raises(DomainError, match=msg):  # in the scan, before any slope
            find_nu0(DopedLiquid(water, ce), (1e-140, 3.0))
        # the slope is only taken at a crossing, where the electron term is
        # of order one, and stays finite at that frequency too
        at_crossing = ce_for_nu0(water, 1e-140)
        res = find_nu0(DopedLiquid(water, at_crossing), (0.5e-140, 2e-140), 1e-150)
        assert math.isfinite(res.slope_B) and res.slope_B > 0

    def test_local_field_pole_guarded(self):
        with pytest.raises(SingularityError, match="close to -2"):
            cm_mix(-2.0 + 0.0j, Concentration(0.01), 0.7)

    @pytest.mark.parametrize("neat", [complex("nan"), complex("inf"), np.array([3.0, math.nan])])
    def test_non_finite_neat_value_rejected(self, neat):
        with pytest.raises(DomainError, match="permittivity must be finite"):
            cm_mix(neat, Concentration(0.01), 0.5)

    def test_shapes_that_do_not_broadcast_rejected(self):
        with pytest.raises(DomainError, match=re.escape("shapes [(3,), (2,)] do not broadcast")):
            cm_mix(np.full(3, 3.0 + 1.0j), Concentration(0.01), np.array([0.5, 0.6]))


class TestInversion:
    def test_mix_invert_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            neat = complex(rng.uniform(1.2, 80.0), rng.uniform(0.0, 40.0))
            ce = Concentration.from_micromolar(float(rng.uniform(0.1, 200.0)))
            nu = float(rng.uniform(0.1, 3.0))
            eps = cm_mix(neat, ce, nu)
            back = cm_invert_concentration(eps, neat, nu)
            assert back.real == pytest.approx(ce.mol_per_m3, rel=1e-10)
            assert abs(back.imag) <= 1e-10 * ce.mol_per_m3

    # Passive neat liquids (Re >= 1.2, Im >= 0) have Re L_neat < 1, and
    # alpha_el < 0 only moves L = L_neat + x further from 1: |1 - L| >= 3/|neat + 2|
    # > 0.025 keeps the mixing divergence away, and |x| <= 7e3 over these ranges
    # keeps eps + 2 = 3/(1 - L) far above the local-field pole guard.
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        neat_re=st.floats(1.2, 100.0),
        neat_im=st.floats(0.0, 60.0),
        ce_um=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        nu=st.floats(0.05, 5.0),
    )
    def test_invert_undoes_mix(self, neat_re, neat_im, ce_um, nu):
        neat = complex(neat_re, neat_im)
        ce = Concentration.from_micromolar(ce_um)
        back = cm_invert_concentration(cm_mix(neat, ce, nu), neat, nu)
        bound = round_trip_bound(neat, ce.mol_per_m3, nu)
        assert abs(back.real - ce.mol_per_m3) <= bound
        assert abs(back.imag) <= bound

    def test_split_forms_match_complex_inversion(self):
        # the hand-expanded real/imaginary expressions must agree with the
        # complex-arithmetic route at purely imaginary doped permittivity
        rng = np.random.default_rng(22)
        for _ in range(300):
            neat = complex(rng.uniform(1.2, 80.0), rng.uniform(0.0, 40.0))
            eps2 = float(rng.uniform(0.0, 2.0))
            nu = float(rng.uniform(0.1, 3.0))
            ref = cm_invert_concentration(1j * eps2, neat, nu)
            scale = max(abs(ref), 1e-30)
            assert abs(ce_real_part(eps2, neat, nu) - ref.real) <= 1e-12 * scale
            assert abs(ce_imag_part(eps2, neat, nu) - ref.imag) <= 1e-12 * scale

    def test_split_forms_against_mpmath(self):
        neat = 3.7 + 0.9j
        eps2 = 0.31
        nu = 0.83
        a = mp_alpha(nu)
        L_eps = (1j * mp.mpf("0.31") - 1) / (1j * mp.mpf("0.31") + 2)
        L_neat = (mp.mpc(neat) - 1) / (mp.mpc(neat) + 2)
        ref = 3 * (L_eps - L_neat) / (mp.mpf("6.02214076e23") * a)
        assert ce_real_part(eps2, neat, nu) == pytest.approx(float(ref.real), rel=1e-12)
        assert ce_imag_part(eps2, neat, nu) == pytest.approx(float(ref.imag), rel=1e-12)

    def test_arrays_invert_element_by_element(self):
        eps, neat, nu = np.array([0.3j, 1.0 + 0.5j]), np.array([3.7 + 0.9j, 5.0 + 2.0j]), 0.83
        back = cm_invert_concentration(eps, neat, nu)
        assert back.shape == (2,)
        assert back.tolist() == [cm_invert_concentration(e, n, nu) for e, n in zip(eps, neat)]

    @pytest.mark.parametrize(
        "eps, neat, nu, message",
        [
            (complex("inf"), 3.0 + 1.0j, 0.7, "permittivity must be finite"),
            (0.3j, complex("nan"), 0.7, "permittivity must be finite"),
            (np.full(2, 0.3j), np.full(3, 3.0 + 1.0j), 0.7, "do not broadcast"),
        ],
    )
    def test_bad_operands_rejected(self, eps, neat, nu, message):
        with pytest.raises(DomainError, match=message):
            cm_invert_concentration(eps, neat, nu)

    def test_imaginary_residual_flags_unreachable_pairs(self):
        # a doped value with *less* loss than the neat host cannot come from
        # real-concentration doping; the inversion shows that as Im != 0
        neat = 5.0 + 2.0j
        back = cm_invert_concentration(5.0 + 0.5j, neat, 0.7)
        assert abs(back.imag) > 1e-6


def test_unreachable_frequency_needs_exotic_host():
    # sanity for the matching module's screening: ordinary passive hosts give
    # a positive closed-form concentration at a zero crossing
    host = TabulatedModel(
        "metallic", np.array([0.1, 3.0]), np.array([-0.5 + 0.1j, -0.5 + 0.1j])
    )
    from impostoron.dielectric import eval_neat
    from impostoron.polaron import eps_imag_at_nu0

    neat = eval_neat(host, 0.7)
    eps2 = eps_imag_at_nu0(neat)
    assert cm_invert_concentration(1j * eps2, neat, 0.7).real < 0
