"""find_nu0 against the real roots of the crossing polynomial of a Debye liquid.

For a Debye liquid eps'(nu) = P(nu)/Q(nu) with polynomials P and Q > 0
(closed_forms.crossing_polynomials), so the real roots of P are every zero
crossing of eps', pairs closer than a scan cell included. mpmath's polyroots
finds them at 50 digits; the package's float evaluation is held to bounds
derived from tol and unit roundoff.
"""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import crossing_polynomials
from impostoron.constants import CONSTANTS
from impostoron.dielectric import DebyeModel
from impostoron.errors import NoResonanceError
from impostoron.mixing import Concentration, DopedLiquid, alpha_el
from impostoron.polaron import SCAN_POINTS, find_nu0

BRACKET = (0.1, 3.0)
U = np.finfo(float).eps / 2.0


def rounding_bounds(model, ce_mol, nu):
    """(E, S): bounds on the float error of eps(nu) and of slope_B at nu.

    Carried to first order through eval_neat, _local_field and _mix (E), and
    through _neat_slope, the local-field sums find_nu0 takes and _mix_slope
    (S), with unit roundoff u: a Debye term of eval_neat is within 10u of its
    magnitude (x takes two roundings, the quotient 9u at most), so eps_neat
    is within 10u of S_n = eps_inf + sum |term|; a complex division adds 9u,
    a product or sum u, and alpha_el with the scaling by ce*N_A/3 17u. An
    error dL in L reaches eps as 3 dL/|1 - L|**2, and an error de in eps
    reaches L = lf(eps) as |1 - L|**2 de/3. A slope term is within 32u of its
    magnitude (w = 1/(1 - i x) 12u, w*w and the factor 20u more). The sums are
    doubled for the neglected higher orders.
    """
    neat_terms = [d / (1.0 - 2j * np.pi * t * nu) for d, t in model.terms]
    slope_terms = [2j * np.pi * t * d / (1.0 - 2j * np.pi * t * nu) ** 2 for d, t in model.terms]
    neat = model.eps_inf + sum(neat_terms)
    neat_slope = sum(slope_terms)
    s_n = model.eps_inf + sum(abs(v) for v in neat_terms)
    lf = (neat - 1.0) / (neat + 2.0)
    x = ce_mol * CONSTANTS.avogadro * alpha_el(nu).real / 3.0
    L = lf + x
    eps = (1.0 + 2.0 * L) / (1.0 - L)
    d_lf = 30.0 * U * s_n / abs(neat + 2.0) ** 2 + 11.0 * U * abs(lf)
    d_L = d_lf + 17.0 * U * abs(x) + U * abs(L)
    e = 2.0 * (3.0 * d_L / abs(1.0 - L) ** 2 + 12.0 * U * abs(eps))
    # the slope's L is lf(eps) of the mixed eps, and its x = L - lf_neat
    d_L_eps = abs(1.0 - L) ** 2 * e / 3.0 + 11.0 * U * abs(L)
    d_x = d_L_eps + d_lf + U * abs(x)
    dL_dnu = neat_slope * (1.0 - lf) ** 2 / 3.0 - 2.0 * x / nu
    d_slope_L = (
        33.0 * U * sum(abs(v) for v in slope_terms) * abs(1.0 - lf) ** 2 / 3.0
        + abs(neat_slope) * 2.0 * abs(1.0 - lf) * d_lf / 3.0
        + 6.0 * U * abs(neat_slope) * abs(1.0 - lf) ** 2 / 3.0
        + 2.0 * d_x / nu
        + 3.0 * U * abs(2.0 * x / nu)
        + U * abs(dL_dnu)
    )
    slope = 3.0 * abs(dL_dnu) / abs(1.0 - L) ** 2
    s = 2.0 * (
        3.0 * d_slope_L / abs(1.0 - L) ** 2
        + slope * 2.0 * d_L_eps / abs(1.0 - L)
        + 12.0 * U * slope
    )
    return e, s


def polynomial_roots(model, ce_mol):
    """(P, Q, the real roots of P above 0 in increasing order) at 50 digits."""
    with mp.workdps(50):
        p, q = crossing_polynomials(model, ce_mol)
        roots = mp.polyroots(p[::-1], maxsteps=400, extraprec=400)
    real = sorted(float(mp.re(r)) for r in roots if abs(mp.im(r)) < 1e-30 and mp.re(r) > 0)
    return p, q, real


def check_find_nu0(model, micromolar, tol):
    ce = Concentration.from_micromolar(micromolar)
    p, q, real = polynomial_roots(model, ce.mol_per_m3)

    def poly(nu, derivative=0):
        with mp.workdps(50):
            return mp.polyval(p[::-1], mp.mpf(nu), derivative=bool(derivative))

    def reach(r):
        # how far a reported crossing may sit from the true root r
        e, _ = rounding_bounds(model, ce.mol_per_m3, r)
        slope = float(poly(r, 1)[1]) / float(mp.polyval(q[::-1], mp.mpf(r)))
        return max(tol, 2.0 * np.spacing(r)) / 2.0 + 2.0 * e / abs(slope)

    lo, hi = BRACKET
    cell = (hi - lo) / (SCAN_POINTS - 1)
    expected = [
        r
        for i, r in enumerate(real)
        if lo + reach(r) < r < hi - reach(r)
        and poly(r, 1)[1] > 0
        and all(abs(r - other) > cell for j, other in enumerate(real) if j != i)
    ]
    try:
        res = find_nu0(DopedLiquid(model, ce), BRACKET, tol)
    except NoResonanceError:
        assert expected == []
        return
    reported = [res.nu0, *res.alternatives]
    for nu in reported:
        r = min(real, key=lambda v: abs(v - nu))
        assert abs(nu - r) <= reach(r), (nu, r)
        assert poly(r, 1)[1] > 0, (nu, r)
    for r in expected:
        assert min(abs(nu - r) for nu in reported) <= reach(r), (r, reported)

    # slope_B is d(P/Q)/dnu = (P'Q - PQ')/Q**2 at nu0: P'/Q on the root
    with mp.workdps(50):
        pv, dp = poly(res.nu0, 1)
        qv, dq = mp.polyval(q[::-1], mp.mpf(res.nu0), derivative=True)
        ref = float((dp * qv - pv * dq) / qv**2)
    assert abs(res.slope_B - ref) <= rounding_bounds(model, ce.mol_per_m3, res.nu0)[1]


@pytest.mark.parametrize("name", ["ipa", "eg", "water", "dispersionless"])
@pytest.mark.parametrize("micromolar", [15.0, 40.0, 120.0])
def test_reference_liquids_against_crossing_polynomial(liquids, name, micromolar):
    check_find_nu0(liquids[name], micromolar, 1e-12)


@st.composite
def debye_models(draw):
    n_terms = draw(st.integers(1, 3))
    terms = tuple(
        (draw(st.floats(0.1, 80.0)), 10.0 ** draw(st.floats(-1.5, 2.6)))
        for _ in range(n_terms)
    )
    return DebyeModel("random", draw(st.floats(1.0, 6.0)), terms)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    model=debye_models(),
    micromolar=st.floats(5.0, 200.0),
    tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
)
def test_find_nu0_against_crossing_polynomial(model, micromolar, tol):
    check_find_nu0(model, micromolar, tol)
