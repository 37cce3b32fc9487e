"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with `pytest -s`); the criteria
cover the resonance scenario, the algebraic inversion suites, matching,
line-shape quality, the extraction pipeline under noise, and the filter and
spectrum invariants.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from closed_forms import band_filtered_map, ce_imag_part, ce_real_part
from impostoron.cli import run
from impostoron.dielectric import DebyeModel
from impostoron.errors import NoProfileMatchError
from impostoron.matching import ce_for_nu0, match_profiles
from impostoron.mixing import (
    Concentration,
    DopedLiquid,
    cm_invert_concentration,
    cm_mix,
)
from impostoron.polaron import (
    eps_imag_at_nu0,
    find_nu0,
    lineshape,
    lorentz_lineshape,
)
from impostoron.signal import (
    FieldMap2D,
    StepModel,
    TimeTrace,
    add_noise,
    extract,
    gaussian_probe,
    peak_report,
    spectrum_of,
    synth_map,
    synth_oscillation,
)

SCENARIO_CE = {"ipa": 25.0, "eg": 30.0, "water": 40.0}
TAU = (np.arange(512) - 64) * 0.1
TGRID = (np.arange(64) - 32) * 0.1


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS")


def scenario_resonance(liquids, name):
    doped = DopedLiquid(
        liquids[name], Concentration.from_micromolar(SCENARIO_CE[name])
    )
    return find_nu0(doped, (0.1, 3.0), 1e-9)


def scenario_map(liquids, name):
    doped = DopedLiquid(
        liquids[name], Concentration.from_micromolar(SCENARIO_CE[name])
    )
    osc = synth_oscillation(doped, TAU)
    amp = float(np.max(np.abs(osc.values)))
    step = StepModel(amplitude=amp, rise_time=1.0, onset=0.0)
    return synth_map(doped, gaussian_probe(TGRID), step, TAU)


def test_criterion_1_scenario_resonances(tmp_path):
    with criterion(1, "reference liquids resonate at 0.7 +- 0.1 THz"):
        start = time.perf_counter()
        results = {}
        for name, ce in SCENARIO_CE.items():
            out = tmp_path / f"{name}.csv"
            code = run(
                ["nu0", "--liquid", f"{name}.liq", "--ce", repr(ce), "--out", str(out)]
            )
            assert code == 0
            for line in out.read_text().splitlines():
                if line.startswith("nu0_THz,"):
                    results[name] = float(line.split(",")[1])
        elapsed = time.perf_counter() - start
        for name, nu0 in results.items():
            assert abs(nu0 - 0.7) <= 0.1, (name, nu0)
        assert len(results) == 3
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_2_inverse_pair_suite():
    with criterion(2, "mixing/inversion identity and split-form oracles"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            neat = complex(rng.uniform(1.2, 80.0), rng.uniform(0.0, 40.0))
            ce = Concentration.from_micromolar(float(rng.uniform(0.1, 200.0)))
            nu = float(rng.uniform(0.1, 3.0))
            eps = cm_mix(neat, ce, nu)
            back = cm_invert_concentration(eps, neat, nu)
            assert abs(back.real - ce.mol_per_m3) <= 1e-10 * ce.mol_per_m3
            assert abs(back.imag) <= 1e-10 * ce.mol_per_m3

            eps2 = float(rng.uniform(0.0, 2.0))
            ref = cm_invert_concentration(1j * eps2, neat, nu)
            scale = max(abs(ref), 1e-30)
            assert abs(ce_real_part(eps2, neat, nu) - ref.real) <= 1e-12 * scale
            assert abs(ce_imag_part(eps2, neat, nu) - ref.imag) <= 1e-12 * scale
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_3_loss_consistency_suite():
    with criterion(3, "loss at the crossing satisfied to 1e-12"):
        rng = np.random.default_rng(8)
        count = 0
        while count < 100:
            neat = complex(rng.uniform(1.2, 80.0), rng.uniform(0.0, 3.0))
            r = neat.imag / abs(neat + 2.0) ** 2
            if r > 0.25:
                continue
            count += 1
            e2 = eps_imag_at_nu0(neat)
            assert abs(e2 / (e2 * e2 + 4.0) - r) <= 1e-12
            nu = float(rng.uniform(0.1, 3.0))
            ce = cm_invert_concentration(1j * e2, neat, nu)
            assert abs(ce.imag) <= 1e-12 * abs(ce.real)


def test_criterion_4_sqrt_concentration_scaling():
    with criterion(4, "dispersionless crossing scales as sqrt(ce)"):
        rng = np.random.default_rng(77)
        for _ in range(20):
            eps_inf = float(rng.uniform(1.5, 30.0))
            ce = float(rng.uniform(5.0, 60.0))
            model = DebyeModel("d", eps_inf, ())
            r1 = find_nu0(
                DopedLiquid(model, Concentration.from_micromolar(ce)),
                (0.05, 6.0),
                1e-9,
            )
            r4 = find_nu0(
                DopedLiquid(model, Concentration.from_micromolar(4.0 * ce)),
                (0.05, 6.0),
                1e-9,
            )
            assert abs(r4.nu0 / r1.nu0 - 2.0) <= 1e-5 * 2.0


def test_criterion_5_concentration_round_trip(liquids):
    with criterion(5, "ce_for_nu0 / find_nu0 round trip within 10*tol"):
        tol = 1e-6
        for name in ("ipa", "eg", "water"):
            for nu0 in np.linspace(0.3, 1.5, 20):
                ce = ce_for_nu0(liquids[name], float(nu0))
                res = find_nu0(DopedLiquid(liquids[name], ce), (0.1, 3.0), tol)
                assert abs(res.nu0 - nu0) <= 10.0 * tol, (name, nu0, res.nu0)


def test_criterion_6_profile_matching(liquids):
    with criterion(6, "impostoron pair found; water/alcohol refused"):
        a = DebyeModel("A", 2.2, ((0.4, 0.15),))
        b = DebyeModel("B", 2.2, ((1.6, 1.0),))
        sol = match_profiles(a, b, (0.2, 2.0))
        assert sol.profile_matched and not sol.degenerate
        assert sol.alternatives == ()
        assert abs(sol.profile_residual) < 1e-8

        ra = find_nu0(DopedLiquid(a, sol.ce_1), (0.2, 2.0), 1e-9)
        fwhm = 2.0 * ra.eps_imag_at_nu0 / ra.slope_B
        grid = np.linspace(sol.nu0 - fwhm, sol.nu0 + fwhm, 201)
        la = lineshape(DopedLiquid(a, sol.ce_1), grid).values
        lb = lineshape(DopedLiquid(b, sol.ce_2), grid).values
        assert float(np.max(np.abs(la / la.max() - lb / lb.max()))) < 0.05

        with pytest.raises(NoProfileMatchError):
            match_profiles(liquids["ipa"], liquids["water"], (0.2, 2.0))


def test_criterion_7_lorentz_quality(liquids):
    with criterion(7, "Lorentz approximation and width formula"):
        for name in SCENARIO_CE:
            res = scenario_resonance(liquids, name)
            doped = DopedLiquid(
                liquids[name], Concentration.from_micromolar(SCENARIO_CE[name])
            )
            e2, slope = res.eps_imag_at_nu0, res.slope_B
            half_width = e2 / slope
            grid = np.linspace(res.nu0 - half_width, res.nu0 + half_width, 101)
            exact = lineshape(doped, grid).values
            lor = lorentz_lineshape(res, grid).values
            dev = float(np.max(np.abs(lor - exact)) / np.max(exact))
            assert dev < 0.05, (name, dev)

            fwhm_formula = 2.0 * e2 / slope
            wide = np.linspace(res.nu0 - 3 * fwhm_formula, res.nu0 + 3 * fwhm_formula, 801)
            rep = peak_report(lineshape(doped, wide))
            assert abs(rep.fwhm - fwhm_formula) <= 0.03 * fwhm_formula, name


def test_criterion_8_extraction_pipeline(liquids):
    with criterion(8, "pipeline recovers nu0 within one bin, 20 dB Monte-Carlo"):
        start = time.perf_counter()
        maps, nu0s = {}, {}
        for name in SCENARIO_CE:
            nu0s[name] = scenario_resonance(liquids, name).nu0
            maps[name] = scenario_map(liquids, name)
            res = extract(maps[name])
            binw = float(res.spectrum.frequencies[1] - res.spectrum.frequencies[0])
            assert abs(res.peak.peak_frequency - nu0s[name]) <= binw, name

        names = list(SCENARIO_CE)
        hits = 0
        for seed in range(100):
            name = names[seed % 3]
            res = extract(add_noise(maps[name], 20.0, seed))
            binw = float(res.spectrum.frequencies[1] - res.spectrum.frequencies[0])
            hits += abs(res.peak.peak_frequency - nu0s[name]) <= binw
        elapsed = time.perf_counter() - start
        assert hits >= 95, f"{hits}/100"
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_criterion_9_water_damping(liquids):
    with criterion(9, "water oscillation dies in about 5 ps and is broadest"):
        doped = DopedLiquid(liquids["water"], Concentration.from_micromolar(40.0))
        s = synth_oscillation(doped, TAU).values
        # the cosine-sum synthesis is periodic in the grid length; restrict
        # the envelope search to the first half so the mirrored rise at the
        # window end cannot mask the physical decay
        half = TAU <= (TAU[-1] + TAU[1] - TAU[0]) / 2.0
        mag, t_half = np.abs(s[half]), TAU[half]
        above = np.nonzero(mag > mag.max() / np.e)[0]
        t_decay = float(t_half[above[-1]])
        assert 3.0 <= t_decay <= 7.0, t_decay

        widths = {
            name: extract(scenario_map(liquids, name)).peak.fwhm
            for name in SCENARIO_CE
        }
        assert widths["water"] > widths["ipa"], widths
        assert widths["water"] > widths["eg"], widths


def test_criterion_10_filter_and_spectrum_invariants(liquids):
    with criterion(10, "filter idempotence, passband identity, Parseval"):
        fmap = add_noise(scenario_map(liquids, "water"), 10.0, 3)
        once = band_filtered_map(fmap, 1.5)
        twice = band_filtered_map(once, 1.5)
        scale = float(np.max(np.abs(once.values)))
        assert float(np.max(np.abs(twice.values - once.values))) <= 1e-9 * scale

        dnu_tau = 1.0 / (TAU.size * 0.1)
        tone = np.cos(2 * np.pi * (26 * dnu_tau) * TAU)[:, None] * np.ones(
            TGRID.size
        )[None, :]
        m = FieldMap2D(t_grid=TGRID, tau_grid=TAU, values=tone)
        passed = band_filtered_map(m, 2.0)
        assert float(np.max(np.abs(passed.values - tone))) <= 1e-9

        rng = np.random.default_rng(11)
        for n in (300, 301):
            x = rng.normal(size=n)
            tr = TimeTrace(times=np.arange(n) * 0.07, values=x)
            amps = spectrum_of(tr).values
            w = np.cos(np.pi * np.arange(n) / (2 * n)) ** 2  # spectrum_of's half-Hann
            mid = amps[1:-1] if n % 2 == 0 else amps[1:]
            recon = (np.sum(w) ** 2 / n) * (
                amps[0] ** 2
                + 0.5 * np.sum(mid**2)
                + (amps[-1] ** 2 if n % 2 == 0 else 0.0)
            )
            energy = float(np.sum((x * w) ** 2))
            assert abs(recon - energy) <= 1e-9 * energy
