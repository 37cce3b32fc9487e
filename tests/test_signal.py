import io
import math
import re
import warnings

import numpy as np
import pytest
from closed_forms import dense_oscillation

from impostoron.dielectric import DebyeModel
from impostoron.errors import (
    DegenerateLineshapeError,
    DomainError,
    EdgePeakError,
    GridError,
    NoSignalError,
    UnboundedWidthError,
)
from impostoron.matching import ce_for_nu0
from impostoron.mixing import Concentration, DopedLiquid
from impostoron.polaron import Spectrum, lineshape
from impostoron.signal import (
    DEFAULT_BAND,
    FieldMap2D,
    StepModel,
    TimeTrace,
    add_noise,
    cut_at_max,
    extract,
    fourier_filter_2d,
    gaussian_probe,
    peak_report,
    read_map_csv,
    read_spectrum_csv,
    read_trace_csv,
    remove_step,
    spectrum_of,
    synth_map,
    synth_oscillation,
    write_map_csv,
    write_spectrum_csv,
    write_trace_csv,
)

TAU = (np.arange(512) - 64) * 0.1  # 512-point delay grid spanning -6.4 .. 44.7 ps
TGRID = (np.arange(64) - 32) * 0.1  # probe-time grid including t = 0


@pytest.fixture(scope="module")
def doped_water(liquids):
    return DopedLiquid(liquids["water"], ce_for_nu0(liquids["water"], 0.7))


def synthesis_error_bound(tau, band=DEFAULT_BAND):
    """Largest |synth_oscillation - dense_oscillation| that rounding and grid jitter allow.

    Both sums have m in-band terms, each with weight dnu and |A| <= 1. A term's
    phase 2 pi nu tau is rounded a few times in either path (2 pi, nu = k*dnu,
    the products, the FFT's n*dnu*dtau = 1 and its twiddles): under 8 eps of
    2 pi nu_max T, with T the largest |tau| or span. The FFT evaluates at
    tau_0 + j*dtau, so a grid that deviates from it by delta moves each phase by
    up to 2 pi nu_max delta more. Accumulation adds m eps for the dense sum and
    5 eps per FFT stage, log2(n) stages.
    """
    eps = np.finfo(float).eps
    n = tau.size
    dtau = (tau[-1] - tau[0]) / (n - 1)
    dnu = 1.0 / (n * dtau)
    freqs = np.arange(n // 2 + 1) * dnu
    freqs = freqs[(freqs >= band[0]) & (freqs <= band[1])]
    m = freqs.size
    delta = np.max(np.abs(tau - (tau[0] + np.arange(n) * dtau)))
    span = max(np.max(np.abs(tau)), tau[-1] - tau[0])
    phase = 2.0 * math.pi * freqs[-1] * (delta + 8.0 * eps * span)
    return dnu * m * (phase + eps * (m + 5.0 * math.log2(n) + 2.0))


class TestTimeTrace:
    def test_dt_property_and_frozen_arrays(self):
        tr = TimeTrace(times=np.arange(20) * 0.25, values=np.zeros(20))
        assert tr.dt == pytest.approx(0.25, rel=1e-15)
        with pytest.raises((ValueError, AttributeError)):
            tr.values[0] = 1.0

    @pytest.mark.parametrize(
        "times, values, msg",
        [
            (np.arange(8) * 0.1, np.zeros(8), "at least 16 samples"),
            (np.arange(20) ** 1.5, np.zeros(20), "not uniform"),
            (-np.arange(20.0), np.zeros(20), "strictly increasing"),
            (np.arange(20) * 0.1, np.zeros(19), "equal length"),
            (np.arange(20) * 0.1, np.full(20, np.nan), "must be finite"),
            (1.7e308 * (2 * np.arange(16) / 15 - 1), np.zeros(16), "span exceeds"),
            (np.zeros((4, 5)), np.zeros((4, 5)), "at least 16 samples"),
            (np.r_[np.arange(19.0), 18.0], np.zeros(20), "strictly increasing"),
            (np.r_[np.nan, np.arange(19.0)], np.zeros(20), "finite and strictly increasing"),
            (np.r_[np.arange(19.0), np.inf], np.zeros(20), "finite and strictly increasing"),
            (np.r_[-np.inf, np.arange(19.0)], np.zeros(20), "finite and strictly increasing"),
            # one sample off by 3e-9 of the step: beyond _GRID_RTOL, far above rounding
            (np.arange(20) * 0.1 + np.where(np.arange(20) == 10, 3e-10, 0.0),
             np.zeros(20), "not uniform"),
            # near 1.5e6 ps, one sample off by 1e-8 ps: ~40 ulp, beyond the rounding floor
            ((np.arange(2**24 - 16, 2**24) - 2**21) * 0.1 + np.where(np.arange(16) == 8, 1e-8, 0.0),
             np.zeros(16), "not uniform"),
        ],
    )
    def test_validation(self, times, values, msg):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=msg):
                TimeTrace(times=times, values=values)

    def test_grid_uniform_up_to_the_rounding_of_its_values(self):
        # the last delays of `synth --n 16777216`: near 1.5e6 ps a spacing
        # of 0.1 ps carries rounding above 1e-9 of it, yet the grid is exact
        n = 16777216
        times = (np.arange(n - 16, n) - n // 8) * 0.1
        assert TimeTrace(times=times, values=np.zeros(16)).dt == (times[-1] - times[0]) / 15


class TestFieldMap2D:
    def test_shape_mismatch_reported(self):
        with pytest.raises(DomainError, match=r"equal length: shape \(64, 512\), need \(512, 64\)"):
            FieldMap2D(t_grid=TGRID, tau_grid=TAU, values=np.zeros((64, 512)))

    @pytest.mark.parametrize("axis", ["t_grid", "tau_grid"])
    @pytest.mark.parametrize(
        "grid, msg",
        [
            (np.arange(8) * 0.1, "at least 16 samples"),
            (np.arange(20) ** 1.5, "not uniform"),
            (-np.arange(20.0), "strictly increasing"),
            (np.r_[np.arange(19.0), np.nan], "finite and strictly increasing"),
            (np.r_[-np.inf, np.arange(19.0)], "finite and strictly increasing"),
            (1.7e308 * (2 * np.arange(16) / 15 - 1), "span exceeds"),
        ],
    )
    def test_bad_grid_rejected(self, axis, grid, msg):
        grids = {"t_grid": TGRID, "tau_grid": TAU, axis: grid}
        shape = (np.size(grids["tau_grid"]), np.size(grids["t_grid"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=msg):
                FieldMap2D(**grids, values=np.zeros(shape))

    def test_dt_dtau(self):
        m = FieldMap2D(t_grid=TGRID, tau_grid=TAU, values=np.zeros((512, 64)))
        assert m.dt == pytest.approx(0.1, rel=1e-12)
        assert m.dtau == pytest.approx(0.1, rel=1e-12)


class TestStepModel:
    def test_evaluate(self):
        s = StepModel(amplitude=2.0, rise_time=0.5, onset=1.0)
        tau = np.array([-1.0, 0.99, 1.0, 1.5, 50.0])
        out = s.evaluate(tau)
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == 0.0  # rise starts from zero at the onset
        assert out[3] == pytest.approx(2.0 * (1.0 - np.exp(-1.0)), rel=1e-12)
        assert out[4] == pytest.approx(2.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError, match="rise time"):
            StepModel(amplitude=1.0, rise_time=0.0, onset=0.0)
        with pytest.raises(DomainError, match="finite"):
            StepModel(amplitude=float("nan"), rise_time=1.0, onset=0.0)


class TestSynthOscillation:
    def test_causal_and_deterministic(self, doped_water):
        tr = synth_oscillation(doped_water, TAU)
        assert np.all(tr.values[TAU < 0] == 0.0)
        assert np.max(np.abs(tr.values)) > 0
        tr2 = synth_oscillation(doped_water, TAU)
        np.testing.assert_array_equal(tr.values, tr2.values)

    def test_nyquist_guard(self, doped_water):
        with pytest.raises(GridError, match="Nyquist"):
            synth_oscillation(doped_water, np.arange(32) * 0.3)

    def test_band_without_bins(self, doped_water):
        with pytest.raises(GridError, match="no spectral bins"):
            synth_oscillation(doped_water, np.arange(20) * 0.01)

    @pytest.mark.parametrize("dtau", [1e-320, 1e-311])
    def test_band_without_bins_at_a_step_near_the_float_minimum(self, doped_water, dtau):
        # the bin step 1/(n*dtau) is inf at 1e-320 ps; at 1e-311 ps it is
        # finite but the upper bins overflow. Neither may warn.
        with pytest.raises(GridError, match="no spectral bins of the 1024-sample"):
            synth_oscillation(doped_water, (np.arange(1024) - 128) * dtau)

    @pytest.mark.parametrize("band", [(0.0, 2.0), (2.0, 1.0)])
    def test_bad_band(self, doped_water, band):
        with pytest.raises(DomainError, match="bad synthesis band"):
            synth_oscillation(doped_water, TAU, band)

    def test_lossless_medium_rejected(self):
        doped = DopedLiquid(
            DebyeModel("d", 2.449, ()), Concentration.from_micromolar(25.0)
        )
        with pytest.raises(DegenerateLineshapeError, match="lossless"):
            synth_oscillation(doped, TAU)

    def test_spectrum_reproduces_lineshape_on_aligned_grid(self, doped_water):
        # analysis on the synthesis grid itself (starting at zero delay, no
        # window): every synthesized cosine sits exactly on an FFT bin, so
        # the amplitude readback equals the banded line shape
        n, dtau = 1024, 0.1
        tau = np.arange(n) * dtau
        tr = synth_oscillation(doped_water, tau)
        readback = np.abs(np.fft.rfft(tr.values)) * 2 / n
        dnu = 1.0 / (n * dtau)
        freqs = np.arange(n // 2 + 1) * dnu
        sel = (freqs >= 0.2) & (freqs <= 2.0)
        ls = lineshape(doped_water, freqs[sel]).values
        expected = ls / ls.max() * dnu
        np.testing.assert_allclose(readback[sel], expected, atol=1e-12)
        # and nothing outside the band
        assert np.max(readback[~sel]) < 1e-12

    @pytest.mark.parametrize("stem", ["water", "ipa", "eg"])
    @pytest.mark.parametrize(
        "n, dtau, jitter",
        [
            (n, dtau, 0.0)
            for n in (16, 17, 1023, 1024, 4096)
            for dtau in (0.05, 0.1, 0.2)
        ]
        + [(1024, 0.1, 0.25e-9)],
    )
    def test_matches_dense_cosine_sum(self, liquids, stem, n, dtau, jitter):
        # the delay grid `synth` lays out; jitter moves each sample by up to
        # jitter*dtau, so every spacing stays within _GRID_RTOL = 1e-9 of dtau,
        # the tolerance where it exceeds the rounding of the grid's values
        rng = np.random.default_rng(n)
        tau = (np.arange(n) - n // 8) * dtau + rng.uniform(-jitter, jitter, n) * dtau
        doped = DopedLiquid(liquids[stem], Concentration.from_micromolar(40.0))
        if n * dtau <= 1.0:  # 16 or 17 delays of 0.05 ps hold one in-band bin
            with pytest.raises(GridError, match=f"only one spectral bin of the {n}-sample"):
                synth_oscillation(doped, tau)
            return
        got = synth_oscillation(doped, tau).values
        err = np.max(np.abs(got - dense_oscillation(doped, tau)))
        assert err <= synthesis_error_bound(tau)


class TestSynthMap:
    def test_separable_construction(self, doped_water):
        probe = gaussian_probe(TGRID)
        step = StepModel(amplitude=0.3, rise_time=1.0, onset=0.0)
        fmap = synth_map(doped_water, probe, step, TAU)
        osc = synth_oscillation(doped_water, TAU).values
        expected = (step.evaluate(TAU) + osc)[:, None] * probe.values[None, :]
        np.testing.assert_array_equal(fmap.values, expected)
        np.testing.assert_array_equal(fmap.t_grid, probe.times)
        np.testing.assert_array_equal(fmap.tau_grid, TAU)


class TestGaussianProbe:
    def test_shape(self):
        p = gaussian_probe(TGRID)
        assert p.values[32] == pytest.approx(1.0, rel=1e-12)  # t = 0
        env = np.exp(-(TGRID**2) / (2 * 0.5**2))
        assert np.all(np.abs(p.values) <= env + 1e-12)


class TestAddNoise:
    def test_deterministic_per_seed(self, doped_water):
        tr = synth_oscillation(doped_water, TAU)
        a = add_noise(tr, 20.0, 5)
        b = add_noise(tr, 20.0, 5)
        c = add_noise(tr, 20.0, 6)
        np.testing.assert_array_equal(a.values, b.values)
        assert np.any(a.values != c.values)

    def test_noise_level_matches_snr(self):
        rng_vals = np.sin(np.arange(32768) * 0.05)
        tr = TimeTrace(times=np.arange(32768) * 0.01, values=rng_vals)
        noisy = add_noise(tr, 20.0, 0)
        ratio = np.std(noisy.values - tr.values) / np.sqrt(np.mean(tr.values**2))
        assert 0.09 < ratio < 0.11  # -20 dB is a factor of 10 in amplitude

    def test_map_noise_keeps_type(self):
        m = FieldMap2D(t_grid=TGRID, tau_grid=TAU, values=np.ones((512, 64)))
        out = add_noise(m, 30.0, 1)
        assert isinstance(out, FieldMap2D)
        assert out.values.shape == (512, 64)

    def test_zero_signal_rejected(self):
        tr = TimeTrace(times=np.arange(32) * 0.1, values=np.zeros(32))
        with pytest.raises(DomainError, match="all-zero"):
            add_noise(tr, 20.0, 0)

    def test_negative_seed_rejected(self):
        tr = TimeTrace(times=np.arange(32) * 0.1, values=np.ones(32))
        for seed in (-1, np.int64(-7)):
            with pytest.raises(DomainError, match=f"noise seed must be >= 0, got {seed}"):
                add_noise(tr, 20.0, seed)

    @pytest.mark.parametrize("seed", [1.5, "3", None])
    def test_non_integer_seed_rejected(self, seed):
        tr = TimeTrace(times=np.arange(32) * 0.1, values=np.ones(32))
        with pytest.raises(DomainError, match=re.escape(f"must be an integer, got {seed!r}")):
            add_noise(tr, 20.0, seed)

    @pytest.mark.parametrize("snr_db", [-1e4, -1e308, float("-inf"), float("nan")])
    def test_overflowing_noise_level_rejected(self, snr_db):
        # 10 ** (-snr_db / 20) exceeds the float range below about -6165 dB,
        # and is not a number for a NaN SNR
        tr = TimeTrace(times=np.arange(32) * 0.1, values=np.ones(32))
        with pytest.raises(DomainError, match=re.escape(f"SNR {snr_db:g} dB is out of range")):
            add_noise(tr, snr_db, 0)


class TestFourierFilter2D:
    def test_idempotent(self, doped_water):
        probe = gaussian_probe(TGRID)
        step = StepModel(amplitude=0.3, rise_time=1.0, onset=0.0)
        fmap = add_noise(synth_map(doped_water, probe, step, TAU), 10.0, 3)
        f1 = fourier_filter_2d(fmap, 1.5)
        f2 = fourier_filter_2d(f1, 1.5)
        np.testing.assert_allclose(
            f2.values, f1.values, atol=1e-12 * np.max(np.abs(f1.values))
        )

    def test_passband_tone_untouched(self):
        dnu_tau = 1.0 / (512 * 0.1)
        f_lo = 26 * dnu_tau  # on a delay-axis bin, well inside the band
        vals = np.cos(2 * np.pi * f_lo * TAU)[:, None] * np.ones(64)[None, :]
        out = fourier_filter_2d(
            FieldMap2D(t_grid=TGRID, tau_grid=TAU, values=vals), 2.0
        )
        np.testing.assert_allclose(out.values, vals, atol=1e-12)

    def test_stopband_tone_removed(self):
        dnu_tau = 1.0 / (512 * 0.1)
        f_hi = 154 * dnu_tau  # ~3 THz, on a bin, outside the 2 THz radius
        vals = np.cos(2 * np.pi * f_hi * TAU)[:, None] * np.ones(64)[None, :]
        out = fourier_filter_2d(
            FieldMap2D(t_grid=TGRID, tau_grid=TAU, values=vals), 2.0
        )
        assert np.max(np.abs(out.values)) < 1e-12

    def test_white_noise_energy_reduced_to_kept_fraction(self):
        rng = np.random.default_rng(7)
        m = FieldMap2D(
            t_grid=TGRID, tau_grid=TAU, values=rng.normal(size=(512, 64))
        )
        out = fourier_filter_2d(m, 1.0)
        f_t = np.fft.fftfreq(64, d=m.dt)
        f_tau = np.fft.fftfreq(512, d=m.dtau)
        frac = np.mean(np.sqrt(f_tau[:, None] ** 2 + f_t[None, :] ** 2) <= 1.0)
        ratio = np.var(out.values) / np.var(m.values)
        assert 0.8 * frac < ratio < 1.2 * frac

    @pytest.mark.parametrize("bandwidth", [4.0, math.inf])
    def test_delay_step_whose_frequencies_overflow_when_squared(self, bandwidth):
        # every non-zero delay frequency of a 1e-160 ps step squares past the
        # float range, and of a 1e-100 ps step lies far above any finite
        # bandwidth: both grids give the same mask, so the same map
        values = np.random.default_rng(3).normal(size=(16, 16))
        t = np.arange(16) * 0.05
        out = [
            fourier_filter_2d(
                FieldMap2D(t_grid=t, tau_grid=np.arange(16) * dtau, values=values), bandwidth
            ).values
            for dtau in (1e-160, 1e-100)
        ]
        np.testing.assert_array_equal(out[0], out[1])

    @pytest.mark.parametrize("bandwidth", [4.0, math.inf])
    @pytest.mark.parametrize("tiny", [1e-310, 4e-310])
    @pytest.mark.parametrize("axis", ["tau_grid", "t_grid"])
    def test_step_whose_bin_frequencies_overflow(self, axis, tiny, bandwidth):
        # 1/(16 * 1e-310 ps) is inf, so DC would be 0*inf: it must stay an
        # exact 0 without an "invalid value" warning; 1/(16 * 4e-310 ps) is
        # finite but twice it is not. The map must be that of a 1e-100 ps
        # step, every non-zero frequency of that axis above the bandwidth
        values = np.random.default_rng(3).normal(size=(16, 16))
        out = [
            fourier_filter_2d(
                FieldMap2D(
                    **{"t_grid": np.arange(16) * 0.05, "tau_grid": np.arange(16) * 0.05,
                       axis: np.arange(16) * step},
                    values=values,
                ),
                bandwidth,
            ).values
            for step in (tiny, 1e-100)
        ]
        np.testing.assert_array_equal(out[0], out[1])

    def test_bad_bandwidth(self):
        m = FieldMap2D(t_grid=TGRID, tau_grid=TAU, values=np.ones((512, 64)))
        for bandwidth in (0.0, float("nan")):
            with pytest.raises(DomainError, match="bandwidth must be positive"):
                fourier_filter_2d(m, bandwidth)


class TestCutAtMax:
    def test_picks_probe_maximum_column(self, doped_water):
        probe = gaussian_probe(TGRID)
        step = StepModel(amplitude=0.3, rise_time=1.0, onset=0.0)
        fmap = synth_map(doped_water, probe, step, TAU)
        tr = cut_at_max(fmap)
        j = int(np.argmax(np.abs(probe.values)))
        np.testing.assert_array_equal(tr.values, fmap.values[:, j])
        np.testing.assert_array_equal(tr.times, TAU)

    def test_tie_breaks_toward_smaller_time(self):
        probe_vals = np.zeros(64)
        probe_vals[20] = 1.0
        probe_vals[40] = 1.0  # equal maxima
        vals = np.linspace(0.1, 1.0, 512)[:, None] * probe_vals[None, :]
        tr = cut_at_max(FieldMap2D(t_grid=TGRID, tau_grid=TAU, values=vals))
        np.testing.assert_array_equal(tr.values, vals[:, 20])

    def test_all_zero_map_rejected(self):
        m = FieldMap2D(t_grid=TGRID, tau_grid=TAU, values=np.zeros((512, 64)))
        with pytest.raises(NoSignalError, match="all-zero"):
            cut_at_max(m)

    def test_survives_noise(self, doped_water):
        # the probe-max column should be found reliably at 20 dB SNR after
        # the standard 2D filter
        probe = gaussian_probe(TGRID)
        osc = synth_oscillation(doped_water, TAU).values
        step = StepModel(
            amplitude=float(np.max(np.abs(osc))), rise_time=1.0, onset=0.0
        )
        fmap = synth_map(doped_water, probe, step, TAU)
        true_col = int(np.argmax(np.abs(probe.values)))
        hits = 0
        for seed in range(50):
            filtered = fourier_filter_2d(add_noise(fmap, 20.0, seed))
            col = int(np.argmax(np.max(np.abs(filtered.values), axis=0)))
            hits += abs(col - true_col) <= 1
        assert hits >= 45


class TestRemoveStep:
    def test_pure_step_removed_completely(self):
        step = StepModel(amplitude=0.8, rise_time=1.1, onset=0.0)
        tr = TimeTrace(times=TAU, values=step.evaluate(TAU))
        osc, fit = remove_step(tr)
        assert np.max(np.abs(osc.values)) < 1e-6
        assert fit.amplitude == pytest.approx(0.8, rel=1e-6)
        assert fit.rise_time == pytest.approx(1.1, rel=1e-5)
        assert abs(fit.onset) < 1e-6

    @pytest.mark.parametrize("k", [0.05, 0.2])
    def test_oscillation_leaks_under_one_percent(self, doped_water, k):
        step = StepModel(amplitude=0.8, rise_time=1.1, onset=0.0)
        osc_true = k * synth_oscillation(doped_water, TAU).values
        tr = TimeTrace(times=TAU, values=step.evaluate(TAU) + osc_true)
        rec, fit = remove_step(tr)
        leak = np.max(np.abs(rec.values - osc_true)) / step.amplitude
        assert leak < 0.01
        assert fit.amplitude == pytest.approx(0.8, rel=0.01)

    def test_zero_trace_short_circuit(self):
        tr = TimeTrace(times=TAU, values=np.zeros(TAU.size))
        osc, fit = remove_step(tr)
        assert np.all(osc.values == 0.0)
        assert (fit.amplitude, fit.rise_time, fit.onset) == (0.0, 1.0, 0.0)

    def test_requires_delays_on_both_sides_of_zero(self):
        tr = TimeTrace(times=np.arange(32) * 0.1 + 1.0, values=np.ones(32))
        with pytest.raises(DomainError, match="before and after zero"):
            remove_step(tr)

    def test_bad_band_edge(self):
        tr = TimeTrace(times=TAU, values=np.ones(TAU.size))
        for band_lo in (0.0, float("nan")):
            with pytest.raises(DomainError, match="band lower edge must be positive"):
                remove_step(tr, band_lo=band_lo)

    def test_span_under_the_start_rise(self):
        # the 1 ps start rise lies above this 0.62 ps span and is clipped to it
        tau = (np.arange(32) - 8) * 0.02
        step = StepModel(amplitude=0.8, rise_time=0.1, onset=0.0)
        _, fit = remove_step(TimeTrace(times=tau, values=step.evaluate(tau)))
        assert 1e-3 <= fit.rise_time <= tau[-1] - tau[0]

    def test_span_under_the_shortest_rise(self):
        tau = (np.arange(32) - 8) * 2e-5
        tr = TimeTrace(times=tau, values=np.where(tau >= 0, 1.0, 0.0))
        with pytest.raises(DomainError, match=r"delay span 0\.00062 ps is below"):
            remove_step(tr)


class TestSpectrumOf:
    def test_bin_cosine_exact_without_window(self):
        # the rectangular readback of a cosine on bin k of spectrum_of's grid
        n, dt = 256, 0.05
        t = np.arange(n) * dt
        k, amp = 10, 1.3
        tr = TimeTrace(times=t, values=amp * np.cos(2 * np.pi * (k / (n * dt)) * t))
        readback = np.abs(np.fft.rfft(tr.values)) * 2 / n
        assert spectrum_of(tr).frequencies[k] == k / (n * dt)
        assert readback[k] == pytest.approx(amp, rel=1e-12)
        assert np.max(np.delete(readback, k)) < 1e-12

    def test_bin_cosine_with_hann(self):
        n, dt = 256, 0.05
        t = np.arange(n) * dt
        k, amp = 10, 1.3
        tr = TimeTrace(times=t, values=amp * np.cos(2 * np.pi * (k / (n * dt)) * t))
        s = spectrum_of(tr)
        assert s.values[k] == pytest.approx(amp, rel=1e-4)

    def test_dc_and_nyquist_not_doubled(self):
        n, dt = 256, 0.05
        t = np.arange(n) * dt
        assert spectrum_of(
            TimeTrace(times=t, values=np.full(n, 0.7))
        ).values[0] == pytest.approx(0.7, rel=1e-12)
        alt = 0.9 * np.cos(np.pi * np.arange(n))  # Nyquist cosine
        assert spectrum_of(
            TimeTrace(times=t, values=alt)
        ).values[-1] == pytest.approx(0.9, rel=1e-12)

    @pytest.mark.parametrize("n", [300, 301], ids=["300-hann", "301-hann"])
    def test_parseval(self, n):
        rng = np.random.default_rng(11)
        x = rng.normal(size=n)
        tr = TimeTrace(times=np.arange(n) * 0.07, values=x)
        s = spectrum_of(tr)
        w = np.hanning(n)
        amps = s.values
        # undo the one-sided scaling to recover |X_k|, then apply Parseval;
        # even n carries an un-doubled Nyquist bin, odd n does not
        mid = amps[1:-1] if n % 2 == 0 else amps[1:]
        recon = (np.sum(w) ** 2 / n) * (
            amps[0] ** 2 + 0.5 * np.sum(mid**2) + (amps[-1] ** 2 if n % 2 == 0 else 0.0)
        )
        assert recon == pytest.approx(float(np.sum((x * w) ** 2)), rel=1e-9)

    def test_onset_restricts_segment(self):
        rng = np.random.default_rng(13)
        vals = rng.normal(size=TAU.size)
        full = TimeTrace(times=TAU, values=vals)
        trimmed = TimeTrace(times=TAU[TAU >= 0], values=vals[TAU >= 0])
        a = spectrum_of(full, onset=0.0)
        b = spectrum_of(trimmed, onset=0.0)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.frequencies, b.frequencies)

    def test_too_few_samples_after_onset(self):
        tr = TimeTrace(times=np.arange(32) * 0.1, values=np.ones(32))
        with pytest.raises(GridError, match="fewer than 16 samples"):
            spectrum_of(tr, onset=2.0)


class TestPeakReport:
    def test_exact_parabola_recovered(self):
        freqs = np.linspace(0.4, 1.0, 31)
        vals = 5.0 - 40.0 * (freqs - 0.7) ** 2
        rep = peak_report(Spectrum(frequencies=freqs, values=vals))
        assert rep.peak_frequency == pytest.approx(0.7, abs=1e-12)
        assert rep.amplitude == pytest.approx(5.0, rel=1e-12)
        # half maximum of this parabola sits at 0.7 +- 0.25
        assert rep.fwhm == pytest.approx(0.5, rel=2e-2)

    def test_lorentzian_center_and_width(self):
        freqs = np.linspace(0.4, 1.0, 61)
        vals = 1.0 / (1.0 + ((freqs - 0.713) / 0.05) ** 2)
        rep = peak_report(Spectrum(frequencies=freqs, values=vals))
        assert abs(rep.peak_frequency - 0.713) < 0.1 * 0.01  # tenth of a bin
        assert rep.fwhm == pytest.approx(0.1, rel=2e-2)

    def test_two_bin_plateau_peaks_at_midpoint(self):
        # flat top: the parabola through (0.8, 1.0, 1.0) puts the vertex
        # half a bin past the first plateau sample
        freqs = np.array([0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
        vals = np.array([0.1, 0.8, 1.0, 1.0, 0.8, 0.1])
        rep = peak_report(Spectrum(frequencies=freqs, values=vals))
        assert rep.peak_frequency == pytest.approx(0.65, abs=1e-12)
        assert rep.amplitude >= 1.0

    def test_edge_peak_rejected(self):
        freqs = np.linspace(0.4, 1.0, 8)
        with pytest.raises(EdgePeakError, match="band edge"):
            peak_report(Spectrum(frequencies=freqs, values=np.arange(8.0)))

    def test_unbounded_width_rejected(self):
        freqs = np.linspace(0.4, 1.0, 6)
        vals = np.array([0.1, 1.0, 0.9, 0.8, 0.7, 0.6])
        with pytest.raises(UnboundedWidthError, match="above the peak"):
            peak_report(Spectrum(frequencies=freqs, values=vals))


class TestExtractPipeline:
    def test_recovers_resonance_from_synthetic_map(self, doped_water):
        probe = gaussian_probe(TGRID)
        osc = synth_oscillation(doped_water, TAU).values
        amp = float(np.max(np.abs(osc)))
        step = StepModel(amplitude=amp, rise_time=1.0, onset=0.0)
        fmap = synth_map(doped_water, probe, step, TAU)
        res = extract(fmap)
        # water's crossing was placed at 0.7 THz; the analysis grid after the
        # onset cut has ~0.022 THz bins
        assert abs(res.peak.peak_frequency - 0.7) < 0.025
        assert res.peak.fwhm > 0
        assert res.step.amplitude == pytest.approx(amp, rel=0.1)
        np.testing.assert_array_equal(res.oscillation.times, TAU)


class TestCsvRoundTrips:
    def test_trace_bit_exact(self, doped_water):
        tr = synth_oscillation(doped_water, TAU)
        buf = io.StringIO()
        write_trace_csv(tr, buf, meta=("impostoron test", "seed: 0"))
        buf.seek(0)
        back = read_trace_csv(buf)
        np.testing.assert_array_equal(back.times, tr.times)
        np.testing.assert_array_equal(back.values, tr.values)

    def test_spectrum_bit_exact(self):
        s = Spectrum(
            frequencies=np.linspace(0.2, 2.0, 40),
            values=np.random.default_rng(3).normal(size=40) ** 2,
        )
        buf = io.StringIO()
        write_spectrum_csv(s, buf)
        buf.seek(0)
        back = read_spectrum_csv(buf)
        np.testing.assert_array_equal(back.frequencies, s.frequencies)
        np.testing.assert_array_equal(back.values, s.values)

    def test_map_bit_exact(self):
        rng = np.random.default_rng(4)
        m = FieldMap2D(
            t_grid=TGRID, tau_grid=TAU[:32], values=rng.normal(size=(32, 64))
        )
        buf = io.StringIO()
        write_map_csv(m, buf, meta=("input-sha256 demo: abc",))
        buf.seek(0)
        back = read_map_csv(buf)
        np.testing.assert_array_equal(back.t_grid, m.t_grid)
        np.testing.assert_array_equal(back.tau_grid, m.tau_grid)
        np.testing.assert_array_equal(back.values, m.values)

    def test_header_errors(self):
        with pytest.raises(DomainError, match="tau_ps,amplitude"):
            read_trace_csv(io.StringIO("a,b\n1.0,2.0\n"))
        with pytest.raises(DomainError, match="nu_THz,amplitude"):
            read_spectrum_csv(io.StringIO("a,b\n1.0,2.0\n"))
        with pytest.raises(DomainError, match="corner cell"):
            read_map_csv(io.StringIO("x,0.0\n0.0,1.0\n"))
        with pytest.raises(DomainError, match="empty map"):
            read_map_csv(io.StringIO("# only comments\n"))
        with pytest.raises(DomainError, match="trace CSV line 2: 1 values"):
            read_trace_csv(io.StringIO("tau_ps,amplitude\n1.0\n"))
        with pytest.raises(DomainError, match="trace CSV line 2: non-numeric cell"):
            read_trace_csv(io.StringIO("tau_ps,amplitude\n1.0,x\n"))
        with pytest.raises(DomainError, match="spectrum CSV line 2: 3 values"):
            read_spectrum_csv(io.StringIO("nu_THz,amplitude\n1,2,3\n"))
        wide = "".join(f"{1.7e308 * (2 * i / 15 - 1)!r},0.0\n" for i in range(16))
        with pytest.raises(DomainError, match="time grid span exceeds"):
            read_trace_csv(io.StringIO("tau_ps,amplitude\n" + wide))
        with pytest.raises(DomainError, match="frequency grid span exceeds"):
            read_spectrum_csv(io.StringIO("nu_THz,amplitude\n-1.7e308,0.0\n1.7e308,0.0\n"))

    def test_comments_and_blank_lines_skipped(self):
        text = "# meta 1\n\ntau_ps,amplitude\n# inline comment\n" + "".join(
            f"{float(i) * 0.5!r},{float(i)!r}\n" for i in range(16)
        )
        tr = read_trace_csv(io.StringIO(text))
        assert tr.times.size == 16
        assert tr.dt == pytest.approx(0.5, rel=1e-15)
