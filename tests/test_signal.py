import io
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from closed_forms import band_filtered_map, dense_oscillation
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from impostoron.dielectric import DebyeModel
from impostoron.errors import (
    DegenerateLineshapeError,
    DomainError,
    EdgePeakError,
    GridError,
    ImpostoronError,
    NoSignalError,
    PeakError,
    StepFitError,
    UnboundedWidthError,
)
from impostoron.matching import ce_for_nu0
from impostoron.mixing import Concentration, DopedLiquid
from impostoron.polaron import Spectrum, lineshape
from impostoron.signal import (
    DEFAULT_BAND,
    _BLOCK_BYTES,
    FILTER_BANDWIDTH,
    FieldMap2D,
    PeakReport,
    StepModel,
    TimeTrace,
    _band,
    _band_peak_column,
    _largest_column,
    _row_blocks,
    add_noise,
    extract,
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


#: a 0.7 THz cosine on 256 samples of 0.1 ps, to be scaled to the float range's ends
COS_TIMES = np.arange(256) * 0.1
COS = np.cos(2.0 * math.pi * 0.7 * COS_TIMES)


@st.composite
def float_range_values(draw, min_size=16, max_size=48):
    """Values of either sign of one magnitude drawn from 1e-320 to 1.7e308, zeros included."""
    n = draw(st.integers(min_size, max_size))
    unit = draw(arrays(float, n, elements=st.one_of(st.just(0.0), st.floats(-1.0, 1.0))))
    return unit * 10.0 ** draw(st.floats(-320.0, math.log10(1.7e308)))


#: unit roundoff of float64
U = 2.0**-53


@st.composite
def peak_stencils(draw):
    """Nodes x0 < x1 < x2 with exact cell widths, samples 0 <= y0 < y1 >= y2 >= 0.

    x1 lies in [1, 2) and each outer node within 0.15 to 0.5 of x1 from it, so
    the widths x1 - x0 and x2 - x1 are exact (Sterbenz) and their ratio is at
    most 10/3. y1 runs from 1e-100 to 1e101, the neighbours from 0 to y1.
    """
    x1 = draw(st.floats(1.0, 2.0, exclude_max=True))
    xs = (x1 * (1.0 - draw(st.floats(0.15, 0.5))), x1, x1 * (1.0 + draw(st.floats(0.15, 0.5))))
    y1 = draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-100, 100))
    ys = (y1 * draw(st.floats(0.0, 1.0)), y1, y1 * draw(st.floats(0.0, 1.0)))
    assume(ys[0] < y1)  # else the maximum is the sample at x0
    return xs, ys


def exact_vertex_value(xs, ys):
    """Value at the vertex of the parabola through three points, in rationals.

    The parabola in Newton form, y0 + f01*(x - x0) + c*(x - x0)*(x - x1), has
    the slope f01 + c*(x1 - x0) at x1; its vertex lies -slope/(2*c) from x1.
    """
    (x0, x1, x2), (y0, y1, y2) = (map(Fraction, xs), map(Fraction, ys))
    f01, f12 = (y1 - y0) / (x1 - x0), (y2 - y1) / (x2 - x1)
    c = (f12 - f01) / (x2 - x0)
    slope = f01 + c * (x1 - x0)
    return y1 - slope * slope / (4 * c)


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

    @pytest.mark.parametrize("kind", ["map", "trace", "zero noise"])
    def test_noise_is_the_seeded_normal_draw_bit_for_bit(self, doped_water, kind):
        # values + default_rng(seed).normal(0, sigma), sigma at the documented
        # RMS; the map holds -0.0 before the onset, and a noise level of 0
        # adds 0.0 + 0.0 * z = +0.0 to each of those
        snr_db = {"map": 20.0, "trace": 10.0, "zero noise": 7000.0}[kind]
        if kind == "trace":
            obj = synth_oscillation(doped_water, TAU)
        else:
            step = StepModel(amplitude=0.3, rise_time=1.0, onset=0.0)
            obj = synth_map(doped_water, gaussian_probe(TGRID), step, TAU)
            assert np.any(np.signbit(obj.values) & (obj.values == 0))
        values = obj.values
        sigma = math.sqrt(np.mean(values**2)) * 10.0 ** (-snr_db / 20.0)
        want = values + np.random.default_rng(11).normal(0.0, sigma, values.shape)
        got = add_noise(obj, snr_db, 11).values
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

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


    @pytest.mark.parametrize(
        "scale", [1e160, 1e308, 1e-170], ids=["square-overflows", "rms-overflows", "underflows"]
    )
    def test_noise_level_at_the_float_range(self, scale):
        # the squares of these values overflow or underflow, and the RMS is
        # taken on the values scaled to 1: noise of a tenth of it, no warning
        tr = TimeTrace(times=COS_TIMES, values=scale * COS)
        noisy = add_noise(tr, 20.0, 0)
        ratio = np.std((noisy.values - tr.values) / scale) / np.sqrt(np.mean(COS**2))
        assert 0.08 < ratio < 0.12

    def test_noise_past_the_float_range_rejected(self):
        tr = TimeTrace(times=COS_TIMES, values=1.7e308 * COS)
        with pytest.raises(DomainError, match="signal plus noise leaves the float range"):
            add_noise(tr, 0.0, 0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(values=float_range_values(), snr_db=st.floats(-20.0, 60.0), seed=st.integers(0, 9))
    def test_float_range_raises_only_a_named_cause(self, values, snr_db, seed):
        # a RuntimeWarning fails the test; an error names what went wrong
        tr = TimeTrace(times=np.arange(values.size) * 0.1, values=values)
        try:
            noisy = add_noise(tr, snr_db, seed)
        except ImpostoronError as exc:
            message = str(exc)
            if "all-zero" in message:
                assert not values.any()
            else:
                assert "out of range" in message or "leaves the float range" in message
                assert np.max(np.abs(values)) > 1e306
        else:
            assert np.isfinite(noisy.values).all()


class TestFourierFilter2D:
    """extract's 2D filter, _band, on the whole map that closed_forms.band_filtered_map builds."""

    def test_idempotent(self, doped_water):
        probe = gaussian_probe(TGRID)
        step = StepModel(amplitude=0.3, rise_time=1.0, onset=0.0)
        fmap = add_noise(synth_map(doped_water, probe, step, TAU), 10.0, 3)
        f1 = band_filtered_map(fmap, 1.5)
        f2 = band_filtered_map(f1, 1.5)
        np.testing.assert_allclose(
            f2.values, f1.values, atol=1e-12 * np.max(np.abs(f1.values))
        )

    def test_passband_tone_untouched(self):
        dnu_tau = 1.0 / (512 * 0.1)
        f_lo = 26 * dnu_tau  # on a delay-axis bin, well inside the band
        vals = np.cos(2 * np.pi * f_lo * TAU)[:, None] * np.ones(64)[None, :]
        out = band_filtered_map(
            FieldMap2D(t_grid=TGRID, tau_grid=TAU, values=vals), 2.0
        )
        np.testing.assert_allclose(out.values, vals, atol=1e-12)

    def test_stopband_tone_removed(self):
        dnu_tau = 1.0 / (512 * 0.1)
        f_hi = 154 * dnu_tau  # ~3 THz, on a bin, outside the 2 THz radius
        vals = np.cos(2 * np.pi * f_hi * TAU)[:, None] * np.ones(64)[None, :]
        out = band_filtered_map(
            FieldMap2D(t_grid=TGRID, tau_grid=TAU, values=vals), 2.0
        )
        assert np.max(np.abs(out.values)) < 1e-12

    def test_white_noise_energy_reduced_to_kept_fraction(self):
        rng = np.random.default_rng(7)
        m = FieldMap2D(
            t_grid=TGRID, tau_grid=TAU, values=rng.normal(size=(512, 64))
        )
        out = band_filtered_map(m, 1.0)
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
            band_filtered_map(
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
            band_filtered_map(
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

    def test_zero_bandwidth_keeps_the_mean(self):
        # only the DC component lies within a zero radius: every value of
        # the filtered map is the map's mean
        values = np.random.default_rng(4).normal(size=(512, 64))
        out = band_filtered_map(FieldMap2D(t_grid=TGRID, tau_grid=TAU, values=values), 0.0)
        np.testing.assert_allclose(out.values, np.full((512, 64), np.mean(values)), atol=1e-12)

    def test_values_whose_transform_overflows_rejected(self):
        # finite values near the float maximum: with every component kept
        # the FFT sums overflow to inf and nan, which the band's cut reports
        # without a numpy warning
        grid = np.arange(16) * 0.1
        m = FieldMap2D(t_grid=grid, tau_grid=grid, values=np.full((16, 16), 1.5e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="map values must be finite"):
                _band_peak_column(_band(m, math.inf), 16)


@pytest.mark.parametrize("n_tau, n_t", [(4096, 128), (1000, 24), (3, 1 << 16), (1, 16)])
def test_row_blocks_take_each_row_once_in_order(n_tau, n_t):
    # a block holds at most _BLOCK_BYTES of map values, or one row where a
    # row alone is larger
    blocks = _row_blocks(n_tau, n_t)
    rows = np.concatenate([np.arange(n_tau)[block] for block in blocks])
    np.testing.assert_array_equal(rows, np.arange(n_tau))
    sizes = [len(range(n_tau)[block]) for block in blocks]
    assert min(sizes) >= 1
    assert max(sizes) * 8 * n_t <= max(_BLOCK_BYTES, 8 * n_t)


class TestCutAtMax:
    """extract's cut rule, _largest_column, on the max and min of each column of a map."""

    @staticmethod
    def column(vals):
        return _largest_column(vals.max(axis=0), vals.min(axis=0))

    def test_picks_probe_maximum_column(self, doped_water):
        probe = gaussian_probe(TGRID)
        step = StepModel(amplitude=0.3, rise_time=1.0, onset=0.0)
        fmap = synth_map(doped_water, probe, step, TAU)
        assert self.column(fmap.values) == int(np.argmax(np.abs(probe.values)))

    def test_tie_breaks_toward_smaller_time(self):
        probe_vals = np.zeros(64)
        probe_vals[20] = 1.0
        probe_vals[40] = 1.0  # equal maxima
        vals = np.linspace(0.1, 1.0, 512)[:, None] * probe_vals[None, :]
        assert self.column(vals) == 20

    def test_picks_a_column_whose_peak_is_negative(self):
        vals = np.zeros((512, 64))
        vals[100, 10] = 0.5
        vals[200, 30] = -0.9
        vals[300, 50] = 0.8
        assert self.column(vals) == 30

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_tie_of_opposite_signs_breaks_toward_smaller_time(self, sign):
        vals = np.zeros((512, 64))
        vals[100, 20] = sign
        vals[300, 40] = -sign
        assert self.column(vals) == 20

    # small integers make ties between columns and signs common. The cells
    # also fill the array: arrays then draws a few cells and gives the rest
    # one drawn value, instead of drawing each of the ~400 cells on its own
    # (it does so only for elements it knows reusable, which .map hides)
    CELLS = st.one_of(st.integers(-2, 2).map(float), st.floats(-1e300, 1e300, allow_nan=False))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        vals=st.tuples(st.integers(16, 24), st.integers(16, 24)).flatmap(
            lambda shape: arrays(float, shape, elements=TestCutAtMax.CELLS, fill=TestCutAtMax.CELLS)
        )
    )
    def test_column_that_the_largest_absolute_value_picks(self, vals):
        col_peak = np.max(np.abs(vals), axis=0)
        if np.all(col_peak == 0):
            with pytest.raises(NoSignalError):
                self.column(vals)
            return
        assert self.column(vals) == int(np.argmax(col_peak))

    def test_all_zero_map_rejected(self):
        with pytest.raises(NoSignalError, match="all-zero"):
            self.column(np.zeros((512, 64)))

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
            band = _band(add_noise(fmap, 20.0, seed), FILTER_BANDWIDTH)
            col = _band_peak_column(band, TGRID.size)
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

    def test_span_under_the_start_rise(self):
        # the 1 ps start rise lies above this 0.62 ps span and is clipped to it
        tau = (np.arange(32) - 8) * 0.02
        step = StepModel(amplitude=0.8, rise_time=0.1, onset=0.0)
        _, fit = remove_step(TimeTrace(times=tau, values=step.evaluate(tau)))
        assert 1e-3 <= fit.rise_time <= tau[-1] - tau[0]

    @pytest.mark.xfail(
        strict=True,
        raises=StepFitError,
        reason="ROADMAP item 5: on a noise-free fast rise the fit's cost falls "
        "geometrically, so neither stop rule fires before the 200-evaluation cap",
    )
    def test_noise_free_fast_rise(self):
        # a 2e-3 ps rise on a 0.0138 ps grid: the exact fit exists, and the
        # capped fit raises at cost 1.66e-17 at unit peak (206 evaluations
        # uncapped)
        tau = (np.arange(402) - 288) * 0.013784840777172432
        step = StepModel(amplitude=1.0, rise_time=2e-3, onset=0.0)
        osc, fit = remove_step(TimeTrace(times=tau, values=step.evaluate(tau)))
        assert np.max(np.abs(osc.values)) < 1e-6
        assert fit.amplitude == pytest.approx(1.0, rel=1e-6)

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

    def test_bin_cosine_with_half_hann(self):
        # the window w_j = cos(pi j/(2n))**2 = 1/2 + cos(pi j/n)/2 turns the
        # cosine on bin k into A/2 (W(0) + W(2k)), W its DFT, with W(0) =
        # (n + 1)/2 and, summing the two geometric series of cos(pi j/n),
        # W(m) = (1/(1 - e^(-i pi (2m - 1)/n)) + 1/(1 - e^(-i pi (2m + 1)/n)))/2
        n, dt = 256, 0.05
        t = np.arange(n) * dt
        k, amp = 10, 1.3
        tr = TimeTrace(times=t, values=amp * np.cos(2 * np.pi * (k / (n * dt)) * t))
        s = spectrum_of(tr)
        m = 2 * k
        image = 0.5 * sum(1.0 / (1.0 - np.exp(-1j * np.pi * (2 * m + d) / n)) for d in (-1, 1))
        assert s.values[k] == pytest.approx(amp * abs(1.0 + image / ((n + 1) / 2)), rel=1e-4)

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

    @pytest.mark.parametrize("n", [300, 301], ids=["300-half-hann", "301-half-hann"])
    def test_parseval(self, n):
        rng = np.random.default_rng(11)
        x = rng.normal(size=n)
        tr = TimeTrace(times=np.arange(n) * 0.07, values=x)
        s = spectrum_of(tr)
        w = np.cos(np.pi * np.arange(n) / (2 * n)) ** 2
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

    @pytest.mark.parametrize("tiny", [1e-310, 4e-310])
    def test_step_whose_bin_frequencies_overflow(self, tiny):
        # 1/(16 * 1e-310 ps) is inf, so DC would be 0*inf; 1/(16 * 4e-310 ps)
        # is finite, but the Nyquist bin, 8 times it, is not
        tr = TimeTrace(times=np.arange(16) * tiny, values=np.ones(16))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match="bin frequencies exceed the float range"):
                spectrum_of(tr)


    def test_sums_past_the_float_range_rejected(self):
        tr = TimeTrace(times=COS_TIMES, values=1.7e308 * COS)
        with pytest.raises(DomainError, match="overflow the spectrum's Fourier sums"):
            spectrum_of(tr)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(values=float_range_values())
    def test_float_range_raises_only_a_named_cause(self, values):
        tr = TimeTrace(times=np.arange(values.size) * 0.1, values=values)
        try:
            spec = spectrum_of(tr)
        except ImpostoronError as exc:
            assert "overflow the spectrum's Fourier sums" in str(exc)
            assert np.max(np.abs(values)) > 1e306
        else:
            assert np.isfinite(spec.values).all()


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

    @pytest.mark.parametrize(
        "values, half, sample",
        [
            ([-3.0, -1.0, -2.0, -3.0], "-0.479167", "-1"),
            ([0.5, 1.0, -20.0, 0.5], "1.72166", "1"),
            ([-20.0, 1.0, 1.0, -20.0, 0.0], "1.8125", "1"),
        ],
        ids=["negative-line", "beside-a-dip", "plateau-between-dips"],
    )
    def test_peak_sample_not_above_half_maximum_rejected(self, values, half, sample):
        # half the fitted maximum lies at or above the peak sample: the line is
        # negative, or the parabola beside a deep dip overshoots to more than
        # twice the sample. No half-maximum walk can start at the peak
        freqs = np.linspace(0.4, 0.4 + 0.1 * (len(values) - 1), len(values))
        message = f"peak sample {sample} not above half maximum {half}"
        with pytest.raises(PeakError, match=re.escape(message)):
            peak_report(Spectrum(frequencies=freqs, values=np.array(values)))

    @pytest.mark.parametrize("depth", [1e15, 1e16, 4.749979434661422e16, 1e17])
    def test_peak_between_cliffs_gives_a_positive_line_or_raises(self, depth):
        # the half-maximum crossings lie within about 1e-17 THz of the peak
        # sample, so the width may round to 0: a PeakError. A report must
        # hold a positive line
        freqs = np.array([0.4, 0.5, 0.6])
        try:
            rep = peak_report(Spectrum(frequencies=freqs, values=np.array([-depth, 1.0, -depth])))
        except PeakError:
            return
        assert rep.fwhm > 0 and rep.amplitude > 0

    def test_symmetric_cliffs_keep_the_sample_as_amplitude(self):
        # the parabola through (-1e15, 1, -1e15) peaks at exactly the middle
        # sample, which a least-squares solve of the three points misses
        # by 11 %
        freqs = np.array([0.4, 0.5, 0.6])
        rep = peak_report(Spectrum(frequencies=freqs, values=np.array([-1e15, 1.0, -1e15])))
        assert rep.peak_frequency == 0.5 and rep.amplitude == 1.0

    #: To first order, the roundings of the closed form move the amplitude by
    #: at most (8*rho + 2)*u of it, rho = max(h0, h1) / min(h0, h1), for the
    #: stencils of peak_stencils (samples scaled to y1 = 1, neighbours in [0, 1],
    #: so the differences d = y1 - y are at most 1 and err by at most u). The
    #: error of w0*h1 - w1*h0 (the d's, 5 roundings) reaches the amplitude
    #: times |off|/(h0*h1*(h0 + h1)), |off| <= max(h)/2: at most 4*rho*u.
    #: w0 + w1 (the d's, 2 roundings) adds rho/4 + 2*(A - 1) times u, the
    #: other 6 roundings of A - 1 <= rho/4 add 6*(A - 1)*u, the rounded width
    #: ratio 1.75*rho*u, and y1 + (A - 1) and the scale 2*A*u. The 3 in the
    #: bound covers the second-order terms.
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(stencil=peak_stencils())
    def test_vertex_matches_the_exact_parabola(self, stencil):
        xs, ys = stencil
        freqs = np.array([xs[0] - 1.0, *xs, xs[2] + 1.0])
        rep = peak_report(Spectrum(frequencies=freqs, values=np.array([0.0, *ys, 0.0])))
        amplitude = exact_vertex_value(xs, ys)
        h0, h1 = Fraction(xs[1] - xs[0]), Fraction(xs[2] - xs[1])
        rho = max(h0, h1) / min(h0, h1)
        assert abs(Fraction(rep.amplitude) - amplitude) <= (8 * rho + 3) * Fraction(U) * amplitude
        # between the midpoints of the two cells, up to the roundings of off
        # (4 of it, 1 of its unit) and of x1 + off
        slack = 4 * Fraction(U) * (Fraction(xs[1]) + max(h0, h1))
        x1 = Fraction(xs[1])
        assert x1 - h0 / 2 - slack <= Fraction(rep.peak_frequency) <= x1 + h1 / 2 + slack

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        values=arrays(
            float, st.integers(3, 24), elements=st.one_of(st.just(0.0), st.floats(2.0**-20, 1.0))
        ),
        k=st.integers(-1000, 1000),
        j=st.integers(-1000, 1000),
    )
    def test_powers_of_two_scale_the_report_exactly(self, values, k, j):
        # 2**k on the samples and 2**j on the frequencies: every operation of
        # the vertex and the walks stays among normal floats, so each rounds
        # to the scaled bits of the unscaled one
        def report(freqs, vals):
            try:
                return peak_report(Spectrum(frequencies=freqs, values=vals))
            except PeakError as exc:
                return type(exc)

        freqs = np.linspace(0.4, 1.0, values.size)
        want = report(freqs, values)
        got = report(np.ldexp(freqs, j), np.ldexp(values, k))
        if isinstance(want, PeakReport):
            want = PeakReport(
                math.ldexp(want.peak_frequency, j),
                math.ldexp(want.fwhm, j),
                math.ldexp(want.amplitude, k),
            )
        assert got == want

    def test_spectrum_near_the_float_maximum_reports_its_line(self):
        # the samples are scaled by their largest |value| before the vertex
        # is formed. Scaling to 1.7e308 rounds each sample once (1.1e-16)
        spec = spectrum_of(TimeTrace(times=COS_TIMES, values=COS))
        factor = 1.7e308 / spec.values.max()
        want = peak_report(spec)
        got = peak_report(Spectrum(frequencies=spec.frequencies, values=spec.values * factor))
        assert got.peak_frequency == pytest.approx(want.peak_frequency, rel=1e-13)
        assert got.fwhm == pytest.approx(want.fwhm, rel=1e-13)
        assert got.amplitude == pytest.approx(want.amplitude * factor, rel=1e-13)

    def test_vertex_past_the_float_maximum_rejected(self):
        freqs = np.array([0.4, 0.5, 0.6])
        with pytest.raises(PeakError, match="peak fit leaves the float range"):
            peak_report(Spectrum(frequencies=freqs, values=np.array([0.0, 1.79e308, 1.7e308])))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(values=float_range_values(min_size=3))
    def test_float_range_raises_only_a_named_cause(self, values):
        try:
            freqs = np.linspace(0.4, 1.0, values.size)
            rep = peak_report(Spectrum(frequencies=freqs, values=values))
        except ImpostoronError as exc:
            assert isinstance(exc, PeakError)
            if "float range" in str(exc):
                assert np.max(np.abs(values)) > 1e290
        else:
            assert np.isfinite([rep.peak_frequency, rep.fwhm, rep.amplitude]).all()
            assert rep.fwhm > 0 and rep.amplitude > 0


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

    def test_trace_holds_the_delay_grid_uncopied(self, doped_water):
        # the map's read-only delay grid passes through the cut and the step
        # removal to the oscillation as the same array
        probe = gaussian_probe(TGRID)
        step = StepModel(amplitude=0.3, rise_time=1.0, onset=0.0)
        fmap = synth_map(doped_water, probe, step, TAU)
        res = extract(fmap)
        assert res.oscillation.times is fmap.tau_grid
        assert not res.oscillation.values.flags.writeable


def test_map_stages_hold_at_most_one_map_sized_array(doped_water):
    # the 4096 x 128 pump-probe map: synth_map and add_noise each allocate the
    # map they return, extract no map-sized array at all (numpy's allocations,
    # as tracemalloc sees them, after one warm-up call of each stage)
    tau = (np.arange(4096) - 512) * 0.1
    probe = gaussian_probe((np.arange(128) - 64) * 0.05)
    step = StepModel(amplitude=0.01, rise_time=1.0, onset=0.0)
    stages = {
        "synth_map": lambda: synth_map(doped_water, probe, step, tau),
        "add_noise": lambda: add_noise(fmap, 20.0, 1),
        "extract": lambda: extract(noisy),
    }
    fmap = stages["synth_map"]()
    noisy = stages["add_noise"]()
    stages["extract"]()
    peaks = {}
    tracemalloc.start()
    try:
        for name, stage in stages.items():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            stage()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / fmap.values.nbytes
    finally:
        tracemalloc.stop()
    assert peaks["synth_map"] <= 1.25 and peaks["add_noise"] <= 1.25, peaks
    assert peaks["extract"] < 1.0, peaks


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
