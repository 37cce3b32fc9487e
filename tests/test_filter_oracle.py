"""extract's 2D filter and cut against the dense 2D FFT filter of closed_forms.

The package filters with a real FFT along probe time and a delay-axis FFT of
the passband columns only (signal._band); the reference transforms the whole
map. Both zero the same components, so the whole filtered map built from the
band (closed_forms.band_filtered_map) differs from the reference by rounding
alone. extract never builds that map: it picks the map's largest-|E| column
from blockwise inverse transforms of the band and forms that column alone,
so it must pick the same column and cut the same trace up to rounding, and
give the step and peak of the reference chain.
"""

import math
import warnings

import numpy as np
import pytest
from closed_forms import band_filtered_map, dense_fourier_filter_2d
from hypothesis import given, settings
from hypothesis import strategies as st

from impostoron.errors import DomainError, NoSignalError
from impostoron.mixing import Concentration, DopedLiquid
from impostoron.signal import (
    FILTER_BANDWIDTH,
    FieldMap2D,
    StepModel,
    TimeTrace,
    _band,
    _band_column,
    _band_peak_column,
    _bin_weights,
    add_noise,
    extract,
    gaussian_probe,
    peak_report,
    remove_step,
    spectrum_of,
    synth_map,
    synth_oscillation,
)

U = np.finfo(float).eps / 2.0  # unit roundoff of float64


def _prime_factors(n):
    p = 2
    while p * p <= n:
        while n % p == 0:
            yield p
            n //= p
        p += 1
    if n > 1:
        yield n


def fft_relative_error(n):
    """Bound on ||fl(DFT x) - DFT x||_2 / ||DFT x||_2 for a length-n FFT.

    An FFT is a chain of passes, one per prime factor p of n with
    multiplicity. A pass sums p products with twiddles accurate to U: each
    output is off by at most (p + 2) U times the 1-norm of its p inputs, so
    the pass is off by (p + 2) sqrt(p) U relative in the 2-norm. The twiddle
    multiply between passes adds 4 U. A large prime may instead go through
    Bluestein's algorithm, two power-of-two FFTs of length below 4p and three
    chirp multiplies, whose bound is below the direct pass's for the primes
    where it is used.
    """
    return U * sum((p + 2) * math.sqrt(p) + 4 for p in _prime_factors(n))


def filter_difference_bound(values):
    """Largest |band_filtered_map - dense_fourier_filter_2d| that rounding allows.

    Each filter is the exact projection P onto the kept components, with
    ||P x||_2 <= ||x||_2, computed through one forward and one inverse
    transform along each axis; the mask decisions are the same in both. Each
    result is therefore within 2 (E(n_tau) + E(n_t)) ||x||_2 of P x, with E
    the FFT bound above, and a factor 2 covers the real transforms, whose
    half spectrum carries each conjugate pair once. The largest entry of the
    difference is at most its 2-norm.
    """
    n_tau, n_t = values.shape
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return 0.0
    norm = scale * float(np.linalg.norm(values / scale))
    return 8.0 * (fft_relative_error(n_tau) + fft_relative_error(n_t)) * norm


sizes = st.integers(16, 600) | st.sampled_from([16, 17, 31, 64, 65, 512, 513])
steps = st.floats(-150.0, 150.0).map(lambda e: 10.0**e)


@st.composite
def filter_cases(draw):
    n_tau, n_t = draw(sizes), draw(sizes)
    dtau, dt = draw(steps), draw(steps)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "spike", "wide range"]))
    if kind == "noise":
        values = rng.standard_normal((n_tau, n_t))
    elif kind == "spike":
        values = np.zeros((n_tau, n_t))
        values[rng.integers(n_tau), rng.integers(n_t)] = 1.0
    else:
        values = rng.standard_normal((n_tau, n_t)) * 10.0 ** rng.uniform(-200, 0, (n_tau, n_t))
    values *= draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-200.0, 200.0))
    fmap = FieldMap2D(
        t_grid=(np.arange(n_t) - n_t // 2) * dt,
        tau_grid=(np.arange(n_tau) - n_tau // 8) * dtau,
        values=values,
    )
    f_t = np.fft.rfftfreq(n_t, d=fmap.dt)
    f_tau = np.fft.fftfreq(n_tau, d=fmap.dtau)
    nyquist = max(f_t[-1], np.max(np.abs(f_tau)))
    kinds = ["below first bin", "probe bin", "delay bin", "above Nyquist", "inf", "any"]
    which = draw(st.sampled_from(kinds))
    if which == "below first bin":  # only the DC column survives
        bandwidth = f_t[1] * draw(st.floats(1e-3, 0.999))
    elif which == "probe bin":
        bandwidth = f_t[draw(st.integers(1, f_t.size - 1))]
    elif which == "delay bin":
        bandwidth = abs(f_tau[draw(st.integers(1, n_tau // 2))])  # an even size ends at -Nyquist
    elif which == "above Nyquist":
        bandwidth = nyquist * draw(st.floats(1.0001, 2.0))
    elif which == "inf":
        bandwidth = math.inf
    else:
        bandwidth = nyquist * draw(st.floats(1e-3, 1.0))
    return fmap, float(bandwidth)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=filter_cases())
def test_matches_dense_filter(case):
    fmap, bandwidth = case
    got = band_filtered_map(fmap, bandwidth)
    want = dense_fourier_filter_2d(fmap, bandwidth)
    np.testing.assert_array_equal(got.t_grid, fmap.t_grid)
    np.testing.assert_array_equal(got.tau_grid, fmap.tau_grid)
    assert np.max(np.abs(got.values - want.values)) <= filter_difference_bound(fmap.values)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=filter_cases())
def test_band_cut_is_the_largest_column_of_the_filtered_map(case):
    # the same column, ties to the smaller t included, since the blockwise
    # inverse transforms give the filtered map's values bit for bit; the
    # trace formed from the band alone differs from its column by rounding
    fmap, bandwidth = case
    filtered = band_filtered_map(fmap, bandwidth)
    col_peak = np.max(np.abs(filtered.values), axis=0)
    band = _band(fmap, bandwidth)
    n_t = fmap.t_grid.size
    if np.all(col_peak == 0):
        with pytest.raises(NoSignalError):
            _band_peak_column(band, n_t)
        return
    i = _band_peak_column(band, n_t)
    assert i == int(np.argmax(col_peak))
    want = filtered.values[:, i]
    got = _band_column(band, i, n_t)
    assert np.max(np.abs(got - want)) <= filter_difference_bound(fmap.values)


def test_band_cut_ties_go_to_the_smaller_time():
    # below the first probe-time bin only the DC column survives, so every
    # column of the filtered map is the same: the cut is at the first one
    values = np.random.default_rng(5).standard_normal((64, 32))
    fmap = FieldMap2D(t_grid=np.arange(32) * 0.05, tau_grid=np.arange(64) * 0.1, values=values)
    bandwidth = 0.5 / (32 * 0.05)
    filtered = band_filtered_map(fmap, bandwidth).values
    assert np.all(filtered == filtered[:, :1])
    assert _band_peak_column(_band(fmap, bandwidth), 32) == 0


@pytest.mark.parametrize("n_t", [32, 33])
def test_band_column_is_each_column_of_the_inverse_transform(n_t):
    # every bin kept, the Nyquist bin of an even n_t included: each sample
    # is a weighted sum of the bins, within (bins + 2) roundings of the sum
    # of the weighted |bins|; the irfft is within twice the FFT bound of
    # its row's 2-norm
    band = np.fft.rfft(np.random.default_rng(n_t).standard_normal((64, n_t)), axis=1)
    whole = np.fft.irfft(band, n=n_t, axis=1)
    scale = np.abs(band) @ _bin_weights(n_t, band.shape[1])
    bound = (band.shape[1] + 2) * U * scale + 2.0 * fft_relative_error(n_t) * np.linalg.norm(
        whole, axis=1
    )
    for i in range(n_t):
        assert np.all(np.abs(_band_column(band, i, n_t) - whole[:, i]) <= bound), i


def test_extract_rejects_an_all_zero_map():
    grid = np.arange(16) * 0.1
    fmap = FieldMap2D(t_grid=grid, tau_grid=grid - 0.5, values=np.zeros((16, 16)))
    with pytest.raises(NoSignalError, match="all-zero field map"):
        extract(fmap)


def test_extract_rejects_a_map_whose_filter_overflows():
    # finite values near the float maximum: the FFT sums overflow to inf and
    # nan, which extract reports as FieldMap2D reports a non-finite value,
    # without a warning
    grid = np.arange(16) * 0.1
    fmap = FieldMap2D(t_grid=grid, tau_grid=grid - 0.5, values=np.full((16, 16), 1.5e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^map values must be finite$"):
            extract(fmap)


N_TAU, DTAU, N_T, DT = 4096, 0.1, 128, 0.05


@pytest.mark.parametrize("stem", ["water", "eg", "ipa"])
@pytest.mark.parametrize("micromolar", [20.0, 45.0])
@pytest.mark.parametrize("snr_db", [15.0, 30.0])
def test_extract_does_not_depend_on_the_filter(liquids, stem, micromolar, snr_db):
    # the benchmark's 4096 x 128 pump-probe map, step amplitude as `synth --map` sets it
    doped = DopedLiquid(liquids[stem], Concentration.from_micromolar(micromolar))
    tau = (np.arange(N_TAU) - N_TAU // 8) * DTAU
    probe = gaussian_probe((np.arange(N_T) - N_T // 2) * DT)
    step = StepModel(float(np.max(np.abs(synth_oscillation(doped, tau).values))), 1.0, 0.0)
    seed = int(micromolar) * 100 + int(snr_db)
    fmap = add_noise(synth_map(doped, probe, step, tau), snr_db, seed)

    got = extract(fmap)
    # the reference chain, through the dense filter and the built map
    dense = dense_fourier_filter_2d(fmap, FILTER_BANDWIDTH).values
    column = dense[:, np.argmax(np.max(np.abs(dense), axis=0))]
    osc, dense_step = remove_step(TimeTrace(times=fmap.tau_grid, values=column))
    dense_peak = peak_report(spectrum_of(osc, onset=dense_step.onset))

    for got_part, want in ((got.step, dense_step), (got.peak, dense_peak)):
        for name, value in vars(want).items():
            assert getattr(got_part, name) == pytest.approx(value, rel=1e-9), name
