"""Synthetic THz pump-probe signals and the oscillation-extraction pipeline.

The measured nonlinear field is modeled as separable in probe time t and
pump-probe delay tau:

    E(t, tau) = E_probe(t) * [ step(tau) + oscillation(tau) ]

where the step is an exponential-rise Heaviside and the oscillation is a
causal cosine sum whose amplitude spectrum follows the doped liquid's
energy-loss line shape. Extraction runs the reverse chain: 2D low-pass
filter, cut at the probe maximum, step removal, a spectrum weighted by a
window that decays from the onset, peak analysis.

All times are ps and all frequencies THz (1/ps = 1 THz, so FFT bin
frequencies need no conversion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dielectric import _check_axis, _finite_field, _readonly, _write_table
from .errors import (
    DegenerateLineshapeError,
    DomainError,
    EdgePeakError,
    GridError,
    NoSignalError,
    PeakError,
    StepFitError,
    UnboundedWidthError,
)
from .mixing import DopedLiquid
from .polaron import Spectrum, lineshape

#: Radial cutoff (THz) of the 2D Fourier filter that extract applies.
FILTER_BANDWIDTH = 4.0

#: Synthesis band (THz) of the oscillation's spectral content.
DEFAULT_BAND = (0.2, 2.0)

#: Lower edge (THz) of the expected resonance band; the step-removal
#: low-pass cuts at half this value.
BAND_LO = 0.4

_MIN_SAMPLES = 16
_GRID_RTOL = 1e-9


def _uniform_step(grid: np.ndarray, label: str) -> float:
    """The step of a sampled axis (_check_axis) of _MIN_SAMPLES or more uniform samples.

    A spacing may differ from the step by _GRID_RTOL of it, or by 4 ulp of the grid's largest
    |value| if more: rounding the values of an exactly uniform grid moves its spacings less.
    """
    step = _check_axis(grid, label, _MIN_SAMPLES) / (grid.size - 1)
    rounding = 4.0 * math.ulp(max(-float(grid[0]), float(grid[-1])))
    if np.max(np.abs(np.diff(grid) - step)) > max(_GRID_RTOL * step, rounding):
        raise DomainError(f"{label} spacing is not uniform")
    return step


@dataclass(frozen=True)
class TimeTrace:
    """Real samples on a uniform time grid (ps) of step dt, checked by _uniform_step."""

    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    dt: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dt", _uniform_step(_readonly(self, "times"), "time grid"))
        _finite_field(self, "values", self.times.shape, "trace values")


@dataclass(frozen=True)
class FieldMap2D:
    """Real field over probe time (columns) and delay (rows), both ps, checked by _uniform_step."""

    t_grid: np.ndarray = field(repr=False)
    tau_grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    dt: float = field(init=False, repr=False, compare=False)
    dtau: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = _readonly(self, "t_grid")
        tau = _readonly(self, "tau_grid")
        object.__setattr__(self, "dt", _uniform_step(t, "probe-time grid"))
        object.__setattr__(self, "dtau", _uniform_step(tau, "delay grid"))
        _finite_field(self, "values", (tau.size, t.size), "map values")


@dataclass(frozen=True)
class StepModel:
    """Exponential-rise step a * H(tau - onset) * (1 - exp(-(tau - onset)/rise))."""

    amplitude: float
    rise_time: float  # ps
    onset: float  # ps

    def __post_init__(self):
        if not (math.isfinite(self.rise_time) and self.rise_time > 0):
            raise DomainError(f"rise time must be positive, got {self.rise_time} ps")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.onset)):
            raise DomainError("step parameters must be finite")

    def evaluate(self, tau) -> np.ndarray:
        d = np.asarray(tau, dtype=float) - self.onset
        return np.where(
            d >= 0, self.amplitude * (1.0 - np.exp(-np.maximum(d, 0.0) / self.rise_time)), 0.0
        )


@dataclass(frozen=True)
class PeakReport:
    peak_frequency: float  # THz
    fwhm: float  # THz
    amplitude: float


# --------------------------------------------------------------------------
# Synthesis
# --------------------------------------------------------------------------


def synth_oscillation(doped: DopedLiquid, tau_grid) -> TimeTrace:
    """Causal oscillation whose amplitude spectrum follows the line shape.

    s(tau) = H(tau) * sum_k A(nu_k) cos(2 pi nu_k tau) * dnu over the FFT bin
    frequencies nu_k of the grid inside the fixed band DEFAULT_BAND (0.2-2 THz),
    with A the line shape normalized to unit maximum. The grid Nyquist frequency
    must exceed 2 THz, and the band must hold two bins or more.

    s is evaluated on the uniform grid tau_0 + j*dtau (dtau from the grid's
    end points) as one inverse real FFT, with A(nu_k) exp(2 pi i nu_k tau_0)
    on each in-band bin; the band holds neither the DC nor the Nyquist bin.
    H is applied at the given delays.
    """
    tau = np.asarray(tau_grid, dtype=float)
    dtau = _uniform_step(tau, "delay grid")
    lo, hi = DEFAULT_BAND
    if 1.0 / (2.0 * dtau) <= hi:
        raise GridError(
            f"Nyquist frequency {1.0 / (2.0 * dtau):g} THz does not cover band edge {hi:g} THz"
        )
    n = tau.size
    dnu = 1.0 / (n * dtau)
    if math.isfinite(dnu):
        # a bin frequency past the float range lies above the band, and as
        # inf it is left out as such
        with np.errstate(over="ignore"):
            freqs = np.arange(n // 2 + 1) * dnu
        sel = (freqs >= lo) & (freqs <= hi)
        found = np.count_nonzero(sel)
    else:  # a delay step near the float minimum: every bin but DC lies past the band
        found = 0
    if found < 2:
        count = "only one spectral bin" if found else "no spectral bins"
        raise GridError(
            f"synthesis band [{lo:g}, {hi:g}] THz contains {count} of the {n}-sample "
            f"delay grid with dtau {dtau:g} ps; the line shape needs at least two"
        )
    freqs = freqs[sel]
    amps = lineshape(doped, freqs).values
    peak = amps.max()
    if peak <= 0:
        raise DegenerateLineshapeError(
            "line shape is identically zero in the band: lossless medium"
        )

    bins = np.zeros(n // 2 + 1, dtype=complex)
    bins[sel] = amps / peak * np.exp(2j * math.pi * freqs * tau[0])
    s = np.fft.irfft(bins, n) * (0.5 * n * dnu)
    s[tau < 0] = 0.0
    return TimeTrace(times=tau, values=s)


def synth_map(doped: DopedLiquid, probe: TimeTrace, step: StepModel, tau_grid) -> FieldMap2D:
    """Separable map E(t, tau) = probe(t) * [step(tau) + s(tau)], s on the fixed 0.2-2 THz band.

    The outer product is the one map-sized array made: it is handed to the
    map read-only, so FieldMap2D holds it without a copy.
    """
    tau = np.asarray(tau_grid, dtype=float)
    delay_part = step.evaluate(tau) + synth_oscillation(doped, tau).values
    values = np.multiply.outer(delay_part, probe.values)
    values.setflags(write=False)
    return FieldMap2D(t_grid=probe.times, tau_grid=tau, values=values)


def gaussian_probe(t_grid) -> TimeTrace:
    """Single-cycle probe pulse cos(2 pi 0.7 t) * exp(-t^2 / (2 * 0.5^2)) on t_grid (ps).

    A 0.7 THz cosine under a Gaussian envelope of 0.5 ps standard deviation.
    """
    t = np.asarray(t_grid, dtype=float)
    vals = np.cos(2.0 * math.pi * 0.7 * t) * np.exp(-(t**2) / (2.0 * 0.5**2))
    return TimeTrace(times=t, values=vals)


def add_noise(obj, snr_db: float, seed: int) -> "TimeTrace | FieldMap2D":
    """Additive white Gaussian noise at the given SNR (dB, power ratio to RMS).

    The result is values + default_rng(seed).normal(0.0, sigma, shape) bit for
    bit, with sigma = RMS * 10**(-snr_db / 20) and RMS = sqrt(mean(values**2)),
    taken on the values scaled to unit peak where the squares under- or
    overflow. seed, a non-negative Python or numpy integer, seeds the
    generator, so equal seeds give equal noise. One map-sized array is made:
    it holds the squares, then the noise, then the result, which the returned
    object holds read-only without a copy.
    """
    if not isinstance(seed, (int, np.integer)):
        raise DomainError(f"noise seed must be an integer, got {seed!r}")
    if seed < 0:
        raise DomainError(f"noise seed must be >= 0, got {seed}")
    values = obj.values
    noisy = np.empty(values.shape)  # the squares, then the noise, then the result
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean(np.square(values, out=noisy))))
    if not 0 < rms < math.inf:  # the squares under- or overflow: scale the values to 1
        peak = float(np.max(np.abs(values)))
        if peak == 0:
            raise DomainError("cannot set an SNR for an all-zero signal")
        np.divide(values, peak, out=noisy)
        rms = peak * float(np.sqrt(np.mean(np.square(noisy, out=noisy))))
    try:
        sigma = rms * 10.0 ** (-snr_db / 20.0)
    except OverflowError:
        sigma = math.inf
    if not math.isfinite(sigma):
        raise DomainError(f"SNR {snr_db:g} dB is out of range: its noise level is not finite")
    # rng.normal(0.0, sigma) would draw 0.0 + sigma * z from the same stream
    np.random.default_rng(seed).standard_normal(out=noisy)
    with np.errstate(over="ignore"):
        noisy *= sigma
        if sigma < 2.0**-1000:  # sigma * z may round to -0.0, which 0.0 + sigma * z makes +0.0
            noisy += 0.0
        noisy += values
    noisy.setflags(write=False)
    try:
        return replace(obj, values=noisy)
    except DomainError:  # obj's own check: noisy values past the float range
        raise DomainError(f"signal plus noise leaves the float range, noise {sigma:g}") from None


# --------------------------------------------------------------------------
# Extraction
# --------------------------------------------------------------------------


#: Bytes of map values in one block of rows that _band and _band_peak_column
#: transform at a time, so that a block's transforms stay in cache.
_BLOCK_BYTES = 1 << 18


def _row_blocks(n_tau: int, n_t: int) -> list[slice]:
    """Consecutive slices of the n_tau rows, each of about _BLOCK_BYTES of map values."""
    rows = max(1, _BLOCK_BYTES // (8 * n_t))
    return [slice(start, start + rows) for start in range(0, n_tau, rows)]


def _band(fmap: FieldMap2D, bandwidth: float) -> np.ndarray:
    """The rfft along probe time of the map filtered at bandwidth (THz), on the columns kept.

    Zeroing all 2D Fourier components with radial frequency above bandwidth
    leaves no probe-time column above bandwidth, at any delay frequency. So
    only the rfft columns at or below bandwidth are taken, a block of rows at
    a time, into one (n_tau, kept) complex array, and only they go through
    the delay-axis FFT, the radial mask and its inverse. The inverse real FFT
    of each row, with the columns above bandwidth as zeros, is that row of
    the map with the full 2D spectrum zeroed outside the radius. extract
    cuts the largest-|E| column of that filtered map from the band alone
    (_band_peak_column, _band_column), up to rounding.
    """
    values = fmap.values
    n_tau, n_t = values.shape
    # below a step of about 1e-308/n ps the upper bin frequencies overflow, and
    # once the bin step 1/(n*step) is inf DC is 0*inf: it is set to its exact 0.
    # Below a delay step of about 1e-154 ps the square of a delay frequency
    # overflows. As inf a frequency exceeds any finite bandwidth, and for an
    # infinite one the component is rightly kept, so the mask is the exact one.
    # Map values near the float maximum overflow the FFT sums to inf or nan,
    # which the filtered values then carry
    with np.errstate(over="ignore", invalid="ignore"):
        f_t = np.fft.rfftfreq(n_t, d=fmap.dt)
        f_tau = np.fft.fftfreq(n_tau, d=fmap.dtau)
        f_t[0] = f_tau[0] = 0.0
        f_t = f_t[f_t <= bandwidth]
        band = np.empty((n_tau, f_t.size), dtype=complex)
        for rows in _row_blocks(n_tau, n_t):
            band[rows] = np.fft.rfft(values[rows], axis=1)[:, : f_t.size]
        band = np.fft.fft(band, axis=0)
        band[np.sqrt(np.add.outer(f_tau**2, f_t**2)) > bandwidth] = 0.0
        return np.fft.ifft(band, axis=0)


def _largest_column(col_max: np.ndarray, col_min: np.ndarray) -> int:
    """The column with the largest |E|, from each column's max and min; ties take smaller t."""
    col_peak = np.maximum(col_max, -col_min)
    if np.all(col_peak == 0):
        raise NoSignalError("all-zero field map: no probe maximum to cut at")
    return int(np.argmax(col_peak))


def _band_peak_column(band: np.ndarray, n_t: int) -> int:
    """The largest-|E| column of the n_t-column map whose rows are the irfft of band's.

    The rows are transformed a block at a time, keeping only each column's
    running max and min, so the map is never held whole. They are the rows
    of the whole irfft of the band bit for bit, and so is the column picked.
    A non-finite value is a DomainError, as FieldMap2D reports it.
    """
    col_max, col_min = np.full(n_t, -np.inf), np.full(n_t, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_blocks(band.shape[0], n_t):
            block = np.fft.irfft(band[rows], n=n_t, axis=1)
            np.maximum(col_max, block.max(axis=0), out=col_max)
            np.minimum(col_min, block.min(axis=0), out=col_min)
    if not (np.isfinite(col_max).all() and np.isfinite(col_min).all()):
        raise DomainError("map values must be finite")
    return _largest_column(col_max, col_min)


def _bin_weights(n: int, keep: int) -> np.ndarray:
    """Weights w_k of the first keep rfft bins X_k of n real samples.

    1/n for DC and a kept Nyquist bin (n even), 2/n for the others. Where
    the bins past keep are zero, sample i is sum_k w_k Re(X_k exp(2j pi k i
    / n)) and the sum of squares is sum_k w_k |X_k|**2 (Parseval).
    """
    weights = np.full(keep, 2.0 / n)
    weights[0] = 1.0 / n
    if 2 * (keep - 1) == n:
        weights[-1] = 1.0 / n
    return weights


def _band_column(band: np.ndarray, i: int, n_t: int) -> np.ndarray:
    """Column i of the n_t-column map whose rows are the irfft of band's, as one weighted sum.

    Sample i of each row's irfft is its sum over the band's bins weighted
    by _bin_weights; it equals column i of the whole filtered map up to
    rounding.
    """
    k = np.arange(band.shape[1])
    weights = _bin_weights(n_t, k.size) * np.exp((2j * math.pi / n_t) * (k * i % n_t))
    with np.errstate(over="ignore", invalid="ignore"):
        return (band @ weights).real


def _bin_scales(n: int, dt: float, cutoff: float) -> np.ndarray:
    """The scale of each rfft bin at or below cutoff: the square root of its Parseval weight.

    For n real samples whose spectrum is zero above cutoff, the sum of
    squares is sum_k w_k |X_k|**2 over the kept bins, w_k from _bin_weights.
    """
    keep = int(np.count_nonzero(np.fft.rfftfreq(n, d=dt) <= cutoff))
    return np.sqrt(_bin_weights(n, keep))


def _kept_bins(values: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """rfft of values along the last axis on the kept bins, times scales, as a real view.

    The dot products of these rows are those of the low-passed rows in time.
    """
    return (np.fft.rfft(values)[..., : scales.size] * scales).view(float)


#: Evaluation cap of the step fit; one evaluation transforms the model and
#: its Jacobian once.
_STEP_FIT_MAX_EVALS = 200
#: Relative cost reduction or relative parameter step at which the fit stops.
_STEP_FIT_TOL = 1e-10


def _fit_step(tau, target, a0, scales):
    """Levenberg-Marquardt fit of the low-passed step to target, from (a0, 0, 1 ps).

    target holds the kept bins of the low-passed trace (_kept_bins with scales).
    Returns (p, status, nfev, cost) with cost = 0.5 * sum(residual**2);
    status 2 stops on the cost reduction, 3 on the parameter step and 0 at
    the evaluation cap.
    """
    lower = np.array([-np.inf, tau[0], 1e-3])
    upper = np.array([np.inf, tau[-1], tau[-1] - tau[0]])

    def evaluate(p):
        """Cost, residual and Jacobian rows (partials by a, onset, rise) at p."""
        a, onset, rise = p
        d = tau - onset
        on = d >= 0
        e = np.where(on, np.exp(-np.maximum(d, 0.0) / rise), 0.0)
        g = np.where(on, 1.0 - e, 0.0)
        rows = np.stack((a * g, g, -a * e / rise, -a * e * (d / rise) / rise))
        rows = _kept_bins(rows, scales)
        resid = rows[0] - target
        return 0.5 * float(resid @ resid), resid, rows[1:]

    p = np.clip([a0, 0.0, 1.0], lower, upper)
    cost, resid, jac = evaluate(p)
    nfev, lam, grow, col_sq = 1, 1e-3, 2.0, np.zeros(3)
    while nfev < _STEP_FIT_MAX_EVALS:
        jtj = jac @ jac.T
        # Marquardt scaling by the largest squared column norm seen so far
        col_sq = np.maximum(col_sq, np.diag(jtj))
        damp = np.where(col_sq > 0, col_sq, 1.0)
        grad = jac @ resid
        # a parameter on a bound that descent pushes outwards stays put
        free = ~(((p <= lower) & (grad > 0)) | ((p >= upper) & (grad < 0)))
        system = (jtj + lam * np.diag(damp))[np.ix_(free, free)]
        step = np.zeros(3)
        step[free] = np.linalg.lstsq(system, -grad[free], rcond=None)[0]
        trial = np.clip(p + step, lower, upper)
        new_cost, new_resid, new_jac = evaluate(trial)
        nfev += 1
        step = trial - p
        root = np.sqrt(damp)
        small_step = np.linalg.norm(root * step) <= _STEP_FIT_TOL * np.linalg.norm(root * p)
        if new_cost < cost:
            # Nielsen's update: the damping falls only as far as the
            # quadratic model predicted the drop
            predicted = -(step @ grad) - 0.5 * (step @ jtj @ step)
            gain = (cost - new_cost) / predicted if predicted > 0 else 1.0
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            grow = 2.0
            small_drop = cost - new_cost <= _STEP_FIT_TOL * cost
            p, cost, resid, jac = trial, new_cost, new_resid, new_jac
            if small_drop:
                return p, 2, nfev, cost
        else:
            lam *= grow
            grow *= 2.0
        if small_step:
            return p, 3, nfev, cost
    return p, 0, nfev, cost


def remove_step(trace: TimeTrace) -> tuple[TimeTrace, StepModel]:
    """Fit and subtract the exponential-rise step, leaving the oscillation.

    The fit compares copies of trace and model low-passed at BAND_LO / 2
    (0.2 THz), so the in-band oscillation cannot bias the step parameters;
    the returned residual is the raw trace minus the unfiltered fitted step.
    The comparison runs on the rfft bins at or below the cutoff, each scaled
    by the square root of its Parseval weight (1/n for DC and a kept Nyquist
    bin, 2/n for the others): the cost is then half the sum of squares of the
    low-passed residual in time, without transforming back.

    The fit is Levenberg-Marquardt on the trace divided by its largest |value|,
    so it does not depend on the trace's scale. The Jacobian is in closed form
    (with d = tau - onset and e = exp(-d/rise) for d >= 0, the columns are
    1 - e, -a*e/rise and -a*e*d/rise**2) and goes through the same kept,
    scaled bins as the model. It starts from onset 0 and rise 1 ps, clipped into
    the box onset in [tau_0, tau_end], rise in [1e-3 ps, span]; the amplitude
    is free. Each step is clipped into the same box, and a parameter on a
    bound that descent pushes outwards is held there. The fit stops when an
    accepted step lowers the cost by at most a relative 1e-10, or a step moves
    the column-norm-scaled parameters by at most a relative 1e-10, and fails
    with StepFitError at the evaluation cap of 200. Its message gives the cost
    of that normalized fit, at unit peak, and the last parameters at the
    trace's scale.

    The cap is 200 because steps under oscillation and 10-40 dB noise converge
    within 36 evaluations (median 6), while the traces that reach the cap are
    mostly spikes on a zero or flat trace, which hold no step. Uncapped, the
    fit crawls along a flat valley for hundreds of evaluations to a step that
    is not there.
    """
    times = trace.times
    if not (times[0] < 0.0 < times[-1]):
        raise DomainError("trace must span delays before and after zero")

    x = trace.values
    if np.all(x == 0):
        return (
            TimeTrace(times=times, values=np.zeros_like(x)),
            StepModel(amplitude=0.0, rise_time=1.0, onset=0.0),
        )
    span = float(times[-1] - times[0])
    if span < 1e-3:
        raise DomainError(
            f"delay span {span:g} ps is below the 1e-3 ps shortest rise time of the step fit"
        )

    peak = float(np.max(np.abs(x)))
    scales = _bin_scales(x.size, trace.dt, BAND_LO / 2.0)
    spec = np.fft.rfft(x / peak)[: scales.size]
    target = np.fft.irfft(spec, n=x.size)
    tail = target[int(0.75 * target.size) :]
    a0 = float(np.mean(tail))
    if a0 == 0.0:
        a0 = float(target[np.argmax(np.abs(target))])
    p, status, nfev, cost = _fit_step(times, (spec * scales).view(float), a0, scales)
    a, t0, r = float(p[0]) * peak, float(p[1]), float(p[2])
    if status == 0:
        raise StepFitError(
            f"step fit failed (status {status}): no convergence within {nfev} evaluations, "
            f"cost {cost:g} at unit peak; "
            f"last parameters a={a:g}, onset={t0:g} ps, rise={r:g} ps"
        )
    step = StepModel(amplitude=a, rise_time=r, onset=t0)
    return TimeTrace(times=times, values=x - step.evaluate(times)), step


def spectrum_of(trace: TimeTrace, onset: float = 0.0) -> Spectrum:
    """One-sided windowed amplitude spectrum of the trace restricted to times >= onset.

    The window is the decaying half of a Hann window, w_j = cos(pi*j/(2n))**2
    for the n samples j = 0..n-1 from the onset on: a line that dies soon
    after the onset keeps full weight, and the noise at the record's end
    gets little. Amplitudes are scaled by 2/sum(w) (coherent window gain
    compensated), so a pure cosine of amplitude A on bin k reports
    A*|1 + W(2k)/W(0)|, with W the window's DFT and W(0) = sum(w) = (n + 1)/2:
    the image term at -k adds about 1/n. The DC and Nyquist bins carry no
    one-sided doubling.
    """
    dt = trace.dt
    sel = trace.times >= onset - 1e-9 * dt
    x = trace.values[sel]
    if x.size < _MIN_SAMPLES:
        raise GridError(f"fewer than {_MIN_SAMPLES} samples at or after onset {onset:g} ps")
    n = x.size
    # checked in the order rfftfreq forms the bins: the largest is (n // 2) * (1 / (n * dt))
    if not math.isfinite(n // 2 * (1.0 / (n * dt))):
        raise GridError(
            f"time step {dt:g} ps is too small for a {n}-sample spectrum: "
            "its bin frequencies exceed the float range"
        )
    w = np.cos((0.5 * np.pi / n) * np.arange(n)) ** 2
    # values near the float maximum overflow the FFT sums or their moduli
    with np.errstate(over="ignore", invalid="ignore"):
        amps = np.abs(np.fft.rfft(x * w))
    if not np.isfinite(amps).all():
        raise DomainError(
            f"trace values up to {np.max(np.abs(x)):g} overflow the spectrum's Fourier sums"
        )
    freqs = np.fft.rfftfreq(n, d=dt)
    amps *= 2.0 / np.sum(w)
    amps[0] *= 0.5
    if n % 2 == 0:
        amps[-1] *= 0.5
    return Spectrum(frequencies=freqs, values=amps)


def peak_report(spectrum: Spectrum) -> PeakReport:
    """Vertex of the parabola through the three samples around the maximum, and the full width.

    With the samples y0 < y1 >= y2 scaled by their largest |value|, cell widths
    h0 and h1, w0 = (y1 - y0)*h1 and w1 = (y1 - y2)*h0, the vertex lies
    off = (w0*h1 - w1*h0) / (2*(w0 + w1)) from the maximum (0 on a flat top), a
    weighted mean of -h0/2 and h1/2. Its value is y1 + off*(w0*h1 - w1*h0) /
    (2*h0*h1*(h0 + h1)), scaled back. PeakError unless the maximum is interior
    and above half that amplitude, the interpolated half-maximum crossings lie
    in the band on both sides and differ, and the amplitude is finite.
    """
    freqs, vals = spectrum.frequencies, spectrum.values
    i = int(np.argmax(vals))
    if i == 0 or i == vals.size - 1:
        raise EdgePeakError(
            f"spectrum maximum at the band edge ({freqs[i]:g} THz): no interior peak"
        )

    # In Python floats an overflow is inf without a warning. argmax takes the
    # first maximum, so y0 < y1 and scale > 0. The widths are in units of the
    # smaller, so that no product of them underflows and each divisor is >= 1
    x0, x1, x2 = freqs[i - 1 : i + 2].tolist()
    y3 = vals[i - 1 : i + 2].tolist()
    scale = max(map(abs, y3))
    y0, y1, y2 = (y / scale for y in y3)
    unit = min(x1 - x0, x2 - x1)
    h0, h1 = (x1 - x0) / unit, (x2 - x1) / unit
    w0, w1 = (y1 - y0) * h1, (y1 - y2) * h0
    skew = w0 * h1 - w1 * h0
    off = 0.5 * skew / (w0 + w1) if w0 + w1 > 0 else 0.0
    peak_freq = x1 + off * unit
    amplitude = scale * (y1 + 0.5 * (off / h0) * (skew / (h0 + h1) / h1))
    if not math.isfinite(amplitude):
        raise PeakError(
            f"peak fit leaves the float range: spectrum values reach {np.max(np.abs(vals)):g}"
        )

    half = amplitude / 2.0
    if not vals[i] > half:  # then both walks start above half
        raise PeakError(f"peak sample {vals[i]:g} not above half maximum {half:g}")

    def crossing(step: int) -> float:
        j = i
        while 0 <= j + step < vals.size:
            k = j + step
            if vals[k] <= half:  # interpolate linearly between j and k; the fraction is in (0, 1]
                vj, vk, fj, fk = float(vals[j]), float(vals[k]), float(freqs[j]), float(freqs[k])
                return fj + (vj - half) / (vj - vk) * (fk - fj)
            j = k
        raise UnboundedWidthError(
            f"no half-maximum crossing {'above' if step > 0 else 'below'} the peak inside the band"
        )

    left = crossing(-1)
    fwhm = crossing(+1) - left
    if not fwhm > 0:
        raise PeakError(f"half-maximum crossings round onto the peak at {freqs[i]:g} THz")
    return PeakReport(peak_frequency=peak_freq, fwhm=fwhm, amplitude=amplitude)


@dataclass(frozen=True)
class ExtractionResult:
    oscillation: TimeTrace
    step: StepModel
    spectrum: Spectrum
    peak: PeakReport


def extract(fmap: FieldMap2D) -> ExtractionResult:
    """Full pipeline: 2D filter, cut at probe max, step removal, windowed spectrum, peak.

    The filter radius is FILTER_BANDWIDTH (4 THz). The filtered map is never
    built: the probe maximum is read from the band (_band) through blockwise
    inverse transforms, and only the column cut there is formed from it, so
    the largest arrays made are the band and its delay-axis transforms. The
    trace equals the largest-|E| column of the whole filtered map, up to
    rounding (tests/test_filter_oracle.py). The step fit low-passes at
    BAND_LO / 2; the spectrum from the fitted onset on is weighted by
    spectrum_of's decaying half-Hann window. The peak's FWHM is
    the width of that windowed modulus, so it depends on the window and on
    the record's length, not on the line alone.
    """
    band = _band(fmap, FILTER_BANDWIDTH)
    n_t = fmap.t_grid.size
    column = _band_column(band, _band_peak_column(band, n_t), n_t)
    osc, step = remove_step(TimeTrace(times=fmap.tau_grid, values=column))
    spec = spectrum_of(osc, onset=step.onset)
    return ExtractionResult(oscillation=osc, step=step, spectrum=spec, peak=peak_report(spec))


# --------------------------------------------------------------------------
# CSV tables: '#' meta lines, a header line, rows of as many comma-separated cells.
# dielectric._write_table writes them (the CLI's key,value tables too), bit-exactly.
# --------------------------------------------------------------------------

_HEADERS = {"trace": "tau_ps,amplitude", "spectrum": "nu_THz,amplitude"}
_MAP_CORNER = "tau_ps\\t_ps"


def _float_row(cells, lineno, kind, width):
    """The cells as floats; a DomainError naming the line unless they are width floats."""
    try:
        row = list(map(float, cells))
    except ValueError:
        raise DomainError(f"{kind} CSV line {lineno}: non-numeric cell") from None
    if len(row) != width:
        raise DomainError(f"{kind} CSV line {lineno}: {len(row)} values, the header has {width}")
    return row


def _check_header(kind, cells, lineno):
    """A map header's probe times, None for a two-column table; DomainError for a wrong header."""
    if kind in _HEADERS:
        if cells != _HEADERS[kind].split(","):
            raise DomainError(f"{kind} CSV must start with header '{_HEADERS[kind]}'")
        return None
    if not cells:
        raise DomainError("empty map CSV")
    if cells[0] != _MAP_CORNER:
        raise DomainError(f"map CSV must start with corner cell '{_MAP_CORNER}'")
    return np.array(_float_row(cells[1:], lineno, kind, len(cells) - 1))


def _read_table(fh, kind: str):
    """_check_header's result and the (rows, cells) float array of the kind table in fh.

    Blank and '#' lines are skipped. The first other line is the header (its
    stripped cells go to _check_header, [] if there is none); each later line
    is a row of as many floats as the header has cells.
    """
    width = None
    rows = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if width is None:
            header, width = _check_header(kind, [c.strip() for c in cells], lineno), len(cells)
        else:
            rows.append(_float_row(cells, lineno, kind, width))
    if width is None:
        _check_header(kind, [], None)  # raises
    return header, np.array(rows).reshape(-1, width)


def write_trace_csv(trace: TimeTrace, fh, meta=()) -> None:
    _write_table(fh, meta, _HEADERS["trace"], np.column_stack((trace.times, trace.values)))


def read_trace_csv(fh) -> TimeTrace:
    data = _read_table(fh, "trace")[1]
    return TimeTrace(times=data[:, 0], values=data[:, 1])


def write_spectrum_csv(spectrum: Spectrum, fh, meta=()) -> None:
    table = np.column_stack((spectrum.frequencies, spectrum.values))
    _write_table(fh, meta, _HEADERS["spectrum"], table)


def read_spectrum_csv(fh) -> Spectrum:
    data = _read_table(fh, "spectrum")[1]
    return Spectrum(frequencies=data[:, 0], values=data[:, 1])


def write_map_csv(fmap: FieldMap2D, fh, meta=()) -> None:
    header = ",".join([_MAP_CORNER, *map(str, fmap.t_grid.tolist())])
    _write_table(fh, meta, header, np.column_stack((fmap.tau_grid, fmap.values)))


def read_map_csv(fh) -> FieldMap2D:
    """Each row of a map table is a delay, then one value per probe time of the header."""
    t_grid, data = _read_table(fh, "map")
    return FieldMap2D(t_grid=t_grid, tau_grid=data[:, 0], values=data[:, 1:])
