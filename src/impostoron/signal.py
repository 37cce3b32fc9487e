"""Synthetic THz pump-probe signals and the oscillation-extraction pipeline.

The measured nonlinear field is modeled as separable in probe time t and
pump-probe delay tau:

    E(t, tau) = E_probe(t) * [ step(tau) + oscillation(tau) ]

where the step is an exponential-rise Heaviside and the oscillation is a
causal cosine sum whose amplitude spectrum follows the doped liquid's
energy-loss line shape. Extraction runs the reverse chain: 2D low-pass
filter, cut at the probe maximum, step removal, windowed spectrum, peak
analysis.

All times are ps and all frequencies THz (1/ps = 1 THz, so FFT bin
frequencies need no conversion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .errors import (
    DegenerateLineshapeError,
    DomainError,
    EdgePeakError,
    GridError,
    NoSignalError,
    StepFitError,
    UnboundedWidthError,
)
from .mixing import DopedLiquid
from .polaron import Spectrum, lineshape

#: Default radial cutoff (THz) of the 2D Fourier filter.
FILTER_BANDWIDTH = 4.0

#: Default synthesis band (THz) for the oscillation's spectral content.
DEFAULT_BAND = (0.2, 2.0)

#: Default lower edge (THz) of the expected resonance band; the step-removal
#: low-pass cuts at half this value.
BAND_LO = 0.4

_MIN_SAMPLES = 16
_GRID_RTOL = 1e-9


def _uniform_step(grid: np.ndarray, label: str) -> float:
    if grid.ndim != 1 or grid.size < _MIN_SAMPLES:
        raise DomainError(f"{label} grid needs at least {_MIN_SAMPLES} samples")
    if not np.all(np.isfinite(grid)):
        raise DomainError(f"{label} grid must be finite")
    step = (grid[-1] - grid[0]) / (grid.size - 1)
    if step <= 0:
        raise DomainError(f"{label} grid must be increasing")
    if np.max(np.abs(np.diff(grid) - step)) > _GRID_RTOL * abs(step):
        raise DomainError(f"{label} grid spacing is not uniform")
    return float(step)


def _readonly(a, dtype=float):
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeTrace:
    """Real samples on a uniform time grid (ps)."""

    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        times = _readonly(self.times)
        values = _readonly(self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        _uniform_step(times, "time")
        if values.shape != times.shape:
            raise DomainError("times and values must have equal length")
        if not np.all(np.isfinite(values)):
            raise DomainError("trace values must be finite")

    @property
    def dt(self) -> float:
        return float((self.times[-1] - self.times[0]) / (self.times.size - 1))


@dataclass(frozen=True)
class FieldMap2D:
    """Real field samples over probe time (columns) and delay (rows), both ps."""

    t_grid: np.ndarray = field(repr=False)
    tau_grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = _readonly(self.t_grid)
        tau = _readonly(self.tau_grid)
        vals = _readonly(self.values)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "tau_grid", tau)
        object.__setattr__(self, "values", vals)
        _uniform_step(t, "probe-time")
        _uniform_step(tau, "delay")
        if vals.shape != (tau.size, t.size):
            raise DomainError(
                f"map shape {vals.shape} does not match (n_tau, n_t) = ({tau.size}, {t.size})"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("map values must be finite")

    @property
    def dt(self) -> float:
        return float((self.t_grid[-1] - self.t_grid[0]) / (self.t_grid.size - 1))

    @property
    def dtau(self) -> float:
        return float((self.tau_grid[-1] - self.tau_grid[0]) / (self.tau_grid.size - 1))


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
        tau = np.asarray(tau, dtype=float)
        d = tau - self.onset
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


def synth_oscillation(
    doped: DopedLiquid, tau_grid, band: tuple[float, float] = DEFAULT_BAND
) -> TimeTrace:
    """Causal oscillation whose amplitude spectrum follows the line shape.

    s(tau) = H(tau) * sum_k A(nu_k) cos(2 pi nu_k tau) * dnu over the FFT bin
    frequencies nu_k of the grid that fall inside the band, with A the line
    shape normalized to unit maximum. The grid Nyquist frequency must exceed
    the band's upper edge.
    """
    tau = np.asarray(tau_grid, dtype=float)
    dtau = _uniform_step(tau, "delay")
    lo, hi = float(band[0]), float(band[1])
    if not (0 < lo < hi):
        raise DomainError(f"bad synthesis band [{lo}, {hi}] THz")
    if 1.0 / (2.0 * dtau) <= hi:
        raise GridError(
            f"Nyquist frequency {1.0 / (2.0 * dtau):g} THz does not cover band edge {hi:g} THz"
        )
    n = tau.size
    dnu = 1.0 / (n * dtau)
    freqs = np.arange(n // 2 + 1) * dnu
    sel = (freqs >= lo) & (freqs <= hi)
    if not np.any(sel):
        raise GridError("synthesis band contains no spectral bins of this grid")
    freqs = freqs[sel]
    amps = lineshape(doped, freqs).values
    peak = amps.max()
    if peak <= 0:
        raise DegenerateLineshapeError(
            "line shape is identically zero in the band: lossless medium"
        )
    amps = amps / peak

    s = np.zeros(n)
    for start in range(0, freqs.size, 256):
        f = freqs[start : start + 256]
        a = amps[start : start + 256]
        s += np.cos(2.0 * math.pi * tau[:, None] * f[None, :]) @ a
    s *= dnu
    s[tau < 0] = 0.0
    return TimeTrace(times=tau, values=s)


def synth_map(
    doped: DopedLiquid,
    probe: TimeTrace,
    step: StepModel,
    tau_grid,
    band: tuple[float, float] = DEFAULT_BAND,
    osc_scale: float = 1.0,
) -> FieldMap2D:
    """Separable pump-probe map E(t, tau) = probe(t) * [step(tau) + osc_scale * s(tau)].

    osc_scale = 0 skips the oscillation synthesis entirely (useful for
    step-only references).
    """
    tau = np.asarray(tau_grid, dtype=float)
    if osc_scale != 0.0:
        osc = osc_scale * synth_oscillation(doped, tau, band).values
    else:
        _uniform_step(tau, "delay")
        osc = np.zeros(tau.size)
    delay_part = step.evaluate(tau) + osc
    return FieldMap2D(
        t_grid=probe.times,
        tau_grid=tau,
        values=delay_part[:, None] * probe.values[None, :],
    )


def gaussian_probe(t_grid, carrier: float = 0.7, width: float = 0.5) -> TimeTrace:
    """Single-cycle probe pulse: cos(2 pi carrier t) * exp(-t^2 / (2 width^2))."""
    t = np.asarray(t_grid, dtype=float)
    if carrier <= 0 or width <= 0:
        raise DomainError("probe carrier and width must be positive")
    vals = np.cos(2.0 * math.pi * carrier * t) * np.exp(-(t**2) / (2.0 * width**2))
    return TimeTrace(times=t, values=vals)


def add_noise(obj, snr_db: float, rng) -> "TimeTrace | FieldMap2D":
    """Additive white Gaussian noise at the given SNR (dB, power ratio to RMS).

    rng is a numpy Generator or an integer seed.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    values = obj.values
    rms = float(np.sqrt(np.mean(values**2)))
    if rms == 0:
        raise DomainError("cannot set an SNR for an all-zero signal")
    sigma = rms * 10.0 ** (-snr_db / 20.0)
    noisy = values + rng.normal(0.0, sigma, size=values.shape)
    if isinstance(obj, TimeTrace):
        return TimeTrace(times=obj.times, values=noisy)
    return FieldMap2D(t_grid=obj.t_grid, tau_grid=obj.tau_grid, values=noisy)


# --------------------------------------------------------------------------
# Extraction
# --------------------------------------------------------------------------


def fourier_filter_2d(fmap: FieldMap2D, bandwidth: float = FILTER_BANDWIDTH) -> FieldMap2D:
    """Zero all 2D Fourier components with radial frequency above bandwidth (THz)."""
    if bandwidth <= 0:
        raise DomainError(f"filter bandwidth must be positive, got {bandwidth} THz")
    f_t = np.fft.fftfreq(fmap.t_grid.size, d=fmap.dt)
    f_tau = np.fft.fftfreq(fmap.tau_grid.size, d=fmap.dtau)
    radial = np.sqrt(f_tau[:, None] ** 2 + f_t[None, :] ** 2)
    spec = np.fft.fft2(fmap.values)
    spec[radial > bandwidth] = 0.0
    return FieldMap2D(
        t_grid=fmap.t_grid,
        tau_grid=fmap.tau_grid,
        values=np.fft.ifft2(spec).real,
    )


def cut_at_max(fmap: FieldMap2D) -> TimeTrace:
    """Delay trace at the probe time with the largest |E|; ties take smaller t."""
    col_peak = np.max(np.abs(fmap.values), axis=0)
    if np.all(col_peak == 0):
        raise NoSignalError("all-zero field map: no probe maximum to cut at")
    i = int(np.argmax(col_peak))
    return TimeTrace(times=fmap.tau_grid, values=fmap.values[:, i])


def _lowpass(values: np.ndarray, dt: float, cutoff: float) -> np.ndarray:
    spec = np.fft.rfft(values)
    freqs = np.fft.rfftfreq(values.size, d=dt)
    spec[freqs > cutoff] = 0.0
    return np.fft.irfft(spec, n=values.size)


def remove_step(
    trace: TimeTrace, band_lo: float = BAND_LO
) -> tuple[TimeTrace, StepModel]:
    """Fit and subtract the exponential-rise step, leaving the oscillation.

    The fit compares low-pass-filtered copies of trace and model (cutoff =
    band_lo / 2) so the in-band oscillation cannot bias the step parameters;
    the returned residual is the raw trace minus the unfiltered fitted step.
    """
    if band_lo <= 0:
        raise DomainError(f"band lower edge must be positive, got {band_lo} THz")
    times = trace.times
    if not (times[0] < 0.0 < times[-1]):
        raise DomainError("trace must span delays before and after zero")

    x = trace.values
    if np.all(x == 0):
        return (
            TimeTrace(times=times, values=np.zeros_like(x)),
            StepModel(amplitude=0.0, rise_time=1.0, onset=0.0),
        )

    dt = trace.dt
    cutoff = band_lo / 2.0
    target = _lowpass(x, dt, cutoff)

    def model(p):
        a, t0, r = p
        d = times - t0
        return np.where(d >= 0, a * (1.0 - np.exp(-np.maximum(d, 0.0) / r)), 0.0)

    def objective(p):
        return _lowpass(model(p), dt, cutoff) - target

    tail = target[int(0.75 * target.size) :]
    a0 = float(np.mean(tail))
    if a0 == 0.0:
        a0 = float(target[np.argmax(np.abs(target))])
    span = float(times[-1] - times[0])
    x0 = np.array([a0, 0.0, 1.0])
    bounds = (
        [-np.inf, float(times[0]), 1e-3],
        [np.inf, float(times[-1]), span],
    )
    fit = least_squares(objective, x0, bounds=bounds)
    if not fit.success:
        raise StepFitError(
            f"step fit failed (status {fit.status}): {fit.message}; "
            f"last parameters a={fit.x[0]:g}, onset={fit.x[1]:g} ps, rise={fit.x[2]:g} ps"
        )
    a, t0, r = (float(v) for v in fit.x)
    fitted = model(fit.x)
    return (
        TimeTrace(times=times, values=x - fitted),
        StepModel(amplitude=a, rise_time=r, onset=t0),
    )


def spectrum_of(trace: TimeTrace, window: str | None = "hann", onset: float = 0.0) -> Spectrum:
    """One-sided amplitude spectrum of the trace restricted to times >= onset.

    Amplitudes are scaled so a pure cosine of amplitude A at a bin frequency
    reports A (coherent window gain compensated); the DC and Nyquist bins
    carry no one-sided doubling.
    """
    dt = trace.dt
    sel = trace.times >= onset - 1e-9 * dt
    x = trace.values[sel]
    if x.size < _MIN_SAMPLES:
        raise GridError(f"fewer than {_MIN_SAMPLES} samples at or after onset {onset:g} ps")
    n = x.size
    if window is None or window == "none":
        w = np.ones(n)
    elif window == "hann":
        w = np.hanning(n)
    else:
        raise DomainError(f"unknown window '{window}'")
    spec = np.fft.rfft(x * w)
    freqs = np.fft.rfftfreq(n, d=dt)
    amps = np.abs(spec) * (2.0 / np.sum(w))
    amps[0] *= 0.5
    if n % 2 == 0:
        amps[-1] *= 0.5
    return Spectrum(frequencies=freqs, values=amps)


def peak_report(spectrum: Spectrum) -> PeakReport:
    """Parabolic peak location plus the linearly interpolated full width.

    The spectrum must have an interior maximum and a half-maximum crossing on
    each side of it within the band.
    """
    freqs = spectrum.frequencies
    vals = spectrum.values
    i = int(np.argmax(vals))
    if i == 0 or i == vals.size - 1:
        raise EdgePeakError(
            f"spectrum maximum at the band edge ({freqs[i]:g} THz): no interior peak"
        )

    x3 = freqs[i - 1 : i + 2]
    y3 = vals[i - 1 : i + 2]
    c2, c1, c0 = np.polyfit(x3 - freqs[i], y3, 2)
    if c2 < 0:
        off = -c1 / (2.0 * c2)
        # keep the vertex inside the 3-point stencil
        off = float(np.clip(off, x3[0] - freqs[i], x3[2] - freqs[i]))
        peak_freq = float(freqs[i] + off)
        amplitude = float(c2 * off**2 + c1 * off + c0)
    else:
        peak_freq = float(freqs[i])
        amplitude = float(vals[i])

    half = amplitude / 2.0

    def crossing(step: int) -> float:
        j = i
        while 0 <= j + step < vals.size:
            k = j + step
            if vals[k] <= half:
                # linear interpolation between j and k
                f = (vals[j] - half) / (vals[j] - vals[k])
                return float(freqs[j] + f * (freqs[k] - freqs[j]))
            j = k
        raise UnboundedWidthError(
            f"no half-maximum crossing {'above' if step > 0 else 'below'} the peak inside the band"
        )

    left = crossing(-1)
    right = crossing(+1)
    return PeakReport(peak_frequency=peak_freq, fwhm=right - left, amplitude=amplitude)


@dataclass(frozen=True)
class ExtractionResult:
    oscillation: TimeTrace
    step: StepModel
    spectrum: Spectrum
    peak: PeakReport


def extract(
    fmap: FieldMap2D,
    bandwidth: float = FILTER_BANDWIDTH,
    band_lo: float = BAND_LO,
    window: str | None = "hann",
) -> ExtractionResult:
    """Full pipeline: 2D filter, cut at probe max, step removal, spectrum, peak."""
    filtered = fourier_filter_2d(fmap, bandwidth)
    trace = cut_at_max(filtered)
    osc, step = remove_step(trace, band_lo)
    spec = spectrum_of(osc, window=window, onset=step.onset)
    return ExtractionResult(oscillation=osc, step=step, spectrum=spec, peak=peak_report(spec))


# --------------------------------------------------------------------------
# CSV round-trip formats. Floats are written with repr so parsing returns
# bit-identical values.
# --------------------------------------------------------------------------

_MAP_CORNER = "tau_ps\\t_ps"


def _write_meta(fh, meta):
    for line in meta or ():
        fh.write(f"# {line}\n")


def _data_lines(fh):
    """(line number, text) of each line that is neither blank nor a comment."""
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def write_trace_csv(trace: TimeTrace, fh, meta=()) -> None:
    _write_meta(fh, meta)
    fh.write("tau_ps,amplitude\n")
    for t, v in zip(trace.times, trace.values):
        fh.write(f"{float(t)!r},{float(v)!r}\n")


def read_trace_csv(fh) -> TimeTrace:
    rows = [line.split(",") for _, line in _data_lines(fh)]
    if not rows or [c.strip() for c in rows[0]] != ["tau_ps", "amplitude"]:
        raise DomainError("trace CSV must start with header 'tau_ps,amplitude'")
    data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    return TimeTrace(times=data[:, 0], values=data[:, 1])


def write_spectrum_csv(spectrum: Spectrum, fh, meta=()) -> None:
    _write_meta(fh, meta)
    fh.write("nu_THz,amplitude\n")
    for f, v in zip(spectrum.frequencies, spectrum.values):
        fh.write(f"{float(f)!r},{float(v)!r}\n")


def read_spectrum_csv(fh) -> Spectrum:
    rows = [line.split(",") for _, line in _data_lines(fh)]
    if not rows or [c.strip() for c in rows[0]] != ["nu_THz", "amplitude"]:
        raise DomainError("spectrum CSV must start with header 'nu_THz,amplitude'")
    data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    return Spectrum(frequencies=data[:, 0], values=data[:, 1])


def write_map_csv(fmap: FieldMap2D, fh, meta=()) -> None:
    _write_meta(fh, meta)
    fh.write(_MAP_CORNER + "," + ",".join(repr(float(t)) for t in fmap.t_grid) + "\n")
    for tau, row in zip(fmap.tau_grid, fmap.values):
        fh.write(repr(float(tau)) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def _map_row(cells, lineno):
    try:
        return [float(v) for v in cells]
    except ValueError:
        raise DomainError(f"map CSV line {lineno}: non-numeric cell") from None


def read_map_csv(fh) -> FieldMap2D:
    lines = list(_data_lines(fh))
    if not lines:
        raise DomainError("empty map CSV")
    head_lineno, head = lines[0]
    head = head.split(",")
    if head[0].strip() != _MAP_CORNER:
        raise DomainError(f"map CSV must start with corner cell '{_MAP_CORNER}'")
    t_grid = np.array(_map_row(head[1:], head_lineno))
    taus = []
    rows = []
    for lineno, line in lines[1:]:
        cells = _map_row(line.split(","), lineno)
        if len(cells) != t_grid.size + 1:
            raise DomainError(
                f"map CSV line {lineno}: {len(cells) - 1} values, the header has {t_grid.size}"
            )
        taus.append(cells[0])
        rows.append(cells[1:])
    return FieldMap2D(t_grid=t_grid, tau_grid=np.array(taus), values=np.array(rows))
