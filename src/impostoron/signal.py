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
from dataclasses import dataclass, field, replace

import numpy as np

from .dielectric import _check_axis, _finite_field, _readonly
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


def synth_oscillation(
    doped: DopedLiquid, tau_grid, band: tuple[float, float] = DEFAULT_BAND
) -> TimeTrace:
    """Causal oscillation whose amplitude spectrum follows the line shape.

    s(tau) = H(tau) * sum_k A(nu_k) cos(2 pi nu_k tau) * dnu over the FFT bin
    frequencies nu_k of the grid that fall inside the band, with A the line
    shape normalized to unit maximum. The grid Nyquist frequency must exceed
    the band's upper edge.

    s is evaluated on the uniform grid tau_0 + j*dtau (dtau from the grid's
    end points) as one inverse real FFT, with A(nu_k) exp(2 pi i nu_k tau_0)
    on each in-band bin; the band holds neither the DC nor the Nyquist bin.
    H is applied at the given delays.
    """
    tau = np.asarray(tau_grid, dtype=float)
    dtau = _uniform_step(tau, "delay grid")
    lo, hi = float(band[0]), float(band[1])
    if not (0 < lo < hi):
        raise DomainError(f"bad synthesis band [{lo}, {hi}] THz")
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


def synth_map(
    doped: DopedLiquid,
    probe: TimeTrace,
    step: StepModel,
    tau_grid,
    band: tuple[float, float] = DEFAULT_BAND,
) -> FieldMap2D:
    """Separable pump-probe map E(t, tau) = probe(t) * [step(tau) + s(tau)]."""
    tau = np.asarray(tau_grid, dtype=float)
    delay_part = step.evaluate(tau) + synth_oscillation(doped, tau, band).values
    return FieldMap2D(
        t_grid=probe.times,
        tau_grid=tau,
        values=delay_part[:, None] * probe.values[None, :],
    )


def gaussian_probe(t_grid) -> TimeTrace:
    """Single-cycle probe pulse cos(2 pi 0.7 t) * exp(-t^2 / (2 * 0.5^2)) on t_grid (ps).

    A 0.7 THz cosine under a Gaussian envelope of 0.5 ps standard deviation.
    """
    t = np.asarray(t_grid, dtype=float)
    vals = np.cos(2.0 * math.pi * 0.7 * t) * np.exp(-(t**2) / (2.0 * 0.5**2))
    return TimeTrace(times=t, values=vals)


def add_noise(obj, snr_db: float, seed: int) -> "TimeTrace | FieldMap2D":
    """Additive white Gaussian noise at the given SNR (dB, power ratio to RMS).

    seed, a non-negative Python or numpy integer, seeds numpy's default_rng,
    so equal seeds give equal noise.
    """
    if not isinstance(seed, (int, np.integer)):
        raise DomainError(f"noise seed must be an integer, got {seed!r}")
    if seed < 0:
        raise DomainError(f"noise seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    values = obj.values
    rms = float(np.sqrt(np.mean(values**2)))
    if rms == 0:
        raise DomainError("cannot set an SNR for an all-zero signal")
    try:
        sigma = rms * 10.0 ** (-snr_db / 20.0)
    except OverflowError:
        sigma = math.inf
    if not math.isfinite(sigma):
        raise DomainError(f"SNR {snr_db:g} dB is out of range: its noise level is not finite")
    noisy = values + rng.normal(0.0, sigma, size=values.shape)
    return replace(obj, values=noisy)


# --------------------------------------------------------------------------
# Extraction
# --------------------------------------------------------------------------


def fourier_filter_2d(fmap: FieldMap2D, bandwidth: float = FILTER_BANDWIDTH) -> FieldMap2D:
    """Zero all 2D Fourier components with radial frequency above bandwidth (THz).

    The map is real, so it takes a real FFT along probe time. A probe-time
    column above bandwidth lies outside the radius at every delay frequency,
    so only the columns at or below bandwidth go through the delay-axis FFT,
    the radial mask and its inverse; the inverse real FFT fills the others
    with zeros. The result is that of zeroing the full 2D spectrum outside
    the radius.
    """
    if not bandwidth > 0:
        raise DomainError(f"filter bandwidth must be positive, got {bandwidth} THz")
    n_t = fmap.t_grid.size
    # below a step of about 1e-308/n ps the upper bin frequencies overflow, and
    # once the bin step 1/(n*step) is inf DC is 0*inf: it is set to its exact 0.
    # Below a delay step of about 1e-154 ps the square of a delay frequency
    # overflows. As inf a frequency exceeds any finite bandwidth, and for an
    # infinite one the component is rightly kept, so the mask is the exact one
    with np.errstate(over="ignore", invalid="ignore"):
        f_t = np.fft.rfftfreq(n_t, d=fmap.dt)
        f_tau = np.fft.fftfreq(fmap.tau_grid.size, d=fmap.dtau)
    f_t[0] = f_tau[0] = 0.0
    f_t = f_t[f_t <= bandwidth]
    spec = np.fft.fft(np.fft.rfft(fmap.values, axis=1)[:, : f_t.size], axis=0)
    with np.errstate(over="ignore"):
        spec[np.sqrt(f_tau[:, None] ** 2 + f_t[None, :] ** 2) > bandwidth] = 0.0
    return replace(fmap, values=np.fft.irfft(np.fft.ifft(spec, axis=0), n=n_t, axis=1))


def cut_at_max(fmap: FieldMap2D) -> TimeTrace:
    """Delay trace at the probe time with the largest |E|; ties take smaller t."""
    col_peak = np.max(np.abs(fmap.values), axis=0)
    if np.all(col_peak == 0):
        raise NoSignalError("all-zero field map: no probe maximum to cut at")
    i = int(np.argmax(col_peak))
    return TimeTrace(times=fmap.tau_grid, values=fmap.values[:, i])


def _lowpass(values: np.ndarray, dt: float, cutoff: float) -> np.ndarray:
    """Zero the Fourier components above cutoff along the last axis."""
    n = values.shape[-1]
    spec = np.fft.rfft(values)
    spec[..., np.fft.rfftfreq(n, d=dt) > cutoff] = 0.0
    return np.fft.irfft(spec, n=n)


#: Evaluation cap of the step fit; one evaluation filters the model and its
#: Jacobian once.
_STEP_FIT_MAX_EVALS = 200
#: Relative cost reduction or relative parameter step at which the fit stops.
_STEP_FIT_TOL = 1e-10


def _fit_step(tau, target, a0, dt, cutoff):
    """Levenberg-Marquardt fit of the low-passed step to target, from (a0, 0, 1 ps).

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
        rows = _lowpass(rows, dt, cutoff)
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


def remove_step(
    trace: TimeTrace, band_lo: float = BAND_LO
) -> tuple[TimeTrace, StepModel]:
    """Fit and subtract the exponential-rise step, leaving the oscillation.

    The fit compares low-pass-filtered copies of trace and model (cutoff =
    band_lo / 2) so the in-band oscillation cannot bias the step parameters;
    the returned residual is the raw trace minus the unfiltered fitted step.

    The fit is Levenberg-Marquardt on the trace divided by its largest |value|,
    so it does not depend on the trace's scale. The Jacobian is in closed form
    (with d = tau - onset and e = exp(-d/rise) for d >= 0, the columns are
    1 - e, -a*e/rise and -a*e*d/rise**2) and goes through the same linear
    low-pass as the model. It starts from onset 0 and rise 1 ps, clipped into
    the box onset in [tau_0, tau_end], rise in [1e-3 ps, span]; the amplitude
    is free. Each step is clipped into the same box, and a parameter on a
    bound that descent pushes outwards is held there. The fit stops when an
    accepted step lowers the cost by at most a relative 1e-10, or a step moves
    the column-norm-scaled parameters by at most a relative 1e-10, and fails
    with StepFitError at the evaluation cap.
    """
    if not band_lo > 0:
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
    span = float(times[-1] - times[0])
    if span < 1e-3:
        raise DomainError(
            f"delay span {span:g} ps is below the 1e-3 ps shortest rise time of the step fit"
        )

    peak = float(np.max(np.abs(x)))
    target = _lowpass(x / peak, trace.dt, band_lo / 2.0)
    tail = target[int(0.75 * target.size) :]
    a0 = float(np.mean(tail))
    if a0 == 0.0:
        a0 = float(target[np.argmax(np.abs(target))])
    p, status, nfev, cost = _fit_step(times, target, a0, trace.dt, band_lo / 2.0)
    a, t0, r = float(p[0]) * peak, float(p[1]), float(p[2])
    if status == 0:
        raise StepFitError(
            f"step fit failed (status {status}): no convergence within {nfev} evaluations, "
            f"cost {cost * peak * peak:g}; "
            f"last parameters a={a:g}, onset={t0:g} ps, rise={r:g} ps"
        )
    step = StepModel(amplitude=a, rise_time=r, onset=t0)
    return TimeTrace(times=times, values=x - step.evaluate(times)), step


def spectrum_of(trace: TimeTrace, onset: float = 0.0) -> Spectrum:
    """One-sided Hann-windowed amplitude spectrum of the trace restricted to times >= onset.

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
    w = np.hanning(n)
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
) -> ExtractionResult:
    """Full pipeline: 2D filter, cut at probe max, step removal, Hann-windowed spectrum, peak."""
    filtered = fourier_filter_2d(fmap, bandwidth)
    trace = cut_at_max(filtered)
    osc, step = remove_step(trace, band_lo)
    spec = spectrum_of(osc, onset=step.onset)
    return ExtractionResult(oscillation=osc, step=step, spectrum=spec, peak=peak_report(spec))


# --------------------------------------------------------------------------
# CSV round-trip formats. Floats are written with repr so parsing returns
# bit-identical values.
# --------------------------------------------------------------------------

_MAP_CORNER = "tau_ps\\t_ps"


def _write_meta(fh, meta):
    for line in meta or ():
        fh.write(f"# {line}\n")


def _write_table(fh, meta, header: str, table: np.ndarray) -> None:
    """Meta comments, the header line, then each row of the 2D float table."""
    _write_meta(fh, meta)
    fh.write(header + "\n")
    for row in table:
        fh.write(",".join(map(repr, row.tolist())) + "\n")


def _data_lines(fh):
    """(line number, text) of each line that is neither blank nor a comment."""
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def write_trace_csv(trace: TimeTrace, fh, meta=()) -> None:
    _write_table(fh, meta, "tau_ps,amplitude", np.column_stack((trace.times, trace.values)))


def _float_row(cells, lineno, kind):
    try:
        return [float(v) for v in cells]
    except ValueError:
        raise DomainError(f"{kind} CSV line {lineno}: non-numeric cell") from None


def _read_two_columns(fh, header: str, kind: str) -> np.ndarray:
    """(n, 2) array of the rows below the header line of a two-column CSV."""
    lines = list(_data_lines(fh))
    if not lines or [c.strip() for c in lines[0][1].split(",")] != header.split(","):
        raise DomainError(f"{kind} CSV must start with header '{header}'")
    rows = []
    for lineno, line in lines[1:]:
        cells = _float_row(line.split(","), lineno, kind)
        if len(cells) != 2:
            raise DomainError(f"{kind} CSV line {lineno}: {len(cells)} values, the header has 2")
        rows.append(cells)
    return np.array(rows).reshape(-1, 2)


def read_trace_csv(fh) -> TimeTrace:
    data = _read_two_columns(fh, "tau_ps,amplitude", "trace")
    return TimeTrace(times=data[:, 0], values=data[:, 1])


def write_spectrum_csv(spectrum: Spectrum, fh, meta=()) -> None:
    table = np.column_stack((spectrum.frequencies, spectrum.values))
    _write_table(fh, meta, "nu_THz,amplitude", table)


def read_spectrum_csv(fh) -> Spectrum:
    data = _read_two_columns(fh, "nu_THz,amplitude", "spectrum")
    return Spectrum(frequencies=data[:, 0], values=data[:, 1])


def write_map_csv(fmap: FieldMap2D, fh, meta=()) -> None:
    header = ",".join([_MAP_CORNER, *map(repr, fmap.t_grid.tolist())])
    _write_table(fh, meta, header, np.column_stack((fmap.tau_grid, fmap.values)))


def read_map_csv(fh) -> FieldMap2D:
    lines = list(_data_lines(fh))
    if not lines:
        raise DomainError("empty map CSV")
    head_lineno, head = lines[0]
    head = head.split(",")
    if head[0].strip() != _MAP_CORNER:
        raise DomainError(f"map CSV must start with corner cell '{_MAP_CORNER}'")
    t_grid = np.array(_float_row(head[1:], head_lineno, "map"))
    taus = []
    rows = []
    for lineno, line in lines[1:]:
        cells = _float_row(line.split(","), lineno, "map")
        if len(cells) != t_grid.size + 1:
            raise DomainError(
                f"map CSV line {lineno}: {len(cells) - 1} values, the header has {t_grid.size}"
            )
        taus.append(cells[0])
        rows.append(cells[1:])
    return FieldMap2D(t_grid=t_grid, tau_grid=np.array(taus), values=np.array(rows))
