"""remove_step against scipy's least_squares on the same objective, start and box.

The reference is written out here rather than taken from the package: the
low-pass of the exponential-rise step is compared with the low-pass of the
trace, starting from a = mean of the last quarter of the filtered trace,
onset 0 and rise 1 ps, with onset in [tau_0, tau_end] and rise in
[1e-3 ps, span].
"""

import re

import numpy as np
import pytest
from scipy.optimize import least_squares

from impostoron import signal
from impostoron.errors import StepFitError
from impostoron.matching import ce_for_nu0
from impostoron.mixing import Concentration, DopedLiquid
from impostoron.signal import StepModel, TimeTrace, add_noise, remove_step, synth_oscillation

CUTOFF = signal.BAND_LO / 2.0
STEP = StepModel(amplitude=0.8, rise_time=1.1, onset=0.0)


def lowpass(values, dt):
    spec = np.fft.rfft(values)
    spec[np.fft.rfftfreq(values.size, d=dt) > CUTOFF] = 0.0
    return np.fft.irfft(spec, n=values.size)


def reference_objective(trace):
    tau, dt = trace.times, trace.dt
    target = lowpass(trace.values, dt)

    def objective(p):
        a, onset, rise = p
        d = tau - onset
        step = np.where(d >= 0, a * (1.0 - np.exp(-np.maximum(d, 0.0) / rise)), 0.0)
        return lowpass(step, dt) - target

    return target, objective


def reference_fit(trace):
    """(parameters a, onset, rise; cost; objective) of least_squares."""
    target, objective = reference_objective(trace)
    a0 = float(np.mean(target[int(0.75 * target.size) :]))
    tau = trace.times
    fit = least_squares(
        objective,
        np.array([a0, 0.0, 1.0]),
        bounds=([-np.inf, tau[0], 1e-3], [np.inf, tau[-1], tau[-1] - tau[0]]),
    )
    assert fit.success, fit.message
    return fit.x, fit.cost, objective


def cost(objective, step):
    r = objective([step.amplitude, step.onset, step.rise_time])
    return 0.5 * float(r @ r)


@pytest.mark.parametrize("leak", [0.0, 0.05, 0.2])
def test_parameters_agree_with_least_squares(liquids, leak):
    tau = (np.arange(512) - 64) * 0.1
    water = liquids["water"]
    osc = synth_oscillation(DopedLiquid(water, ce_for_nu0(water, 0.7)), tau).values
    trace = TimeTrace(times=tau, values=STEP.evaluate(tau) + leak * osc)
    (a, onset, rise), _, _ = reference_fit(trace)
    _, step = remove_step(trace)
    assert step.amplitude == pytest.approx(a, rel=1e-6)
    assert step.rise_time == pytest.approx(rise, rel=1e-6)
    # the onset is a position: it is compared on the scale of the rise time
    assert step.onset == pytest.approx(onset, abs=1e-6 * rise)


NOISY = [
    (stem, ce, snr)
    for stem in ("water", "eg", "ipa")
    for ce in (15.0, 40.0)
    for snr in (10.0, 25.0, 40.0)
]


@pytest.mark.parametrize("stem, ce, snr", NOISY)
def test_cost_no_worse_than_least_squares(liquids, stem, ce, snr):
    tau = (np.arange(4096) - 64) * 0.1
    doped = DopedLiquid(liquids[stem], Concentration.from_micromolar(ce))
    clean = TimeTrace(times=tau, values=STEP.evaluate(tau) + synth_oscillation(doped, tau).values)
    trace = add_noise(clean, snr, seed=NOISY.index((stem, ce, snr)))
    _, ref_cost, objective = reference_fit(trace)
    _, step = remove_step(trace)
    assert cost(objective, step) <= ref_cost * (1.0 + 1e-9)


def test_evaluation_cap_raises_step_fit_error(monkeypatch):
    tau = (np.arange(512) - 64) * 0.1
    trace = TimeTrace(times=tau, values=STEP.evaluate(tau) + 0.05 * np.cos(1.4 * np.pi * tau))
    monkeypatch.setattr(signal, "_STEP_FIT_MAX_EVALS", 1)
    with pytest.raises(StepFitError) as info:
        remove_step(trace)
    number = r"[-+0-9.e]+"
    assert re.fullmatch(
        rf"step fit failed \(status 0\): no convergence within 1 evaluations, cost {number}; "
        rf"last parameters a={number}, onset=0 ps, rise=1 ps",
        str(info.value),
    ), str(info.value)
