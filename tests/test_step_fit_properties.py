"""remove_step, fed arbitrary finite traces that span zero, raises only ImpostoronError.

The traces have 16-512 samples, a delay step from 1e-6 to 1 ps and values up
to +-1e300, either drawn freely or as a noisy step of any scale. The suite
turns numpy's RuntimeWarning into an error, so an overflow or invalid value
inside the fit fails the test too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from impostoron.errors import ImpostoronError
from impostoron.signal import TimeTrace, remove_step

magnitudes = st.floats(-1e300, 1e300, allow_nan=False)


@st.composite
def traces(draw):
    n = draw(st.integers(16, 512))
    dt = draw(st.floats(-6.0, 0.0).map(lambda e: 10.0**e))
    before = draw(st.integers(1, n - 2))
    times = (np.arange(n) - before) * dt
    if draw(st.booleans()):
        values = draw(arrays(float, n, elements=magnitudes))
    else:
        amplitude = draw(magnitudes)
        rise = draw(st.floats(1e-3, 10.0))
        noise = draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
        step = np.where(times >= 0, 1.0 - np.exp(-np.maximum(times, 0.0) / rise), 0.0)
        values = amplitude * (step + draw(st.floats(0.0, 1.0)) * noise)
    return TimeTrace(times=times, values=values)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(trace=traces())
def test_arbitrary_trace_raises_only_impostoron_errors(trace):
    try:
        osc, step = remove_step(trace)
    except ImpostoronError:
        return
    span = trace.times[-1] - trace.times[0]
    assert trace.times[0] <= step.onset <= trace.times[-1]
    assert 1e-3 <= step.rise_time <= span or step.amplitude == 0.0
