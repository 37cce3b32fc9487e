"""Trace, spectrum and map CSV round trips are bit-exact for any finite floats.

The values are drawn from all finite floats, with -0.0, the smallest
subnormal and +-1.7e308 mixed in. The grids are k * 2**e for consecutive
integers k, so every grid is exactly uniform from subnormal to near-overflow
spacing.
"""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from impostoron.polaron import Spectrum
from impostoron.signal import (
    FieldMap2D,
    TimeTrace,
    read_map_csv,
    read_spectrum_csv,
    read_trace_csv,
    write_map_csv,
    write_spectrum_csv,
    write_trace_csv,
)

finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308]),
)


@st.composite
def grids(draw, min_size):
    """Exactly uniform grids (k0 + j) * 2**e; |k| <= 80 keeps the span finite."""
    n = draw(st.integers(min_size, 40))
    k0 = draw(st.integers(-40, 40))
    e = draw(st.integers(-1074, 1016))
    return (np.arange(n) + k0) * 2.0**e


def round_trip(write, read, obj):
    buf = io.StringIO()
    write(obj, buf, meta=("impostoron test",))
    buf.seek(0)
    return read(buf)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_trace_round_trip_bit_exact(data):
    times = data.draw(grids(16))
    trace = TimeTrace(times=times, values=data.draw(arrays(float, times.size, elements=finite)))
    back = round_trip(write_trace_csv, read_trace_csv, trace)
    assert back.times.tobytes() == trace.times.tobytes()
    assert back.values.tobytes() == trace.values.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_spectrum_round_trip_bit_exact(data):
    freqs = data.draw(grids(2))
    spec = Spectrum(frequencies=freqs, values=data.draw(arrays(float, freqs.size, elements=finite)))
    back = round_trip(write_spectrum_csv, read_spectrum_csv, spec)
    assert back.frequencies.tobytes() == spec.frequencies.tobytes()
    assert back.values.tobytes() == spec.values.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_map_round_trip_bit_exact(data):
    t, tau = data.draw(grids(16)), data.draw(grids(16))
    values = data.draw(arrays(float, (tau.size, t.size), elements=finite))
    fmap = FieldMap2D(t_grid=t, tau_grid=tau, values=values)
    back = round_trip(write_map_csv, read_map_csv, fmap)
    assert back.t_grid.tobytes() == fmap.t_grid.tobytes()
    assert back.tau_grid.tobytes() == fmap.tau_grid.tobytes()
    assert back.values.tobytes() == fmap.values.tobytes()
