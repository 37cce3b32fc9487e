"""The text parsers, fed arbitrary text, raise only ImpostoronError subclasses.

Each parser gets unstructured text, and text that starts with its own header
(or another parser's) followed by comma-separated cells, so the row-level
checks are reached as well as the header checks.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impostoron.dielectric import loads_liquid
from impostoron.errors import ImpostoronError
from impostoron.signal import read_map_csv, read_spectrum_csv, read_trace_csv

PARSERS = {
    "loads_liquid": loads_liquid,
    "read_map_csv": lambda text: read_map_csv(io.StringIO(text)),
    "read_trace_csv": lambda text: read_trace_csv(io.StringIO(text)),
    "read_spectrum_csv": lambda text: read_spectrum_csv(io.StringIO(text)),
}

HEADERS = (
    "name = x\ntype = table\ncolumns = nu_THz, eps_real, eps_imag\n",
    "name = x\ntype = debye\n",
    "tau_ps\\t_ps,",
    "tau_ps,amplitude\n",
    "nu_THz,amplitude\n",
)

cells = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 40).map(str),
    st.sampled_from(["", " ", "x", "nan", "-inf", "1e400", "=", "#", "eps_inf = 2"]),
)
rows = st.lists(cells, max_size=5).map(",".join)
tables = st.lists(rows, max_size=24).map("\n".join)
texts = st.one_of(
    st.text(),
    st.tuples(st.sampled_from(HEADERS), st.one_of(tables, st.text())).map("".join),
)


@pytest.mark.parametrize("parser", sorted(PARSERS))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=texts)
def test_arbitrary_text_raises_only_impostoron_errors(parser, text):
    try:
        PARSERS[parser](text)
    except ImpostoronError:
        pass
