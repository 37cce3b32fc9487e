"""The CLI, fed arbitrary argv for every subcommand, keeps its exit and header contracts.

Each example runs `cli.run` in process on small generated liquid and map
files: it exits 0, 2 or 3, raises nothing but SystemExit and warns nothing
(the suite turns RuntimeWarning into an error). On exit 0 every table it
wrote starts with the version line and one input-sha256 line per input.
Grids stay under about 1e5 samples (a few MB); oversized requests are drawn
far past the CLI's size cap, so they test its check without running.
"""

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impostoron import __version__
from impostoron.cli import data_dir, run
from impostoron.signal import FieldMap2D, gaussian_probe, write_map_csv

PACKAGED = ("water.liq", "eg.liq", "ipa.liq", "dispersionless.liq")
JUNK = ("", "x", "nan", "inf", "-inf", "-1", "0", "1e400")

junk = st.sampled_from(JUNK)
finite = st.floats(-1e300, 1e300, allow_nan=False)


def mostly(good, bad=junk):
    """good nine times in ten, else bad."""
    return st.sampled_from([True] * 9 + [False]).flatmap(lambda ok: good if ok else bad)


def number(low, high):
    """A float in [low, high] as argv text, or a value that is out of range or not a number."""
    return mostly(st.floats(low, high).map(repr))


@st.composite
def liquid_text(draw):
    """A Debye or table liquid file, in range or at the float extremes, or arbitrary text."""
    kind = draw(st.sampled_from(["debye", "table", "debye", "text"]))
    if kind == "text":
        return draw(st.text(max_size=80))
    values = st.one_of(st.floats(1e-3, 1e3), st.floats(1e-300, 1e300))
    lines = [f"name = {kind}", f"type = {kind}"]
    if kind == "debye":
        lines.append(f"eps_inf = {draw(mostly(st.floats(1.0, 100.0), values))!r}")
        terms = draw(st.lists(st.tuples(values, values), max_size=3))
        lines += [f"term = {delta!r}, {tau!r}" for delta, tau in terms]
    else:
        nus = draw(st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=8, unique=True))
        lines.append("columns = nu_THz, eps_real, eps_imag")
        lines += [f"{nu!r}, {draw(finite)!r}, {draw(values)!r}" for nu in sorted(nus)]
    return "\n".join(lines) + "\n"


@st.composite
def map_text(draw):
    """A small map CSV: a noisy separable step, arbitrary finite values, or arbitrary text."""
    kind = draw(st.sampled_from(["step", "values", "step", "text"]))
    if kind == "text":
        return draw(st.text(max_size=80))
    n_tau, n_t = draw(st.integers(16, 256)), draw(st.integers(16, 48))
    dtau = draw(mostly(st.floats(0.01, 0.3), st.sampled_from([1e-310, 1e-6, 1e3])))
    tau = (np.arange(n_tau) - draw(mostly(st.integers(1, n_tau - 1), st.just(0)))) * dtau
    probe = gaussian_probe((np.arange(n_t) - n_t // 2) * draw(st.floats(0.05, 0.4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    scale = mostly(st.floats(1e-3, 1e3), finite)
    if kind == "step":
        delay = np.where(tau >= 0, 1.0 - np.exp(-np.maximum(tau, 0.0)), 0.0)
        delay = draw(scale) * (delay + draw(st.floats(0.0, 1.0)) * rng.normal(size=n_tau))
        values = delay[:, None] * probe.values[None, :]
    else:
        values = draw(scale) * rng.uniform(-1.0, 1.0, size=(n_tau, n_t))
    fh = io.StringIO()
    write_map_csv(FieldMap2D(t_grid=probe.times, tau_grid=tau, values=values), fh)
    return fh.getvalue()


def option(flag, values):
    """[flag=value] nine times in ten, else no argv; the = form lets a value start with -."""
    return mostly(values.map(lambda v: [f"{flag}={v}"]), st.just([]))


def grid(draw):
    """Frequency grid options of about 1-5000 points, or far more than the CLI allows."""
    argv = draw(option("--nu-min", number(1e-3, 1.0))) + draw(option("--nu-max", number(1.0, 10.0)))
    values = dict(arg.split("=") for arg in argv)
    try:
        span = float(values.get("--nu-max", 2.0)) - float(values.get("--nu-min", 0.2))
    except ValueError:
        span = 1.0
    points = draw(mostly(st.integers(1, 5000), st.floats(2.0**25, 1e300)))
    return argv + draw(option("--nu-step", mostly(st.just(repr(span / points)))))


def bracket():
    """No --bracket half the time, as a bracket drawn at random rarely holds a resonance."""
    ends = st.tuples(st.floats(1e-3, 3.0), st.floats(1e-3, 5.0))
    pairs = ends.map(lambda p: f"{p[0]!r},{p[0] + p[1]!r}")
    return st.booleans().flatmap(lambda b: option("--bracket", mostly(pairs)) if b else st.just([]))


@st.composite
def invocation(draw, command):
    """(argv, liquid texts by file name, map text or None, output file names or Nones).

    File names are relative: the run's working directory holds the files.
    """
    liquids = {}

    def liquid():
        choice = draw(st.sampled_from(["packaged", "generated", "packaged", "missing"]))
        if choice == "packaged":
            return draw(st.sampled_from(PACKAGED))
        name = f"liquid{len(liquids)}.liq"
        if choice == "generated":
            liquids[name] = draw(liquid_text())
        return name

    def out(flag="--out"):
        name = flag[2:] + ".csv"
        return draw(st.sampled_from([None, name, f"missing/{name}"]))

    ce = option("--ce", mostly(st.floats(5.0, 200.0).map(repr), number(0.0, 1e300)))
    argv, outs, map_csv = [command], {}, None
    if command == "eps":
        argv += ["--liquid", liquid()] + draw(ce) + grid(draw)
    elif command == "nu0":
        argv += ["--liquid", liquid()] + draw(ce) + draw(bracket())
        argv += draw(option("--tol", number(1e-12, 0.1)))
    elif command == "ce-for-nu0":
        argv += ["--liquid", liquid()] + draw(option("--nu0", number(1e-3, 5.0)))
    elif command == "match":
        argv += ["--liquid-a", liquid(), "--liquid-b", liquid()]
        nu0 = [f"--nu0={draw(number(0.1, 3.0))}"]
        argv += draw(st.sampled_from([["--profile"], nu0] * 3 + [["--profile"] + nu0, []]))
        argv += draw(bracket())
    elif command == "lineshape":
        argv += ["--liquid", liquid()] + draw(ce) + draw(st.sampled_from([["--lorentz"], []]))
        argv += draw(bracket()) + grid(draw)
    elif command == "synth":
        argv += ["--liquid", liquid()] + draw(ce)
        argv += draw(st.sampled_from([["--map"], []]))
        argv += draw(option("--dt", mostly(number(0.05, 0.4), st.just("1e-9"))))
        argv += draw(option("--dtau", mostly(number(0.05, 0.2), number(1e-320, 1e308))))
        n = mostly(mostly(st.integers(64, 512), st.integers(-2, 63)), st.integers(2**25, 2**40))
        argv += draw(option("--n", mostly(n.map(str))))
        argv += draw(option("--noise-snr-db", mostly(st.floats().map(repr))))
        argv += draw(option("--seed", mostly(st.integers(-2, 2**70).map(str))))
    else:
        choice = draw(st.sampled_from(["generated"] * 6 + ["missing", "directory"]))
        map_csv = draw(map_text()) if choice == "generated" else None
        argv += ["--input", {"generated": "map.csv", "missing": "none.csv", "directory": "."}[choice]]
        for flag in ("--out-oscillation", "--out-spectrum"):
            outs[flag] = out(flag)
    if command != "extract":
        outs["--out"] = out()
    for flag, name in outs.items():
        argv += [flag, name] if name else []
    return argv, liquids, map_csv, outs


@contextlib.contextmanager
def inside(path):
    """The working directory set to path, then restored."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def expected_header(argv, tmp):
    """The meta lines every table of a successful run of argv in tmp starts with."""
    labels = {"--liquid": "liquid", "--liquid-a": "a", "--liquid-b": "b", "--input": "map"}
    lines = [f"impostoron {__version__}"]
    for flag, value in zip(argv[1:], argv[2:]):
        if flag in labels:
            path = tmp / value if (tmp / value).exists() else data_dir() / value
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"input-sha256 {labels[flag]}: {digest}")
    return "".join(f"# {line}\n" for line in lines)


@pytest.mark.parametrize(
    "command", ["eps", "nu0", "ce-for-nu0", "match", "lineshape", "synth", "extract"]
)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_arbitrary_argv_keeps_the_exit_and_header_contracts(command, data):
    argv, liquids, map_csv, outs = data.draw(invocation(command))
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for file, text in liquids.items():
            (tmp / file).write_text(text, encoding="utf-8")
        if map_csv is not None:
            (tmp / "map.csv").write_text(map_csv, encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with inside(tmp), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3), (argv, code, stderr.getvalue())
        if code != 0:
            return
        head = expected_header(argv, tmp)
        files = [tmp / f for f in outs.values() if f]
        for path in files:
            assert path.read_text(encoding="utf-8").startswith(head), (argv, path)
        on_stdout = len(outs) - len(files)
        assert stdout.getvalue().count(head) == on_stdout, (argv, stdout.getvalue()[:400])
        assert on_stdout == 0 or stdout.getvalue().startswith(head), argv
