"""Command line interface.

Subcommands: eps, nu0, ce-for-nu0, match, lineshape, synth, extract.
Exit codes: 0 success, 2 usage error, 3 domain/model error (the library
message goes to stderr verbatim), output that cannot be written or a stdout
closed before all output was written. Liquid files are searched in the
working directory, then $IMPOSTORON_DATA_DIR, then the packaged data
directory.
All CSV output starts with '#'-prefixed metadata (tool version, input hash).

A call imports only the modules its subcommand runs: eps and nu0 the chain
from liquid file to resonance (dielectric, mixing, polaron), ce-for-nu0 and
match matching on top, lineshape, synth and extract signal on top. Each
handler imports matching or signal itself, so a call pays for neither unless
it runs it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .dielectric import _read_text, _write_table, loads_liquid
from .errors import DataFileError, GridError, ImpostoronError
from .mixing import Concentration, DopedLiquid
from .polaron import eps_doped, find_nu0, lineshape, lorentz_lineshape

_PROBE_SPAN = 6.4  # ps, fixed probe-time window of `synth --map`

#: Most samples one array built by the CLI may hold (2**24 float64, 128 MiB): the
#: `eps`/`lineshape` grid, the `synth` --n delay trace or --n x 6.4/--dt map.
_MAX_SAMPLES = 2**24


def data_dir() -> Path:
    """Directory with the packaged reference liquid files."""
    return Path(str(resources.files("impostoron").joinpath("data")))


def resolve_data_path(name: str) -> Path:
    # os.path.exists is False for a path the OS rejects, such as one too long
    p = Path(name)
    if os.path.exists(p):
        return p.absolute()
    searched = [str(Path.cwd())]
    env = os.environ.get("IMPOSTORON_DATA_DIR")
    if env:
        candidate = Path(env) / name
        searched.append(env)
        if os.path.exists(candidate):
            return candidate
    packaged = data_dir() / name
    searched.append(str(data_dir()))
    if os.path.exists(packaged):
        return packaged
    raise DataFileError(f"liquid file '{name}' not found (searched: {', '.join(searched)})")


def _meta(*inputs: tuple[str, str]) -> list[str]:
    """The version line and one input-sha256 line per (label, digest) pair."""
    return [f"impostoron {__version__}"] + [f"input-sha256 {k}: {sha}" for k, sha in inputs]


@contextlib.contextmanager
def _output(path: str | None):
    """stdout by default, a file when --out is given; DataFileError if the file fails."""
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:  # on open, on a write or on the flush at close
        raise DataFileError(f"cannot write output file '{path}': {exc.strerror}") from exc


def _liquid(name):
    """SHA-256 and model of the liquid file name, searched as resolve_data_path does."""
    path = resolve_data_path(name)
    text, sha = _read_text(path, "liquid")
    return sha, loads_liquid(text, source=str(path))


def _number(name, allow_zero=False):
    """argparse type for option name: a float > 0, or >= 0 with allow_zero."""

    def convert(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be a number, got '{text}'")
        if value < 0 if allow_zero else not value > 0:
            bound = ">=" if allow_zero else ">"
            raise argparse.ArgumentTypeError(f"{name} must be {bound} 0, got {value}")
        return value

    return convert


def _bracket(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"bracket must be 'lo,hi', got '{text}'")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bracket must be numeric, got '{text}'")
    if not (0 < lo < hi):
        raise argparse.ArgumentTypeError(f"bracket needs 0 < lo < hi, got [{lo}, {hi}]")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impostoron",
        description="Solvated-electron dielectric mixing, polaron resonances and THz pump-probe extraction.",
    )
    parser.add_argument("--version", action="version", version=f"impostoron {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        """The subparser of name: run by handler(args), kept as args.parser for its usage errors."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, parser=p)
        return p

    def add_common_grid(p):
        p.add_argument("--nu-min", type=_number("--nu-min"), default=0.2)
        p.add_argument("--nu-max", type=_number("--nu-max"), default=2.0)
        p.add_argument("--nu-step", type=_number("--nu-step"), default=0.002)

    def add_doped(p, **ce):
        """--liquid and --ce; ce holds --ce's default or required=True."""
        p.add_argument("--liquid", required=True)
        p.add_argument(
            "--ce", type=_number("--ce", allow_zero=True), help="concentration in uM", **ce
        )

    p = command("eps", _cmd_eps, "doped (or neat) permittivity table over a frequency grid")
    add_doped(p, default=0.0)
    add_common_grid(p)
    p.add_argument("--out")

    p = command("nu0", _cmd_nu0, "zero-crossing resonance of a doped liquid")
    add_doped(p, required=True)
    p.add_argument("--bracket", type=_bracket, default=argparse.SUPPRESS)
    p.add_argument("--tol", type=_number("--tol"), default=argparse.SUPPRESS)
    p.add_argument("--out")

    p = command("ce-for-nu0", _cmd_ce_for_nu0, "concentration that places the crossing at nu0")
    p.add_argument("--liquid", required=True)
    p.add_argument("--nu0", type=_number("--nu0"), required=True)
    p.add_argument("--out")

    p = command("match", _cmd_match, "concentration pair matching two liquids' resonances")
    p.add_argument("--liquid-a", required=True)
    p.add_argument("--liquid-b", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--nu0", type=_number("--nu0"))
    group.add_argument("--profile", action="store_true", help="match line-shape profiles too")
    p.add_argument("--bracket", type=_bracket, default=argparse.SUPPRESS)
    p.add_argument("--out")

    p = command("lineshape", _cmd_lineshape, "energy-loss line shape -Im[1/eps] on a grid")
    add_doped(p, required=True)
    p.add_argument("--lorentz", action="store_true", help="Lorentzian approximation instead")
    p.add_argument("--bracket", type=_bracket, default=argparse.SUPPRESS)
    add_common_grid(p)
    p.add_argument("--out")

    p = command("synth", _cmd_synth, "synthesize a pump-probe delay trace or 2D map")
    add_doped(p, required=True)
    p.add_argument("--map", action="store_true", help="emit the full 2D map")
    p.add_argument("--dt", type=_number("--dt"), default=0.05, help="probe-time step, ps")
    p.add_argument("--dtau", type=_number("--dtau"), default=0.1, help="delay step, ps")
    p.add_argument("--n", type=int, default=1024, help="number of delay samples")
    p.add_argument("--noise-snr-db", type=float, default=None)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out")

    p = command("extract", _cmd_extract, "run the oscillation-extraction pipeline on a map CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out-oscillation")
    p.add_argument("--out-spectrum")

    return parser


def _grid(args):
    if args.nu_max <= args.nu_min:
        args.parser.error(f"--nu-max must exceed --nu-min, got [{args.nu_min}, {args.nu_max}]")
    steps = (args.nu_max - args.nu_min) / args.nu_step  # inf for an infinite --nu-max
    if not steps < _MAX_SAMPLES - 1:  # then round(steps) + 1 <= _MAX_SAMPLES
        args.parser.error(f"frequency grid of {steps + 1:.6g} points exceeds {_MAX_SAMPLES}")
    return np.linspace(args.nu_min, args.nu_max, int(round(steps)) + 1)


def _search(args):
    """--bracket and --tol where given: the search's own defaults stand for the rest."""
    return {name: value for name, value in vars(args).items() if name in ("bracket", "tol")}


def _cmd_eps(args):
    sha, liquid = _liquid(args.liquid)
    grid = _grid(args)
    eps = eps_doped(DopedLiquid(liquid, Concentration.from_micromolar(args.ce)), grid)
    table = np.column_stack((grid, eps.real, eps.imag))
    with _output(args.out) as fh:
        _write_table(fh, _meta(("liquid", sha)), "nu_THz,eps_real,eps_imag", table)


def _cmd_nu0(args):
    sha, liquid = _liquid(args.liquid)
    doped = DopedLiquid(liquid, Concentration.from_micromolar(args.ce))
    res = find_nu0(doped, **_search(args))
    pairs = [
        ("nu0_THz", repr(res.nu0)),
        ("eps_imag_at_nu0", repr(res.eps_imag_at_nu0)),
        ("slope_B_per_THz", repr(res.slope_B)),
        ("ce_uM", repr(res.ce.micromolar)),
        ("alternatives_THz", ";".join(repr(v) for v in res.alternatives)),
    ]
    with _output(args.out) as fh:
        _write_table(fh, _meta(("liquid", sha)), "key,value", pairs)


def _cmd_ce_for_nu0(args):
    from .matching import ce_for_nu0

    sha, liquid = _liquid(args.liquid)
    ce = ce_for_nu0(liquid, args.nu0)
    pairs = [
        ("ce_uM", repr(ce.micromolar)),
        ("ce_mol_per_m3", repr(ce.mol_per_m3)),
        ("nu0_THz", repr(args.nu0)),
    ]
    with _output(args.out) as fh:
        _write_table(fh, _meta(("liquid", sha)), "key,value", pairs)


def _cmd_match(args):
    from .matching import match_frequency, match_profiles

    sha_a, liquid_a = _liquid(args.liquid_a)
    sha_b, liquid_b = _liquid(args.liquid_b)
    if args.profile:
        sol = match_profiles(liquid_a, liquid_b, **_search(args))
    else:
        sol = match_frequency(liquid_a, liquid_b, args.nu0, **_search(args))
    pairs = [
        ("nu0_THz", repr(sol.nu0)),
        ("ce_a_uM", repr(sol.ce_1.micromolar)),
        ("ce_b_uM", repr(sol.ce_2.micromolar)),
        ("freq_residual_THz", repr(sol.freq_residual)),
        ("profile_residual_per_THz", repr(sol.profile_residual)),
        ("profile_matched", str(sol.profile_matched).lower()),
        ("degenerate", str(sol.degenerate).lower()),
        ("note", sol.note),
        ("alternatives_THz", ";".join(repr(v) for v in sol.alternatives)),
    ]
    with _output(args.out) as fh:
        _write_table(fh, _meta(("a", sha_a), ("b", sha_b)), "key,value", pairs)


def _cmd_lineshape(args):
    from . import signal

    sha, liquid = _liquid(args.liquid)
    doped = DopedLiquid(liquid, Concentration.from_micromolar(args.ce))
    grid = _grid(args)
    if args.lorentz:
        spec = lorentz_lineshape(find_nu0(doped, **_search(args)), grid)
    else:
        spec = lineshape(doped, grid)
    with _output(args.out) as fh:
        signal.write_spectrum_csv(spec, fh, meta=_meta(("liquid", sha)))


def _cmd_synth(args):
    from . import signal

    if args.n < 16:
        args.parser.error(f"--n must be at least 16, got {args.n}")
    if not math.isfinite(args.dt):
        args.parser.error(f"--dt must be finite, got {args.dt}")
    if args.seed < 0:
        args.parser.error(f"--seed must be >= 0, got {args.seed}")
    columns = _PROBE_SPAN / args.dt if args.map else 1
    if args.n > _MAX_SAMPLES / columns:
        raise GridError(
            f"synth request too large: --n {args.n} x {columns:.6g} columns exceeds "
            f"{_MAX_SAMPLES} samples per array"
        )
    if not math.isfinite(args.n * args.dtau):  # then every delay is finite
        args.parser.error(f"--dtau must keep --n x --dtau finite, got {args.n} x {args.dtau}")
    sha, liquid = _liquid(args.liquid)
    doped = DopedLiquid(liquid, Concentration.from_micromolar(args.ce))
    if args.map:  # the probe grid first: it rejects a --dt that leaves it under 16 samples
        nt = int(round(_PROBE_SPAN / args.dt))
        probe = signal.gaussian_probe((np.arange(nt) - nt // 2) * args.dt)
    tau = (np.arange(args.n) - args.n // 8) * args.dtau
    osc = signal.synth_oscillation(doped, tau)
    step = signal.StepModel(
        amplitude=float(np.max(np.abs(osc.values))), rise_time=1.0, onset=0.0
    )
    if args.map:
        data, write = signal.synth_map(doped, probe, step, tau), signal.write_map_csv
    else:
        data = signal.TimeTrace(times=tau, values=step.evaluate(tau) + osc.values)
        write = signal.write_trace_csv
    if args.noise_snr_db is not None:
        data = signal.add_noise(data, args.noise_snr_db, args.seed)
    with _output(args.out) as fh:
        write(data, fh, meta=_meta(("liquid", sha)) + [f"seed: {args.seed}"])


def _cmd_extract(args):
    from . import signal

    path = Path(args.input)
    if not os.path.exists(path):
        raise DataFileError(f"map file '{args.input}' not found")
    text, sha = _read_text(path, "map")
    result = signal.extract(signal.read_map_csv(io.StringIO(text)))
    meta = _meta(("map", sha))
    with _output(args.out_oscillation) as fh:
        signal.write_trace_csv(result.oscillation, fh, meta=meta)
    with _output(args.out_spectrum) as fh:
        signal.write_spectrum_csv(result.spectrum, fh, meta=meta)
    peak = result.peak
    print(
        f"peak_frequency_THz={peak.peak_frequency!r} fwhm_THz={peak.fwhm!r} "
        f"amplitude={peak.amplitude!r}"
    )


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
    except ImpostoronError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except OSError as exc:
        # run turns every other OSError into an ImpostoronError, so stdout
        # failed: the reader closed it early or its device is full. Point it
        # at devnull so that the interpreter's final flush of the unwritten
        # rest cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            print("stdout closed before all output was written", file=sys.stderr)
        else:
            print(f"cannot write to stdout: {exc.strerror}", file=sys.stderr)
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()
