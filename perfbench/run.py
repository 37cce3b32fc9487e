"""impostoron benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli,resonance,pump_probe} \\
        --seed N --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 replays
a fixed set of the workload's ops, alternately untraced and traced, and
reports the per-layer metrics from the spans (see tracing.py) plus the
tracing overhead. Both print a readable report and, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`failed` counts ops whose output failed its check or that raised a library
error. `correct` is false only when the program broke its error contract (an
exception that is not an ImpostoronError, a CLI exit code other than 0/2/3).
A harness error exits non-zero without a result line.

The program is imported from src/ of the checkout the script sits in; the
run writes only under perfbench/out/.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import below

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Subprocess set-ups measured per run, next to the run's own; setup_s is
#: the median of all of them (README.md gives the spreads this buys).
SETUP_PROBES = 4
#: `python -c ...` calls per traced run for cli.interpreter_s and cli.import_s.
STARTUP_PROBES = 5

#: Per-layer metrics: function -> fields. calls, failed, cos_terms and bytes
#: are per round of replayed ops; self_ms is the function's self time per
#: round; p50_ms the median duration of one call.
LAYERS = {
    "dielectric.loads_liquid": ("calls", "self_ms", "p50_ms"),
    "dielectric.eval_neat": ("calls", "self_ms", "p50_ms"),
    "mixing.cm_mix": ("calls", "self_ms", "p50_ms"),
    "polaron.eps_doped": ("calls",),
    "polaron.find_nu0": ("calls", "self_ms", "p50_ms", "failed"),
    "polaron.lineshape": ("calls", "self_ms", "p50_ms"),
    "matching.ce_for_nu0": ("calls", "self_ms", "p50_ms", "failed", "ok_frac"),
    "matching.match_profiles": ("calls", "self_ms", "p50_ms", "failed"),
    "matching.match_frequency": ("calls", "self_ms", "p50_ms"),
    "signal.synth_oscillation": ("calls", "self_ms", "p50_ms", "cos_terms"),
    "signal.synth_map": ("calls", "self_ms", "p50_ms"),
    "signal.add_noise": ("calls", "self_ms", "p50_ms"),
    "signal.fourier_filter_2d": ("calls", "self_ms", "p50_ms", "bytes"),
    "signal.cut_at_max": ("calls", "self_ms", "p50_ms"),
    "signal.remove_step": ("calls", "self_ms", "p50_ms", "failed"),
    "signal.spectrum_of": ("calls", "self_ms", "p50_ms"),
    "signal.peak_report": ("calls", "self_ms", "p50_ms", "failed"),
    "signal.write_map_csv": ("calls", "self_ms", "p50_ms", "bytes"),
    "signal.read_map_csv": ("calls", "self_ms", "p50_ms", "bytes"),
    **{
        f"cli.run.{sub}": ("calls", "self_ms")
        for sub in ("nu0", "ce-for-nu0", "match", "synth", "extract")
    },
}
UNITS = {
    "calls": "count",
    "failed": "count",
    "self_ms": "ms",
    "p50_ms": "ms",
    "ok_frac": "ratio",
    "cos_terms": "count",
    "bytes": "B",
}


def load_package():
    """Import impostoron from this checkout's src/, and nowhere else."""
    pkg = ROOT / "src" / "impostoron"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no impostoron sources at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import impostoron
    import impostoron.cli

    if Path(impostoron.__file__).resolve().parent != pkg:
        raise SystemExit(f"perfbench: imported impostoron from {impostoron.__file__}")
    return impostoron


def fingerprint(args) -> dict:
    import hashlib

    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "impostoron").rglob("*")):
        if path.suffix in (".py", ".liq"):
            sources.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "sources_sha256": sources.hexdigest(),
    }


def setup_probes(args) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes of this workload and seed, and the
    times of the `imports` kernel, timed before each of them and after the last."""
    setups, kernel = [], [speed.timed("imports")]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0", "--setup-only"],
            capture_output=True, text=True, check=True,
        )
        setups.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        kernel.append(speed.timed("imports"))
    return setups, kernel


class Tally:
    """Attempted, failed and contract breaches, with the first few details."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.breaches = 0
        self.details: list[str] = []

    def add(self, verdict):
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            self.breaches += verdict.breach
            if len(self.details) < 5:
                self.details.append(verdict.detail)


def quota(workload, seconds, per_op=1):
    """Number of ops (or of rounds of per_op ops) of a fixed-size run.

    None for a workload without ops_per_second, which runs to a deadline.
    """
    if workload.ops_per_second is None:
        return None
    return max(1, round(seconds * workload.ops_per_second / per_op))


def measure(imp, wl, workload, args, setup_s):
    """--trace 0: closed loop for args.seconds (or quota() ops); end-to-end metrics.

    Each cycle of ops sits between two timings of the workload's speed
    kernel (speed.py); the op's wall time times REFERENCE_S over their mean
    is its normalized time. setup_s is the median set-up wall time, normalized
    the same way by the `imports` kernel timed between the set-up probes:
    a set-up, like that kernel, is mostly process start and imports.
    """
    kernel = workload.kernel
    raw, raw_stages, norm, norm_stages = {}, {}, {}, {}
    scales = []
    tally = Tally()
    before = speed.timed(kernel)
    cycles = quota(workload, args.seconds, workload.cycle)
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        cycle = []
        for _ in range(workload.cycle):  # whole cycles keep each run's mix the same
            op = workload.op(i)
            seconds, verdict = wl.run_op(imp, op)
            cycle.append((op, seconds))
            tally.add(verdict)
            i += 1
        after = speed.timed(kernel)
        scale = speed.REFERENCE_S[kernel] / (0.5 * (before + after))
        scales.append(scale)
        before = after
        for op, seconds in cycle:
            raw.setdefault(op.kind, []).append(seconds)
            norm.setdefault(op.kind, []).append(seconds * scale)
            for name, value in op.stage.items():
                raw_stages.setdefault(name, []).append(value)
                norm_stages.setdefault(name, []).append(value * scale)
        if time.perf_counter() >= deadline if cycles is None else i >= cycles * workload.cycle:
            break
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    op, aux = workload.latencies(norm, norm_stages)
    raw_op, raw_aux = workload.latencies(raw, raw_stages)
    probes, setup_kernel = setup_probes(args)
    setups = [setup_s] + probes
    setup_scale = speed.REFERENCE_S["imports"] / statistics.median(setup_kernel)
    how = f"normalized by the {kernel} kernel"
    tail = f"p{workload.tail_pct}"
    metrics = {
        "setup_s": (
            statistics.median(setups) * setup_scale, "s", len(setups),
            "median of fresh set-ups, normalized by the imports kernel",
        ),
        "peak_rss_mb": (peak_rss_mb, "MB", 1, "children" if workload.name == "cli" else "process"),
        "op_p50_ms": (statistics.median(op) * 1e3, "ms", len(op), f"{workload.op_kind}, {how}"),
        "op_tail_ms": (
            float(np.percentile(op, workload.tail_pct)) * 1e3, "ms", len(op),
            f"{workload.op_kind} {tail}, {how}",
        ),
        "aux_p50_ms": (statistics.median(aux) * 1e3, "ms", len(aux), f"{workload.aux_kind}, {how}"),
    }
    wall = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(raw_op) * 1e3,
        "op_tail_ms": float(np.percentile(raw_op, workload.tail_pct)) * 1e3,
        "aux_p50_ms": statistics.median(raw_aux) * 1e3,
    }
    info = {
        "op_counts": {k: len(v) for k, v in raw.items()},
        "wall": wall,
        "setups_s": setups,
        "setup_kernel_s": setup_kernel,
        "speed_scale": statistics.median(scales),
    }
    return metrics, tally, info


def startup_probe(code: str, env) -> float:
    times = []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_counts(imp) -> dict:
    """Counts computed from a traced call's arguments, by function."""

    def cos_terms(args, kwargs, result):
        tau = np.asarray(args[1], dtype=float)
        lo, hi = kwargs.get("band", args[2] if len(args) > 2 else imp.signal.DEFAULT_BAND)
        n = tau.size
        freqs = np.arange(n // 2 + 1) / (n * ((tau[-1] - tau[0]) / (n - 1)))
        return {"signal.synth_oscillation.cos_terms": n * int(((freqs >= lo) & (freqs <= hi)).sum())}

    def map_bytes(args, kwargs, result):
        return {"signal.fourier_filter_2d.bytes": args[0].values.nbytes}

    def written(args, kwargs, result):
        try:
            return {"signal.write_map_csv.bytes": args[1].tell()}
        except (AttributeError, OSError, ValueError):
            return {}

    def read(args, kwargs, result):
        try:
            return {"signal.read_map_csv.bytes": os.fstat(args[0].fileno()).st_size}
        except (AttributeError, OSError, ValueError):
            return {}

    return {
        "signal.synth_oscillation": cos_terms,
        "signal.fourier_filter_2d": map_bytes,
        "signal.write_map_csv": written,
        "signal.read_map_csv": read,
    }


#: cli.run spans are named by subcommand: cli.run.nu0, cli.run.match, ...
NAMES = {"cli.run": lambda args: f"cli.run.{args[0][0]}" if args and args[0] else "cli.run"}


def trace(imp, wl, workload, args):
    """--trace 1: replay a fixed op set, untraced then traced, per round.

    Rounds run to the deadline, or quota() of them are run.
    """
    from tracing import Tracer, per_function

    make = getattr(workload, "inprocess_op", workload.op)
    tracer = Tracer()
    tally = Tally()
    err_bins = []
    ratios = []
    op_rounds = []
    fixed = quota(workload, args.seconds, 2 * workload.trace_ops)
    deadline = time.perf_counter() + args.seconds

    def replay(around):
        total = 0.0
        start = time.perf_counter()
        with around("setup"):
            workload.parse()
        total += time.perf_counter() - start
        for j in range(workload.trace_ops):
            seconds, verdict = wl.run_op(imp, make(j), lambda: around(j))
            total += seconds
            tally.add(verdict)
            if verdict.err_bins is not None:
                err_bins.append(verdict.err_bins)
        return total

    def recording(_):
        op_rounds.append(len(ratios))
        return tracer.recording(len(op_rounds) - 1)

    counts = layer_counts(imp)
    while not ratios or (time.perf_counter() < deadline if fixed is None else len(ratios) < fixed):
        plain = replay(lambda _: contextlib.nullcontext())
        tracer.install(imp, counts, NAMES)
        try:
            traced = replay(recording)
        finally:
            tracer.uninstall()
        ratios.append(traced / plain - 1.0)

    rounds = len(ratios)
    spans = tracer.spans()
    table = per_function(spans, tracer.names, np.asarray(op_rounds, dtype=int), rounds)
    metrics = {}
    for fn, fields in LAYERS.items():
        row = table.get(fn, {"calls": 0.0, "failed": 0.0, "self_ms": 0.0, "p50_ms": 0.0})
        for field in fields:
            if field == "ok_frac":
                value = 1.0 - row["failed"] / row["calls"] if row["calls"] else 1.0
            elif field in ("cos_terms", "bytes"):
                value = tracer.extras.get(f"{fn}.{field}", 0.0) / rounds
            else:
                value = row[field]
            metrics[f"{fn}.{field}"] = (value, UNITS[field], rounds, "")
    env = wl.subprocess_env(ROOT)
    metrics["cli.interpreter_s"] = (startup_probe("pass", env), "s", STARTUP_PROBES, "python -c pass")
    metrics["cli.import_s"] = (
        startup_probe("import impostoron.cli", env), "s", STARTUP_PROBES, "import impostoron.cli"
    )
    metrics["trace.overhead_frac"] = (statistics.median(ratios), "ratio", rounds, "traced/untraced - 1")
    metrics["pump_probe.peak_err_bins_p50"] = (
        statistics.median(err_bins) if err_bins else 0.0, "bins", len(err_bins),
        "" if err_bins else "no extraction in this workload",
    )
    tracer.save(OUT / f"{workload.name}-seed{args.seed}-spans.npz")
    return metrics, tally, {"rounds": rounds, "spans": int(spans.size), "functions": table}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    imp = load_package()
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        workload = WORKLOADS[args.workload](imp, args.seed, ROOT)
        workload.start(Path(work))
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, tally, info = trace(imp, wl, workload, args)
        else:
            metrics, tally, info = measure(imp, wl, workload, args, setup_s)

    fp = fingerprint(args)
    record = {
        "fingerprint": fp,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "breaches": tally.breaches,
        "failure_details": tally.details,
        "metrics": {k: {"value": v, "unit": u, "n": n, "note": note} for k, (v, u, n, note) in metrics.items()},
        **info,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )

    print(f"impostoron benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  python {fp['python']}  numpy {fp['numpy']}  scipy {fp['scipy']}  "
          f"cpu {fp['cpu']!r} x{fp['nproc']}  sources {fp['sources_sha256'][:12]}")
    for name, (value, unit, n, note) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} n={n:<5} {note}")
    for name, value in info.get("wall", {}).items():
        print(f"  {name + ' (wall time)':<40} {value:>14.6g} {metrics[name][1]}")
    share = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  failed {tally.failed} of {tally.attempted} ops ({share:.1%}); "
          f"contract breaches {tally.breaches}")
    for detail in tally.details:
        print(f"    e.g. {detail}")
    print(json.dumps({
        "correct": tally.breaches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
