"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/report.py                        # every workload, seed 1
    python3 perfbench/report.py --seeds 10 --workload pump_probe
    python3 perfbench/report.py --trace 1              # per-layer metrics

For each workload and metric it prints the median over seeds, the median
sample count of one run (n), the spread
(distance between the first and third quartile, as statistics.quantiles
gives them, as a share of the median) and, for end-to-end metrics, the
bound from BENCHMARK.json. A spread at or above a third of its bound is
marked with '!' and makes the exit code 1. Seeds run from 1, each run for
run_seconds of BENCHMARK.json, one after another; a run that fails stops
the report with its output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed} exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    for name, metric in result["metrics"].items():
        metric["n"] = record["metrics"][name]["n"]
    return result


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in range(1, args.seeds + 1):
            runs.append(run_once(workload, seed, bench["run_seconds"], args.trace))
            print(f"  {workload} seed {seed}: " + json.dumps(
                {k: round(v["value"], 6) for k, v in runs[-1]["metrics"].items()}
                if not args.trace else {"failed": runs[-1]["failed"]}
            ), file=sys.stderr)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, failed {failed} of {attempted} ops "
              f"({failed / attempted:.1%}), correct {all(r['correct'] for r in runs)}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = f"bound {bound:<5g}" + (" !" if s >= bound / 3 else "")
                steady &= s < bound / 3
            n = statistics.median(r["metrics"][name]["n"] for r in runs)
            print(f"  {name:<40} {statistics.median(values):>14.6g} {first['unit']:<6} "
                  f"n={n:<6g} spread {s:7.2%}  {mark}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
