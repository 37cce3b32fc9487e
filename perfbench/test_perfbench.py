"""The benchmark's own tests; not part of the package's test suite.

    python3 -m pytest -q perfbench

They check that inputs follow from the seed alone, that spans and self
times add up, that every listed layer is exercised by the workload meant to
exercise it, that the predicted zeros hold, and that the benchmark refuses
to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import run
from tracing import SPAN_DTYPE, Tracer, per_function, self_times

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]

SIGNAL = [
    "signal.synth_oscillation", "signal.synth_map", "signal.add_noise",
    "signal.fourier_filter_2d", "signal.cut_at_max", "signal.remove_step",
    "signal.spectrum_of", "signal.peak_report",
]
CSV = ["signal.write_map_csv", "signal.read_map_csv"]
MATCHING = ["matching.ce_for_nu0", "matching.match_profiles", "matching.match_frequency"]
CLI_RUN = [f"cli.run.{s}" for s in ("nu0", "ce-for-nu0", "match", "synth", "extract")]
CHAIN = ["dielectric.loads_liquid", "dielectric.eval_neat", "mixing.cm_mix", "polaron.eps_doped",
         "polaron.lineshape"]

#: layer -> calls > 0 expected on this workload
EXERCISED = {
    "cli": CHAIN + ["polaron.find_nu0", "matching.ce_for_nu0", "matching.match_profiles"]
    + SIGNAL + CSV + CLI_RUN,
    "resonance": CHAIN + ["polaron.find_nu0"] + MATCHING,
    "pump_probe": CHAIN + SIGNAL,
}
#: predicted zeros: no signal code on resonance; no matching, CSV or
#: find_nu0 on pump_probe (its nu0 is computed during set-up)
ZERO = {
    "cli": [],
    "resonance": SIGNAL + CSV + CLI_RUN,
    "pump_probe": MATCHING + CSV + CLI_RUN + ["polaron.find_nu0"],
}


@pytest.fixture(scope="module")
def imp():
    return run.load_package()


def test_same_seed_same_inputs(imp):
    data = imp.cli.data_dir()

    def resonance(seed):
        return inputs.resonance_inputs(seed, data, imp.loads_liquid, imp.eval_neat)

    for make in (resonance, lambda s: inputs.pump_probe_inputs(s, data), inputs.cli_inputs):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_resonance_inputs_cover_both_model_kinds_and_pairs(imp):
    got = inputs.resonance_inputs(3, imp.cli.data_dir(), imp.loads_liquid, imp.eval_neat)
    kinds = {type(imp.loads_liquid(t)).__name__ for t in got["texts"].values()}
    assert kinds == {"DebyeModel", "TabulatedModel"}
    labels = [label for label, _, _ in got["match_ops"]]
    assert labels.count("a/b") == labels.count("A/B")


def test_cli_sessions_include_the_documented_exit_3_pair():
    assert inputs.cli_inputs(5)[0]["match"] == ("ipa", "water")


def test_cli_synth_op_removes_the_previous_map_before_it_runs(imp, tmp_path):
    import workloads

    cli = workloads.Cli(imp, 3, HERE.parent)
    cli.map_path = str(tmp_path / "map.csv")
    (tmp_path / "map.csv").write_text("stale\n")
    op = cli.op(3)
    assert op.kind == "synth" and not (tmp_path / "map.csv").exists()


def test_self_time_subtracts_direct_children():
    spans = np.array(
        [(0, 0.0, 10.0, -1, 0, True), (1, 1.0, 4.0, 0, 0, True),
         (2, 2.0, 3.0, 1, 0, True), (1, 5.0, 7.0, 0, 0, False)],
        dtype=SPAN_DTYPE,
    )
    assert self_times(spans).tolist() == [5.0, 2.0, 1.0, 2.0]
    table = per_function(spans, ["a", "b", "c"], np.zeros(1, dtype=int), 1)
    assert table["b"]["calls"] == 2 and table["b"]["failed"] == 1
    assert table["a"]["self_ms"] == pytest.approx(5000.0)


def test_install_patches_every_binding_and_uninstall_restores(imp):
    original = imp.polaron.eps_doped
    tracer = Tracer()
    tracer.install(imp)
    try:
        wrapped = imp.polaron.eps_doped
        assert wrapped is not original
        assert imp.matching.eps_doped is wrapped and imp.eps_doped is wrapped
        assert imp.signal.lineshape is imp.polaron.lineshape is imp.lineshape
        assert imp.cli.find_nu0 is imp.polaron.find_nu0
    finally:
        tracer.uninstall()
    assert imp.polaron.eps_doped is original and imp.matching.eps_doped is original


def _run(workload, trace, seconds=1, cwd=None, script=None):
    proc = subprocess.run(
        [sys.executable, str(script or HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd or HERE.parent, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_run_exercises_each_layer_and_keeps_predicted_zeros(workload):
    proc = _run(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == PER_LAYER
    for layer in EXERCISED[workload]:
        assert metrics[f"{layer}.calls"] > 0, layer
    for layer in ZERO[workload]:
        assert metrics[f"{layer}.calls"] == 0, layer
    for layer in ("matching.ce_for_nu0", "polaron.find_nu0", "matching.match_profiles"):
        calls = metrics[f"{layer}.calls"]
        assert calls == int(calls), layer  # counts per round are exact
    assert metrics["cli.import_s"] > metrics["cli.interpreter_s"] > 0


def test_every_layer_is_exercised_somewhere():
    listed = {name.rsplit(".", 1)[0] for name in PER_LAYER if name.endswith(".calls")}
    assert listed == set().union(*EXERCISED.values())


def test_untraced_run_reports_every_end_to_end_metric():
    proc = _run("resonance", trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_pump_probe_runs_a_fixed_number_of_ops():
    """Its ops fail (the known defect); a fixed count keeps `failed` a function of the seed."""
    results = []
    for _ in range(2):
        proc = _run("pump_probe", trace=0)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert results[0]["attempted"] == 7  # 7 ops per second of --seconds
    assert [(r["attempted"], r["failed"]) for r in results] == [(7, results[0]["failed"])] * 2


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("resonance", trace=0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
