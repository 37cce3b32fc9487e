"""The three workloads: one closed-loop client each, no threads.

A workload turns its seeded inputs (`inputs.py`) into ops. An op is a
(kind, timed, check) triple: `timed()` is the work whose wall time is
measured and that the program does for the user; `check(value, error)` runs
afterwards, outside the timed region and outside any traced span, and says
whether the output is right.

    cli         subprocess CLI calls in sessions of five:
                nu0, ce-for-nu0, match --profile, synth --map, extract
    resonance   in-process nu0 ops (find_nu0 + lineshape) alternating with
                match ops (match_profiles)
    pump_probe  in-process synth_map -> add_noise -> extract pipelines

Each workload reports two latencies: `op`, its main op, and `aux`, a second
op or stage that the first one hides (see README.md for the table).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs as gen


@dataclass
class Verdict:
    ok: bool
    #: the program broke its error contract (a non-library exception, a CLI
    #: traceback); this makes the whole run incorrect, not just the op
    breach: bool = False
    detail: str = ""
    #: pump_probe: |extracted peak - nu0| in spectral bins
    err_bins: float | None = None


@dataclass
class Op:
    kind: str
    timed: object
    check: object
    #: seconds of named stages inside timed(), filled in when it runs
    stage: dict = field(default_factory=dict)


def run_op(imp, op: Op, around=contextlib.nullcontext):
    """Time op.timed() inside around(), then check its outcome.

    Returns (seconds, Verdict).
    """
    error = None
    value = None
    start = perf_counter()
    try:
        with around():
            value = op.timed()
    except imp.ImpostoronError as exc:
        error = exc
    except Exception as exc:  # the library promises ImpostoronError only
        seconds = perf_counter() - start
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return seconds, Verdict(
            False, True, f"{type(exc).__name__}: {exc} at {where.filename}:{where.lineno}"
        )
    seconds = perf_counter() - start
    return seconds, op.check(value, error)


def subprocess_env(root: Path) -> dict:
    """Environment of a child Python that imports impostoron from root/src."""
    env = dict(os.environ)
    env.pop("IMPOSTORON_DATA_DIR", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(Path(root) / "src") + (os.pathsep + old if old else "")
    return env


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class _InProcess:
    """Shared warm-up of the in-process workloads."""

    def start(self, workdir: Path):
        """Warm-up: one cycle of ops, untimed and unchecked."""
        for i in range(self.cycle):
            self.op(i).timed()


class Resonance(_InProcess):
    """nu0 ops and match ops, alternating; all time in dielectric..matching."""

    name = "resonance"
    cycle = 2
    tail_pct = 90
    op_kind, aux_kind = "match", "nu0"
    kernel = "scalar"
    trace_ops = 16
    ops_per_second = None

    def __init__(self, imp, seed, root):
        self.imp = imp
        data = imp.cli.data_dir()
        self.inputs = gen.resonance_inputs(
            seed, data, imp.loads_liquid, imp.eval_neat
        )
        self.models = self.parse()
        self.nu0_pool = [
            (self.models[key], imp.Concentration.from_micromolar(ce))
            for key, ce in self.inputs["nu0_ops"]
        ]
        self.match_pool = [
            (
                imp.DebyeModel(f"{label[0]}~{i}", a[0], a[1]),
                imp.DebyeModel(f"{label[-1]}~{i}", b[0], b[1]),
            )
            for i, (label, a, b) in enumerate(self.inputs["match_ops"])
        ]

    @staticmethod
    def latencies(samples, stages):
        return samples["match"], samples["nu0"]

    def parse(self):
        """Liquid parsing, part of set-up; traced runs replay it."""
        return {
            key: self.imp.loads_liquid(text, source=key)
            for key, text in self.inputs["texts"].items()
        }

    def op(self, i: int) -> Op:
        j = (i // 2) % gen.POOL
        return self._nu0(*self.nu0_pool[j]) if i % 2 == 0 else self._match(*self.match_pool[j])

    def _nu0(self, model, ce) -> Op:
        imp = self.imp
        doped = imp.DopedLiquid(model, ce)
        h = gen.LINESHAPE_HALF_WIDTH

        def timed():
            res = imp.find_nu0(doped, gen.NU0_BRACKET, gen.NU0_TOL)
            imp.lineshape(doped, np.linspace(res.nu0 - h, res.nu0 + h, gen.LINESHAPE_POINTS))
            return res

        def check(res, error):
            if error is not None:
                return Verdict(False, detail=f"{model.name}: {error}")
            tol = gen.NU0_TOL
            below = complex(imp.eps_doped(doped, res.nu0 - tol)).real
            above = complex(imp.eps_doped(doped, res.nu0 + tol)).real
            back = imp.ce_for_nu0(model, res.nu0).mol_per_m3
            ok = below < 0.0 <= above and _close(back, ce.mol_per_m3, 1e-6)
            return Verdict(ok, detail="" if ok else f"{model.name}: nu0 {res.nu0!r} off")

        return Op("nu0", timed, check)

    def _match(self, a, b) -> Op:
        imp = self.imp

        def timed():
            return imp.match_profiles(a, b, gen.MATCH_BRACKET)

        def check(sol, error):
            if error is not None:
                return Verdict(False, detail=f"{a} / {b}: {error}")
            terms = []
            for liquid, ce in ((a, sol.ce_1), (b, sol.ce_2)):
                res = imp.find_nu0(imp.DopedLiquid(liquid, ce), gen.MATCH_BRACKET, gen.NU0_TOL)
                eps2 = imp.eps_imag_at_nu0(imp.eval_neat(liquid, sol.nu0))
                terms.append(res.slope_B / eps2)
            norm = abs(sol.profile_residual) / abs(0.5 * (terms[0] + terms[1]))
            ok = (
                sol.profile_matched
                and not sol.degenerate
                and norm < imp.matching.PROFILE_TOL
                and sol.freq_residual <= 2.0 * imp.polaron.DEFAULT_TOL
            )
            return Verdict(ok, detail="" if ok else f"{a.name}/{b.name}: residual {norm:g}")

        return Op("match", timed, check)


class PumpProbe(_InProcess):
    """synth_map -> add_noise -> extract on a 4096 x 128 map; signal layer."""

    name = "pump_probe"
    cycle = 1
    tail_pct = 90
    op_kind, aux_kind = "pipeline", "extract"
    kernel = "vector"
    trace_ops = gen.PUMP_PROBE_POOL
    #: Most of this workload's ops fail (the known defect, README.md), so a
    #: run does a fixed number of them, seconds x ops_per_second, instead of
    #: running to a deadline: its `failed` count then follows from the seed
    #: alone and two runs of the same code agree on it. 7 ops/s is a little
    #: below the rate of the host's fast state, so that a run in its slow
    #: state still ends in about --seconds.
    ops_per_second = 7

    def __init__(self, imp, seed, root):
        self.imp = imp
        self.inputs = gen.pump_probe_inputs(seed, imp.cli.data_dir())
        models = self.parse()
        n = gen.PUMP_PROBE_DELAYS
        self.tau = (np.arange(n) - n // 8) * gen.PUMP_PROBE_DTAU
        nt = gen.PUMP_PROBE_COLUMNS
        self.probe = imp.gaussian_probe((np.arange(nt) - nt // 2) * gen.PUMP_PROBE_DT)
        self.pool = []
        for stem, ce_um in self.inputs["pool"]:
            doped = imp.DopedLiquid(models[stem], imp.Concentration.from_micromolar(ce_um))
            nu0 = imp.find_nu0(doped, gen.NU0_BRACKET, gen.NU0_TOL).nu0
            # step amplitude as `synth --map` sets it
            osc = imp.synth_oscillation(doped, self.tau)
            step = imp.StepModel(float(np.max(np.abs(osc.values))), 1.0, 0.0)
            self.pool.append((doped, step, nu0))

    @staticmethod
    def latencies(samples, stages):
        return samples["pipeline"], stages["extract"]

    def parse(self):
        return {
            stem: self.imp.loads_liquid(text, source=f"{stem}.liq")
            for stem, text in self.inputs["texts"].items()
        }

    def op(self, i: int) -> Op:
        imp = self.imp
        doped, step, nu0 = self.pool[i % len(self.pool)]
        k = i % gen.PER_OP_DRAWS
        snr, seed = self.inputs["snr_db"][k], self.inputs["noise_seeds"][k]
        stage = {}

        def timed():
            fmap = imp.synth_map(doped, self.probe, step, self.tau)
            noisy = imp.add_noise(fmap, snr, seed)
            start = perf_counter()
            res = imp.extract(noisy)
            stage["extract"] = perf_counter() - start
            return res

        def check(res, error):
            if error is not None:
                return Verdict(False, detail=f"{doped.liquid.name}: {error}")
            freqs = res.spectrum.frequencies
            err = abs(res.peak.peak_frequency - nu0) / float(freqs[1] - freqs[0])
            ok = err <= 1.0
            return Verdict(
                ok,
                detail="" if ok else (
                    f"{doped.liquid.name} {doped.ce.micromolar:.1f} uM: peak "
                    f"{res.peak.peak_frequency:.4f} THz, nu0 {nu0:.4f} THz ({err:.1f} bins)"
                ),
                err_bins=err,
            )

        return Op("pipeline", timed, check, stage)


class Cli:
    """Sessions of CLI subprocesses; interpreter start, imports and map CSV."""

    name = "cli"
    cycle = 5
    #: at 30 s a run holds 30-40 calls; p70 leaves about ten of them beyond it
    tail_pct = 70
    op_kind, aux_kind = "call", "map"
    #: a CLI call is mostly process start and the imports of numpy and
    #: scipy.optimize; a process doing just that tracks the host's speed for
    #: it, an in-process kernel or a bare interpreter does not (README.md)
    kernel = "imports"
    trace_ops = 5
    ops_per_second = None

    def __init__(self, imp, seed, root):
        self.imp = imp
        self.root = Path(root)
        self.sessions = gen.cli_inputs(seed)
        self.models = {
            stem: imp.load_liquid_file(imp.cli.data_dir() / f"{stem}.liq")
            for stem in gen.PACKAGED
        }
        self._match_expected = {}
        self.env = subprocess_env(self.root)

    @staticmethod
    def latencies(samples, stages):
        calls = [t for kind in ("nu0", "ce-for-nu0", "match", "synth", "extract") for t in samples[kind]]
        return calls, [a + b for a, b in zip(samples["synth"], samples["extract"])]

    def parse(self):
        return {}

    def start(self, workdir: Path):
        self.work = workdir
        self.map_path = str(workdir / "map.csv")
        # warm-up: the first call in a checkout also compiles the sources
        self.call(self.argv(0)).check_returncode()

    def call(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "impostoron", *argv],
            cwd=self.work,
            env=self.env,
            capture_output=True,
            text=True,
        )

    def argv(self, i: int) -> list[str]:
        s = self.sessions[(i // 5) % len(self.sessions)]
        step = i % 5
        if step == 0:
            stem, ce = s["nu0"]
            return ["nu0", "--liquid", f"{stem}.liq", "--ce", repr(ce), "--tol", repr(gen.NU0_TOL)]
        if step == 1:
            stem, nu0 = s["ce_for_nu0"]
            return ["ce-for-nu0", "--liquid", f"{stem}.liq", "--nu0", repr(nu0)]
        if step == 2:
            a, b = s["match"]
            return ["match", "--liquid-a", f"{a}.liq", "--liquid-b", f"{b}.liq", "--profile"]
        if step == 3:
            stem, ce, snr, seed = s["synth"]
            return [
                "synth", "--liquid", f"{stem}.liq", "--ce", repr(ce), "--map",
                "--n", str(gen.CLI_DELAYS), "--noise-snr-db", repr(snr),
                "--seed", str(seed), "--out", self.map_path,
            ]
        return ["extract", "--input", self.map_path]

    def op(self, i: int) -> Op:
        argv = self.argv(i)
        return self._op(argv, lambda: self.call(argv))

    def inprocess_op(self, i: int) -> Op:
        """The same argv through `impostoron.cli.run`, for the traced run."""
        argv = self.argv(i)

        def timed():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.imp.cli.run(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())

        return self._op(argv, timed)

    def _op(self, argv, timed) -> Op:
        if argv[0] == "synth":  # so that extract never reads an earlier session's map
            Path(self.map_path).unlink(missing_ok=True)
        check = getattr(self, "_check_" + argv[0].replace("-", "_"))
        return Op(argv[0], timed, lambda proc, error: self._verdict(argv, proc, error, check))

    def _verdict(self, argv, proc, error, check):
        if error is not None:
            return Verdict(False, True, f"{argv[0]}: {error}")
        if proc.returncode not in (0, 2, 3):
            return Verdict(False, True, f"{argv[0]} exit {proc.returncode}: {proc.stderr[-300:]}")
        ok = check(argv, proc)
        return Verdict(ok, detail="" if ok else f"{' '.join(argv)}: exit {proc.returncode}")

    @staticmethod
    def _value(stdout: str, key: str) -> str | None:
        for line in stdout.splitlines():
            if line.startswith(key + ","):
                return line.split(",", 1)[1]
        return None

    def _check_nu0(self, argv, proc):
        imp = self.imp
        model = self.models[argv[2][:-4]]
        doped = imp.DopedLiquid(model, imp.Concentration.from_micromolar(float(argv[4])))
        res = imp.find_nu0(doped, gen.NU0_BRACKET, gen.NU0_TOL)
        return proc.returncode == 0 and self._value(proc.stdout, "nu0_THz") == repr(res.nu0)

    def _check_ce_for_nu0(self, argv, proc):
        ce = self.imp.ce_for_nu0(self.models[argv[2][:-4]], float(argv[4]))
        return proc.returncode == 0 and self._value(proc.stdout, "ce_uM") == repr(ce.micromolar)

    def _check_match(self, argv, proc):
        pair = (argv[2][:-4], argv[4][:-4])
        if pair not in self._match_expected:
            try:
                sol = self.imp.match_profiles(self.models[pair[0]], self.models[pair[1]])
                self._match_expected[pair] = (0, repr(sol.nu0))
            except self.imp.ImpostoronError as exc:
                self._match_expected[pair] = (3, str(exc) + "\n")
        code, text = self._match_expected[pair]
        if proc.returncode != code:
            return False
        if code == 0:
            return self._value(proc.stdout, "nu0_THz") == text
        return proc.stderr == text

    def _check_synth(self, argv, proc):
        return proc.returncode == 0 and os.path.getsize(self.map_path) > 0

    def _check_extract(self, argv, proc):
        imp = self.imp
        path = Path(self.map_path)
        if not path.exists():  # synth failed; extract must say so
            return proc.returncode == 3
        try:
            with open(path, encoding="utf-8") as fh:
                res = imp.extract(imp.read_map_csv(fh))
        except imp.ImpostoronError as exc:
            return proc.returncode == 3 and proc.stderr == str(exc) + "\n"
        meta = [
            f"impostoron {imp.__version__}",
            f"input-sha256 map: {hashlib.sha256(path.read_bytes()).hexdigest()}",
        ]
        buf = io.StringIO()
        imp.write_trace_csv(res.oscillation, buf, meta=meta)
        imp.write_spectrum_csv(res.spectrum, buf, meta=meta)
        p = res.peak
        buf.write(
            f"peak_frequency_THz={p.peak_frequency!r} fwhm_THz={p.fwhm!r} "
            f"amplitude={p.amplitude!r}\n"
        )
        return proc.returncode == 0 and proc.stdout == buf.getvalue()


WORKLOADS = {w.name: w for w in (Cli, Resonance, PumpProbe)}
