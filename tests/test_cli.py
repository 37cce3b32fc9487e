import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from impostoron import __version__, signal
from impostoron.cli import build_parser, data_dir, resolve_data_path, run
from impostoron.dielectric import _read_text, load_liquid_file
from impostoron.errors import DataFileError
from impostoron.matching import match_frequency, match_profiles
from impostoron.mixing import Concentration, DopedLiquid
from impostoron.polaron import find_nu0, lorentz_lineshape
from impostoron.signal import (
    FieldMap2D,
    StepModel,
    TimeTrace,
    remove_step,
    write_map_csv,
    write_trace_csv,
)

ROOT = Path(__file__).resolve().parent.parent


def parse_kv(text: str) -> dict:
    pairs = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or line == "key,value":
            continue
        key, _, value = line.partition(",")
        pairs[key] = value
    return pairs


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["nu0", "--liquid", "water.liq", "--ce", "-5"],
            ["nu0", "--liquid", "water.liq", "--ce", "abc"],
            ["nu0", "--liquid", "water.liq", "--ce", "60", "--bracket", "3,1"],
            ["nu0", "--liquid", "water.liq", "--ce", "60", "--bracket", "1"],
            ["nu0", "--liquid", "water.liq", "--ce", "60", "--tol", "0"],
            ["nu0", "--liquid", "water.liq"],  # --ce missing
            ["ce-for-nu0", "--liquid", "water.liq", "--nu0", "-0.7"],
            ["match", "--liquid-a", "ipa.liq", "--liquid-b", "eg.liq"],  # no mode
            ["synth", "--liquid", "water.liq", "--ce", "40", "--n", "8"],
            ["bogus-command"],
            ["eps", "--liquid", "water.liq", "--nu-max", "inf"],
            ["eps", "--liquid", "water.liq", "--nu-step", "1e-300"],
            # 2**24 steps over the default 0.2-2.0 THz: one point over the cap
            ["eps", "--liquid", "water.liq", "--nu-step", repr(1.8 / 2**24)],
            ["synth", "--liquid", "water.liq", "--ce", "40", "--map", "--dt", "inf"],
            ["synth", "--liquid", "water.liq", "--ce", "40", "--noise-snr-db", "20"]
            + ["--seed", "-1"],
            ["synth", "--liquid", "water.liq", "--ce", "40", "--dtau", "inf"],
            # finite, but the delay grid of 1024 samples overflows
            ["synth", "--liquid", "water.liq", "--ce", "40", "--dtau", "1e308"],
            # the synthesis band, filter radius and step low-pass are fixed
            ["synth", "--liquid", "water.liq", "--ce", "40", "--band", "0.2,2.0"],
            ["extract", "--input", "m.csv", "--filter-thz", "4"],
            ["extract", "--input", "m.csv", "--band-lo", "0.4"],
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eps", "--liquid", "water.liq", "--nu-min", "3"], "--nu-max must exceed --nu-min"),
            (["synth", "--liquid", "water.liq", "--ce", "40", "--n", "8"], "--n must be at least 16"),
            (["nu0", "--liquid", "water.liq", "--ce", "40", "--bracket", "0.2,two"],
             "argument --bracket: bracket must be numeric, got '0.2,two'"),
        ],
    )
    def test_usage_error_names_its_subcommand(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: impostoron {argv[0]} "), err
        assert f"\nimpostoron {argv[0]}: error: {message}" in err, err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert re.fullmatch(r"impostoron \d+\.\d+\.\d+\n", capsys.readouterr().out)

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            run(["--help"])
        out = capsys.readouterr().out
        for name in ("eps", "nu0", "ce-for-nu0", "match", "lineshape", "synth", "extract"):
            assert name in out


class TestDataResolution:
    def test_packaged_fallback(self):
        p = resolve_data_path("water.liq")
        assert p == data_dir() / "water.liq"

    def test_cwd_wins(self, tmp_path, monkeypatch):
        local = tmp_path / "water.liq"
        shutil.copy(data_dir() / "ipa.liq", local)  # different content on purpose
        monkeypatch.chdir(tmp_path)
        assert resolve_data_path("water.liq") == local

    def test_env_dir_searched(self, tmp_path, monkeypatch):
        custom = tmp_path / "mine.liq"
        shutil.copy(data_dir() / "eg.liq", custom)
        monkeypatch.setenv("IMPOSTORON_DATA_DIR", str(tmp_path))
        assert resolve_data_path("mine.liq") == custom

    def test_missing_file_lists_search_locations(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IMPOSTORON_DATA_DIR", str(tmp_path))
        with pytest.raises(DataFileError, match="searched:") as exc:
            resolve_data_path("nope.liq")
        assert str(tmp_path) in str(exc.value)

    def test_missing_liquid_exits_3(self, capsys):
        code = run(["nu0", "--liquid", "definitely-not-there.liq", "--ce", "60"])
        assert code == 3
        assert "not found" in capsys.readouterr().err

    def test_non_utf8_liquid_exits_3(self, tmp_path, capsys):
        path = tmp_path / "latin1.liq"
        path.write_bytes("name = caf\xe9\ntype = debye\neps_inf = 2.0\n".encode("latin-1"))
        code = run(["nu0", "--liquid", str(path), "--ce", "60"])
        assert code == 3
        assert "not UTF-8" in capsys.readouterr().err

    def test_directory_as_liquid_exits_3(self, tmp_path, capsys):
        code = run(["nu0", "--liquid", str(tmp_path), "--ce", "60"])
        assert code == 3
        assert "cannot read liquid file" in capsys.readouterr().err

    def test_non_utf8_map_exits_3(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("# caf\xe9\ntau_ps\\t_ps,0.0,0.1\n".encode("latin-1"))
        code = run(["extract", "--input", str(path)])
        assert code == 3
        assert "not UTF-8" in capsys.readouterr().err

    def test_directory_as_map_exits_3(self, tmp_path, capsys):
        code = run(["extract", "--input", str(tmp_path)])
        assert code == 3
        assert "cannot read map file" in capsys.readouterr().err


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestInputsReadOnce:
    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_endings_read_as_lf(self, tmp_path, capsys, newline):
        lf_map = tmp_path / "lf.csv"
        assert run(["synth", "--liquid", "water.liq", "--ce", "36", "--map",
                    "--n", "256", "--out", str(lf_map)]) == 0
        lf_liq = tmp_path / "lf.liq"
        shutil.copy(data_dir() / "eg.liq", lf_liq)
        other_map, other_liq = tmp_path / "other.csv", tmp_path / "other.liq"
        for lf, other in ((lf_map, other_map), (lf_liq, other_liq)):
            data = lf.read_bytes()
            assert b"\r" not in data
            other.write_bytes(data.replace(b"\n", newline.encode()))

        assert load_liquid_file(other_liq) == load_liquid_file(lf_liq)
        maps = [signal.read_map_csv(io.StringIO(_read_text(p, "map")[0]))
                for p in (lf_map, other_map)]
        for field in ("t_grid", "tau_grid", "values"):
            assert getattr(maps[1], field).tobytes() == getattr(maps[0], field).tobytes()

        def results(argv, path):
            """Stdout and out files of argv on the input path, its hash masked."""
            outs = [tmp_path / "osc.csv", tmp_path / "spec.csv"]
            argv = [*argv, str(path)]
            if argv[0] == "extract":
                argv += ["--out-oscillation", str(outs[0]), "--out-spectrum", str(outs[1])]
            assert run(argv) == 0
            texts = [capsys.readouterr().out] + [o.read_text() for o in outs if o.exists()]
            # the header hashes the bytes of the file as given
            return [text.replace(sha256_of(path), "<sha256>") for text in texts]

        for argv, lf, other in ((["nu0", "--ce", "30", "--liquid"], lf_liq, other_liq),
                                (["extract", "--input"], lf_map, other_map)):
            expected = results(argv, lf)
            assert all("input-sha256" not in t or "<sha256>" in t for t in expected)
            assert results(argv, other) == expected

    def test_each_input_opened_once(self, tmp_path):
        map_csv = tmp_path / "map.csv"
        assert run(["synth", "--liquid", "water.liq", "--ce", "36", "--map",
                    "--n", "256", "--out", str(map_csv)]) == 0
        commands = [
            ["nu0", "--liquid", "water.liq", "--ce", "40"],
            ["match", "--liquid-a", "ipa.liq", "--liquid-b", "eg.liq", "--nu0", "0.7"],
            ["extract", "--input", str(map_csv)],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", _OPEN_COUNTER, json.dumps(commands)],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        opened = json.loads(proc.stdout.splitlines()[-1])
        inputs = {
            "nu0": [data_dir() / "water.liq"],
            "match": [data_dir() / "ipa.liq", data_dir() / "eg.liq"],
            "extract": [map_csv],
        }
        for command, paths in inputs.items():
            code, counts = opened[command]
            assert code == 0
            assert [counts.get(os.path.realpath(p), 0) for p in paths] == [1] * len(paths)


# Runs in a fresh interpreter: counts the `open` audit events of each command
# by the real path opened.
_OPEN_COUNTER = """
import collections, contextlib, io, json, os, sys
import impostoron.cli

opened = collections.Counter()


def count(event, args):
    if event == "open" and isinstance(args[0], (str, bytes, os.PathLike)):
        opened[os.path.realpath(os.fsdecode(args[0]))] += 1


sys.addaudithook(count)
result = {}
for argv in json.loads(sys.argv[1]):
    opened.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        code = impostoron.cli.run(argv)
    result[argv[0]] = [code, dict(opened)]
print(json.dumps(result))
"""


class TestNu0Command:
    def test_water_resonance(self, capsys):
        assert run(["nu0", "--liquid", "water.liq", "--ce", "60"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# impostoron ")
        assert "# input-sha256 liquid:" in out
        kv = parse_kv(out)
        nu0 = float(kv["nu0_THz"])
        assert 0.6 < nu0 < 1.0
        assert float(kv["ce_uM"]) == 60.0
        assert float(kv["eps_imag_at_nu0"]) > 0

    def test_no_resonance_exits_3(self, capsys):
        code = run(
            ["nu0", "--liquid", "dispersionless.liq", "--ce", "25", "--bracket", "1,3"]
        )
        assert code == 3
        assert "no polaron resonance" in capsys.readouterr().err


class TestCeForNu0Command:
    def test_dispersionless_reference(self, capsys):
        assert run(["ce-for-nu0", "--liquid", "dispersionless.liq", "--nu0", "0.7"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["ce_uM"]) == pytest.approx(25.0, abs=2.5e-3)

    def test_overflowing_frequency_exits_3(self, capsys):
        assert run(["ce-for-nu0", "--liquid", "water.liq", "--nu0", "1e200"]) == 3
        assert "frequency 1e+200 THz overflows" in capsys.readouterr().err

    def test_frequency_overflowing_alpha_el_prints_only_the_message(self):
        # a process of its own, so a numpy warning would reach its stderr
        proc = subprocess.run(
            [sys.executable, "-m", "impostoron", "ce-for-nu0", "--liquid",
             "dispersionless.liq", "--nu0", "1.7e308"],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr == (
            "alpha_el leaves the float range at nu in [1.7e+308, 1.7e+308] THz\n"
        )

    def test_round_trip_with_nu0_command(self, capsys):
        assert run(["ce-for-nu0", "--liquid", "eg.liq", "--nu0", "0.9"]) == 0
        ce = float(parse_kv(capsys.readouterr().out)["ce_uM"])
        assert run(["nu0", "--liquid", "eg.liq", "--ce", repr(ce)]) == 0
        nu0 = float(parse_kv(capsys.readouterr().out)["nu0_THz"])
        assert abs(nu0 - 0.9) < 1e-5


class TestEpsCommand:
    def test_neat_table_matches_library(self, capsys, liquids):
        assert run(
            ["eps", "--liquid", "eg.liq", "--nu-min", "0.4", "--nu-max", "0.6",
             "--nu-step", "0.1"]
        ) == 0
        out = capsys.readouterr().out
        rows = [l.split(",") for l in out.splitlines()
                if l and not l.startswith("#") and not l.startswith("nu_THz")]
        assert len(rows) == 3
        from impostoron.dielectric import eval_neat

        for nu_s, re_s, im_s in rows:
            ref = eval_neat(liquids["eg"], float(nu_s))
            assert float(re_s) == pytest.approx(ref.real, rel=1e-12)
            assert float(im_s) == pytest.approx(ref.imag, rel=1e-12)

    def test_grid_order_validated(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["eps", "--liquid", "eg.liq", "--nu-min", "2.0", "--nu-max", "1.0"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, lines_read",
    [
        # 30000 rows, far more than a pipe holds, so a write meets the closed pipe
        (["eps", "--liquid", "water.liq", "--nu-step", "0.0001"], 1),
        # closed before the child writes: the output waits in stdout's buffer
        # until the final flush, which must not fail again at exit
        (["nu0", "--liquid", "water.liq", "--ce", "40"], 0),
    ],
    ids=["after-first-line", "before-any-output"],
)
def test_closed_stdout_exits_3_without_traceback(argv, lines_read):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)  # buffered, as in a shell pipeline
    proc = subprocess.Popen(
        [sys.executable, "-m", "impostoron", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    for _ in range(lines_read):
        assert proc.stdout.readline() == f"# impostoron {__version__}\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 3
    assert stderr == "stdout closed before all output was written\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "out, message",
    [
        (["--out", "/dev/full"], "cannot write output file '/dev/full': No space left on device\n"),
        ([], "cannot write to stdout: No space left on device\n"),
    ],
    ids=["out-file", "stdout"],
)
def test_full_device_exits_3_with_one_line(out, message):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "impostoron", "nu0", "--liquid", "water.liq", "--ce", "40", *out],
            env=env,
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    assert (proc.returncode, proc.stderr) == (3, message)


@pytest.mark.parametrize("name", ["missing/x.csv", "."], ids=["missing-dir", "directory"])
def test_unwritable_out_file_exits_3(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    assert run(["nu0", "--liquid", "water.liq", "--ce", "40", "--out", name]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write output file '{name}': ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["nu0", "--ce", "40", "--liquid"], ["extract", "--input"]])
def test_overlong_file_name_exits_3(capsys, argv):
    assert run([*argv, "x" * 5000]) == 3
    assert "not found" in capsys.readouterr().err


class TestMatchCommand:
    def test_frequency_match(self, capsys):
        assert run(
            ["match", "--liquid-a", "ipa.liq", "--liquid-b", "water.liq", "--nu0", "0.7"]
        ) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["ce_a_uM"]) == pytest.approx(25.0, rel=0.2)
        assert float(kv["ce_b_uM"]) == pytest.approx(40.0, rel=0.2)
        assert kv["profile_matched"] == "false"

    def test_profile_match_failure_exits_3(self, capsys):
        code = run(["match", "--liquid-a", "ipa.liq", "--liquid-b", "water.liq", "--profile"])
        assert code == 3
        assert "no profile-matched impostoron" in capsys.readouterr().err

    def test_infinite_bracket_end_prints_only_the_message(self):
        # a process of its own, so a numpy warning would reach its stderr
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "impostoron", "match",
             "--liquid-a", "ipa.liq", "--liquid-b", "eg.liq", "--profile", "--bracket", "0.2,inf"],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr == "bad bracket [0.2, inf] THz\n"

    def test_profile_match_degenerate_pair(self, capsys):
        assert run(
            ["match", "--liquid-a", "eg.liq", "--liquid-b", "eg.liq", "--profile",
             "--bracket", "0.3,1.5"]
        ) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["degenerate"] == "true"
        assert kv["note"].startswith("degenerate")

    def test_profile_match_degenerate_pair_undefined_at_the_bracket_end(self, capsys, tmp_path):
        # no consistent loss below 0.69 THz: the witness is the first scan
        # node where both width terms are defined
        liq = tmp_path / "t.liq"
        liq.write_text(
            "name = t\ntype = table\ncolumns = nu_THz, eps_real, eps_imag\n"
            "0.1, -0.5, 1.5\n3.0, 2, 0.1\n"
        )
        assert run(["match", "--liquid-a", str(liq), "--liquid-b", str(liq), "--profile"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["degenerate"] == "true"
        assert kv["nu0_THz"] == "0.6884422110552764"


class TestLineshapeCommand:
    def test_exact_and_lorentz_agree_near_peak(self, capsys):
        args = ["lineshape", "--liquid", "ipa.liq", "--ce", "25",
                "--nu-min", "0.6", "--nu-max", "0.8", "--nu-step", "0.001"]
        assert run(args) == 0
        exact = capsys.readouterr().out
        assert run(args + ["--lorentz"]) == 0
        lorentz = capsys.readouterr().out

        def values(text):
            rows = [l.split(",") for l in text.splitlines()
                    if l and not l.startswith("#") and not l.startswith("nu_THz")]
            return np.array([[float(a), float(b)] for a, b in rows])

        e, l = values(exact), values(lorentz)
        np.testing.assert_array_equal(e[:, 0], l[:, 0])
        i = int(np.argmax(e[:, 1]))
        assert abs(e[i, 1] - l[:, 1].max()) / e[:, 1].max() < 0.05

    def test_lorentz_of_a_height_past_the_float_range_exits_3(self, tmp_path):
        # eps''(nu0) = 2.77e-311, so 1/eps'' overflows; a process of its own
        # with the CI's warning setting, so a numpy warning would reach stderr
        (tmp_path / "tiny.liq").write_text(
            "name = tiny\ntype = table\ncolumns = nu_THz, eps_real, eps_imag\n"
            "0.05, 1.8, 1e-310\n3.5, 1.8, 1e-310\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "impostoron", "lineshape", "--liquid", "tiny.liq",
             "--ce", "40", "--lorentz"],
            cwd=tmp_path,
            env=dict(
                os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error::RuntimeWarning"
            ),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "line shape degenerates to a delta: eps''(nu0) = 2.77008e-311\n"


class TestSynthAndExtract:
    def test_trace_deterministic_per_seed(self, tmp_path):
        args = ["synth", "--liquid", "water.liq", "--ce", "36", "--n", "256",
                "--noise-snr-db", "20", "--seed", "7"]
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert run(args[:-1] + ["8", "--out", str(c)]) == 0
        assert a.read_text() == b.read_text()
        assert a.read_text() != c.read_text()
        assert "# seed: 7" in a.read_text()

    def test_trace_csv_loads_and_is_causal(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert run(["synth", "--liquid", "water.liq", "--ce", "36", "--n", "256",
                    "--out", str(out)]) == 0
        from impostoron.signal import read_trace_csv

        with open(out) as fh:
            tr = read_trace_csv(fh)
        assert tr.times.size == 256
        assert np.all(tr.values[tr.times < 0] == 0.0)

    def test_map_to_extract_round_trip(self, tmp_path, capsys):
        map_csv = tmp_path / "map.csv"
        assert run(["synth", "--liquid", "water.liq", "--ce", "36", "--map",
                    "--n", "512", "--out", str(map_csv)]) == 0
        osc_csv = tmp_path / "osc.csv"
        spec_csv = tmp_path / "spec.csv"
        assert run(["extract", "--input", str(map_csv),
                    "--out-oscillation", str(osc_csv),
                    "--out-spectrum", str(spec_csv)]) == 0
        final = capsys.readouterr().out.strip().splitlines()[-1]
        m = re.fullmatch(
            r"peak_frequency_THz=(?P<nu>[0-9.e+-]+) fwhm_THz=(?P<fw>[0-9.e+-]+) "
            r"amplitude=(?P<amp>[0-9.e+-]+)",
            final,
        )
        assert m, final
        # water at 36 uM was calibrated to cross very near 0.7 THz
        assert abs(float(m["nu"]) - 0.7) < 0.03
        assert float(m["fw"]) > 0
        assert osc_csv.exists() and spec_csv.exists()
        from impostoron.signal import read_spectrum_csv, read_trace_csv

        with open(osc_csv) as fh:
            osc = read_trace_csv(fh)
        with open(spec_csv) as fh:
            spec = read_spectrum_csv(fh)
        assert osc.times.size == 512
        assert spec.frequencies[0] == 0.0

    def test_extract_missing_input_exits_3(self, tmp_path, capsys):
        code = run(["extract", "--input", str(tmp_path / "none.csv")])
        assert code == 3
        assert "not found" in capsys.readouterr().err

    def test_extract_map_whose_transform_overflows_prints_only_the_message(self, tmp_path):
        grid = np.arange(16) * 0.1
        path = tmp_path / "map.csv"
        with open(path, "w") as fh:
            write_map_csv(FieldMap2D(grid, grid, np.full((16, 16), 1.5e308)), fh)
        # a process of its own, so a numpy warning would reach its stderr
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "impostoron",
             "extract", "--input", str(path)],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr == "map values must be finite\n"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1.0,0.5\n", "line 3: 2 values, the header has 3"),
            ("1.0,0.5,abc\n", "line 3: non-numeric cell"),
        ],
    )
    def test_extract_malformed_map_exits_3(self, tmp_path, capsys, row, message):
        path = tmp_path / "map.csv"
        path.write_text("# meta\ntau_ps\\t_ps,0.0,0.1\n" + row)
        code = run(["extract", "--input", str(path)])
        assert code == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("dtau", [0.02, 2e-5])  # delay spans 0.62 and 0.00062 ps
    def test_extract_short_delay_span_exits_0_or_3(self, tmp_path, dtau):
        tau = (np.arange(32) - 8) * dtau
        t = (np.arange(16) - 8) * 0.05
        delay = np.where(tau >= 0, 1.0, 0.0) + 0.1 * np.cos(2 * np.pi * 0.7 * tau)
        path = tmp_path / "map.csv"
        fmap = FieldMap2D(t_grid=t, tau_grid=tau, values=np.outer(delay, np.cos(t)))
        with open(path, "w") as fh:
            write_map_csv(fmap, fh)
        code = run(["extract", "--input", str(path),
                    "--out-oscillation", str(tmp_path / "osc.csv"),
                    "--out-spectrum", str(tmp_path / "spec.csv")])
        assert code in (0, 3)

    @pytest.mark.parametrize(
        "size",
        [
            ["--map", "--n", "16", "--dt", "1e-9"],  # 6.4e9 probe samples
            ["--map", "--n", "16", "--dt", "1e-320"],  # 6.4/dt overflows
            ["--n", str(10**12)],  # 10**12 delays in one trace
        ],
    )
    def test_synth_over_size_bound_exits_3(self, capsys, size):
        code = run(["synth", "--liquid", "water.liq", "--ce", "40", *size])
        assert code == 3
        assert "synth request too large" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "size", [["--dt", "1", "--n", "64"], ["--dt", "100", "--n", "16777217"]]
    )
    def test_synth_map_checks_the_probe_grid_first(self, capsys, monkeypatch, size):
        # under 16 probe samples: rejected before any delay-axis work
        def unreachable(*args, **kwargs):
            raise AssertionError("delay grid built before the probe grid was checked")

        monkeypatch.setattr(signal, "synth_oscillation", unreachable)
        monkeypatch.setattr(signal, "synth_map", unreachable)
        code = run(["synth", "--liquid", "water.liq", "--ce", "40", "--map", *size])
        assert code == 3
        assert "time grid needs at least 16 samples" in capsys.readouterr().err

    def test_synth_trace_bounded_by_its_own_length(self, tmp_path):
        # a trace of 65537 delays holds 65537 samples, far inside 2^24
        out = tmp_path / "trace.csv"
        assert run(["synth", "--liquid", "water.liq", "--ce", "40", "--n", "65537",
                    "--out", str(out)]) == 0
        from impostoron.signal import read_trace_csv

        with open(out) as fh:
            assert read_trace_csv(fh).times.size == 65537

    def test_synth_lossless_liquid_exits_3(self, capsys):
        code = run(["synth", "--liquid", "dispersionless.liq", "--ce", "25"])
        assert code == 3
        assert "lossless" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--noise-snr-db=-1e4"], "SNR -10000 dB is out of range"),
            (["--noise-snr-db=-1e308"], "SNR -1e+308 dB is out of range"),
            (["--n", "16", "--dtau", "0.05"], "only one spectral bin of the 16-sample"),
            (["--noise-snr-db=-inf"], "SNR -inf dB is out of range"),
            (["--noise-snr-db=nan"], "SNR nan dB is out of range"),
        ],
    )
    def test_synth_domain_errors_exit_3(self, capsys, args, message):
        code = run(["synth", "--liquid", "water.liq", "--ce", "40", *args])
        assert code == 3
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "term, argv, message",
    [
        ("1e300, 1.0", ["ce-for-nu0", "--nu0", "0.01"], "too large: |eps_neat + 2|^2 overflows"),
        ("1e308, 10.0", ["nu0", "--ce", "0.005", "--bracket", "0.001,0.02"],
         "slope d(eps')/d(nu) at nu0 = 0.007"),
    ],
    ids=["crossing-loss", "slope"],
)
def test_overflow_exits_3(tmp_path, capsys, term, argv, message):
    liq = tmp_path / "huge.liq"
    liq.write_text(f"name = huge\ntype = debye\neps_inf = 2.0\nterm = {term}\n")
    assert run([argv[0], "--liquid", str(liq), *argv[1:]]) == 3
    assert message in capsys.readouterr().err


def test_out_files_carry_metadata(tmp_path):
    # the header README documents: the version, one input-sha256 line per
    # liquid file, and for synth the seed, then the table's column line
    def sha(name):
        return sha256_of(data_dir() / name)

    cases = [
        (["nu0", "--liquid", "water.liq", "--ce", "60"],
         [f"# input-sha256 liquid: {sha('water.liq')}", "key,value"]),
        (["match", "--liquid-a", "ipa.liq", "--liquid-b", "eg.liq", "--nu0", "0.7"],
         [f"# input-sha256 a: {sha('ipa.liq')}", f"# input-sha256 b: {sha('eg.liq')}",
          "key,value"]),
        (["synth", "--liquid", "water.liq", "--ce", "40", "--n", "64", "--seed", "7"],
         [f"# input-sha256 liquid: {sha('water.liq')}", "# seed: 7", "tau_ps,amplitude"]),
    ]
    for argv, header in cases:
        out = tmp_path / f"{argv[0]}.csv"
        assert run([*argv, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[: len(header) + 1] == [f"# impostoron {__version__}", *header]


def doped(liquids, stem, ce_um):
    return DopedLiquid(liquids[stem], Concentration.from_micromolar(ce_um))


def nu0_keys(res):
    return {"nu0_THz": res.nu0, "slope_B_per_THz": res.slope_B}


def match_keys(sol):
    return {
        "nu0_THz": sol.nu0,
        "freq_residual_THz": sol.freq_residual,
        "profile_residual_per_THz": sol.profile_residual,
    }


MATCH = ["match", "--liquid-a", "ipa.liq", "--liquid-b", "eg.liq"]


@pytest.mark.parametrize(
    "argv, library",
    [
        (["nu0", "--liquid", "water.liq", "--ce", "40"],
         lambda lq, grid: nu0_keys(find_nu0(doped(lq, "water", 40.0)))),
        (["nu0", "--liquid", "water.liq", "--ce", "40", "--tol", "1e-12"],
         lambda lq, grid: nu0_keys(find_nu0(doped(lq, "water", 40.0), tol=1e-12))),
        (["lineshape", "--liquid", "ipa.liq", "--ce", "25", "--lorentz", "--nu-step", "0.01"],
         lambda lq, grid: lorentz_lineshape(find_nu0(doped(lq, "ipa", 25.0)), grid).values),
        # a degenerate pair matches at the lowest scan node where both width
        # terms are defined, with the scan's concentrations there
        (["match", "--liquid-a", "eg.liq", "--liquid-b", "eg.liq", "--profile"],
         lambda lq, grid: match_keys(match_profiles(lq["eg"], lq["eg"]))),
        *(
            (MATCH + ["--nu0", nu0], lambda lq, grid, nu0=nu0: match_keys(
                match_frequency(lq["ipa"], lq["eg"], float(nu0))))
            for nu0 in ("0.15", "0.7", "2.5")
        ),
    ],
    ids=["nu0", "nu0-tol", "lineshape-lorentz", "match-profile", *(f"match-nu0-{v}" for v in (0.15, 0.7, 2.5))],
)
def test_searches_run_on_the_library_defaults_where_not_given(capsys, liquids, argv, library):
    # the CLI passes only the --bracket and --tol it was given, so each search
    # runs on its library function's own bracket and tolerance otherwise
    assert run(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "lineshape":  # the library's line on the grid the CLI printed
        got = signal.read_spectrum_csv(io.StringIO(out))
        np.testing.assert_array_equal(got.values, library(liquids, got.frequencies))
    else:
        want, kv = library(liquids, None), parse_kv(out)
        assert {key: kv[key] for key in want} == {key: repr(v) for key, v in want.items()}


def test_parser_builds_without_side_effects():
    parser = build_parser()
    assert parser.prog == "impostoron"


# Each probe runs in a fresh interpreter, so no call inherits another's imports.
# _MODULE_PROBE reports what `import impostoron` loads, then one cli.run's exit
# code and the impostoron modules and scipy loaded after it.
_MODULE_PROBE = """
import json, sys
import impostoron
bare = sorted(m for m in sys.modules if m.startswith("impostoron"))
import impostoron.cli
code = impostoron.cli.run(sys.argv[1:])
print(json.dumps({
    "code": code,
    "bare": bare,
    "loaded": sorted(m for m in sys.modules if m.startswith("impostoron.")),
    "scipy": "scipy" in sys.modules,
}))
"""

_STEP_PROBE = """
import json, sys
from impostoron.signal import read_trace_csv, remove_step
with open(sys.argv[1]) as fh:
    _, step = remove_step(read_trace_csv(fh))
print(json.dumps({
    "scipy": "scipy" in sys.modules,
    "step": [repr(step.amplitude), repr(step.rise_time), repr(step.onset)],
}))
"""

#: The impostoron modules a subcommand loads: the chain from liquid file to
#: resonance, with matching for the concentration searches and signal for the
#: line shapes, traces and maps.
_CHAIN = ["cli", "constants", "dielectric", "errors", "mixing", "polaron"]
_LOADS = {
    "eps": _CHAIN,
    "nu0": _CHAIN,
    "ce-for-nu0": _CHAIN + ["matching"],
    "match": _CHAIN + ["matching"],
    "lineshape": _CHAIN + ["signal"],
    "synth": _CHAIN + ["signal"],
    "extract": _CHAIN + ["signal"],
}


def _probe(script, args, cwd):
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path):
    # the package needs numpy alone, so no CLI command may import scipy either
    out, map_csv = str(tmp_path / "out.csv"), str(tmp_path / "map.csv")
    commands = [
        ["eps", "--liquid", "water.liq", "--ce", "40", "--nu-step", "0.01", "--out", out],
        ["nu0", "--liquid", "water.liq", "--ce", "40", "--out", out],
        ["ce-for-nu0", "--liquid", "water.liq", "--nu0", "0.7", "--out", out],
        ["match", "--liquid-a", "eg.liq", "--liquid-b", "eg.liq", "--profile",
         "--bracket", "0.3,1.5", "--out", out],
        ["lineshape", "--liquid", "water.liq", "--ce", "40", "--nu-step", "0.01", "--out", out],
        ["synth", "--liquid", "water.liq", "--ce", "40", "--map", "--n", "64", "--out", map_csv],
        ["extract", "--input", map_csv, "--out-oscillation", out, "--out-spectrum", out],
    ]
    got = {argv[0]: _probe(_MODULE_PROBE, argv, tmp_path) for argv in commands}
    assert list(got) == list(_LOADS)
    assert {cmd: g["code"] for cmd, g in got.items()} == dict.fromkeys(_LOADS, 0)
    assert {cmd: g["bare"] for cmd, g in got.items()} == dict.fromkeys(_LOADS, ["impostoron"])
    assert {cmd: g["loaded"] for cmd, g in got.items()} == {
        cmd: sorted(f"impostoron.{m}" for m in modules) for cmd, modules in _LOADS.items()
    }
    assert {cmd: g["scipy"] for cmd, g in got.items()} == dict.fromkeys(_LOADS, False)


def test_the_step_fit_leaves_scipy_unloaded(tmp_path):
    tau = (np.arange(256) - 32) * 0.1
    values = StepModel(amplitude=0.8, rise_time=1.1, onset=0.0).evaluate(tau)
    trace = TimeTrace(times=tau, values=values + 0.05 * np.cos(2 * np.pi * 0.7 * tau))
    trace_csv = tmp_path / "trace.csv"
    with open(trace_csv, "w") as fh:
        write_trace_csv(trace, fh)
    got = _probe(_STEP_PROBE, [str(trace_csv)], tmp_path)
    _, step = remove_step(trace)
    assert got == {
        "scipy": False,
        "step": [repr(step.amplitude), repr(step.rise_time), repr(step.onset)],
    }
