import re
import shutil

import numpy as np
import pytest

from impostoron.cli import build_parser, data_dir, resolve_data_path, run
from impostoron.errors import DataFileError


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
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

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

    def test_profile_match_degenerate_pair(self, capsys):
        assert run(
            ["match", "--liquid-a", "eg.liq", "--liquid-b", "eg.liq", "--profile",
             "--bracket", "0.3,1.5"]
        ) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["degenerate"] == "true"
        assert kv["note"].startswith("degenerate")


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

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1.0,0.5\n", "line 3: 1 values, the header has 2"),
            ("1.0,0.5,abc\n", "line 3: non-numeric cell"),
        ],
    )
    def test_extract_malformed_map_exits_3(self, tmp_path, capsys, row, message):
        path = tmp_path / "map.csv"
        path.write_text("# meta\ntau_ps\\t_ps,0.0,0.1\n" + row)
        code = run(["extract", "--input", str(path)])
        assert code == 3
        assert message in capsys.readouterr().err

    def test_synth_lossless_liquid_exits_3(self, capsys):
        code = run(["synth", "--liquid", "dispersionless.liq", "--ce", "25"])
        assert code == 3
        assert "lossless" in capsys.readouterr().err


def test_out_files_carry_metadata(tmp_path):
    out = tmp_path / "nu0.csv"
    assert run(["nu0", "--liquid", "water.liq", "--ce", "60", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# impostoron ")
    assert lines[1].startswith("# input-sha256 liquid: ")
    assert re.fullmatch(r"# input-sha256 liquid: [0-9a-f]{64}", lines[1])
    assert lines[2] == "key,value"


def test_parser_builds_without_side_effects():
    parser = build_parser()
    assert parser.prog == "impostoron"
