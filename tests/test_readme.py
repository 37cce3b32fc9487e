"""The command-line examples of README.md exit as the README says they do."""

import re
import shlex
from pathlib import Path

from impostoron.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def command_lines() -> list[str]:
    """The `impostoron ...` lines of the README's command-line block, in order."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", text, re.S | re.M).group(1)
    return [line for line in block.splitlines() if line.startswith("impostoron ")]


def test_command_line_examples_exit_as_documented(tmp_path, monkeypatch, capsys):
    lines = command_lines()
    assert lines, "no impostoron lines in the command-line block"
    monkeypatch.chdir(tmp_path)  # the examples write map.csv and read it back
    for line in lines:
        # a line documents a non-zero exit as "# exits N: <stderr fragment>"
        command, _, comment = line.partition("#")
        documented = re.fullmatch(r" exits (\d): (.+)", comment) if comment else None
        assert documented or not comment, line
        try:
            code = run(shlex.split(command)[1:])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        err = capsys.readouterr().err
        assert code == (int(documented.group(1)) if documented else 0), (line, err)
        if documented:
            assert documented.group(2) in err, (line, err)
