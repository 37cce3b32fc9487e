"""Each demo script runs to completion: exit 0 and nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "01_dielectric_models.py",
    "02_polaron_resonance.py",
    "03_impostoron_matching.py",
    "04_pump_probe_pipeline.py",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_clean(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
