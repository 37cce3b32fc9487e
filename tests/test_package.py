"""The package namespace: the same public names, each the defining module's live binding.

`import impostoron` resolves a public name on first use from the submodule
that defines it, so each read through the package must give that module's
current object, including one rebound after import.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import impostoron
from impostoron import polaron

#: The public names, by the submodule that defines each.
DEFINED_IN = {
    "constants": ["CONSTANTS", "PhysicalConstants"],
    "dielectric": [
        "DebyeModel", "LiquidModel", "TabulatedModel", "eval_neat", "load_liquid_file",
        "loads_liquid", "validity_range",
    ],
    "errors": [
        "DataFileError", "DegenerateLineshapeError", "DomainError", "EdgePeakError",
        "GridError", "ImpostoronError", "NoConsistentLossError", "NoProfileMatchError",
        "NoResonanceError", "NoSignalError", "ParseError", "PeakError", "RangeError",
        "SingularityError", "StepFitError", "UnboundedWidthError",
        "UnreachableFrequencyError",
    ],
    "matching": ["ImpostoronSolution", "ce_for_nu0", "match_frequency", "match_profiles"],
    "mixing": ["Concentration", "DopedLiquid", "alpha_el", "cm_invert_concentration", "cm_mix"],
    "polaron": [
        "PolaronResonance", "Spectrum", "eps_doped", "eps_imag_at_nu0", "find_nu0",
        "lineshape", "lorentz_lineshape",
    ],
    "signal": [
        "ExtractionResult", "FieldMap2D", "PeakReport", "StepModel", "TimeTrace", "add_noise",
        "extract", "gaussian_probe", "peak_report", "read_map_csv", "read_spectrum_csv",
        "read_trace_csv", "remove_step", "spectrum_of", "synth_map", "synth_oscillation",
        "write_map_csv", "write_spectrum_csv", "write_trace_csv",
    ],
}
ROOT = Path(__file__).resolve().parent.parent
PUBLIC = [(module, name) for module, names in DEFINED_IN.items() for name in names]


def test_all_lists_the_public_names():
    expected = sorted(["__version__"] + [name for _, name in PUBLIC])
    assert len(expected) == 62
    assert sorted(impostoron.__all__) == expected


@pytest.mark.parametrize("module, name", PUBLIC)
def test_a_name_is_the_object_of_its_defining_module(module, name):
    defining = import_module(f"impostoron.{module}")
    obj = getattr(impostoron, name)
    assert obj is vars(defining)[name]
    if getattr(obj, "__module__", "").startswith("impostoron"):
        assert obj.__module__ == defining.__name__


def test_dir_lists_every_public_name():
    assert set(impostoron.__all__) <= set(dir(impostoron))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from impostoron import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(impostoron.__all__)


def test_an_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'impostoron' has no attribute 'no_such'"):
        impostoron.no_such
    assert not hasattr(impostoron, "no_such")


def test_a_name_follows_a_rebinding_of_its_module(monkeypatch):
    original = polaron.find_nu0
    assert impostoron.find_nu0 is original

    def sentinel(*args, **kwargs):
        raise AssertionError("not to be called")

    monkeypatch.setattr(polaron, "find_nu0", sentinel)
    assert impostoron.find_nu0 is sentinel
    monkeypatch.undo()
    assert impostoron.find_nu0 is original


def test_a_submodule_loads_on_first_read_through_the_package():
    # in a fresh interpreter, where no test has imported a submodule yet
    probe = (
        "import json, sys, impostoron\n"
        "print(json.dumps({m: getattr(impostoron, m) is sys.modules[f'impostoron.{m}']"
        " for m in sys.argv[1:]}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, *DEFINED_IN],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == dict.fromkeys(DEFINED_IN, True)
