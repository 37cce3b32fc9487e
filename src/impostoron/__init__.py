"""Dielectric mixing of solvated electrons in polar liquids.

The package models how a dilute gas of bound electrons shifts the complex
permittivity of its host liquid, locates the resulting polaron resonance
(the zero crossing of the real permittivity), inverts measured permittivity
back to a concentration, matches resonances across different liquids, and
synthesizes/extracts the oscillatory part of two-dimensional THz pump-probe
maps. Frequencies are in THz, times in ps, concentrations in micromolar at
every public interface.

`import impostoron` loads no submodule: a submodule is imported on the first
use of one of its names, or of its own name (PEP 562). A name read through the package is always
the defining module's current binding; the package keeps no copy of it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: Each submodule and the public names it defines, in layer order.
_EXPORTS = {
    "constants": ("CONSTANTS", "PhysicalConstants"),
    "dielectric": (
        "DebyeModel",
        "TabulatedModel",
        "LiquidModel",
        "eval_neat",
        "load_liquid_file",
        "loads_liquid",
        "validity_range",
    ),
    "errors": (
        "ImpostoronError",
        "DomainError",
        "RangeError",
        "ParseError",
        "DataFileError",
        "SingularityError",
        "NoResonanceError",
        "NoConsistentLossError",
        "UnreachableFrequencyError",
        "NoProfileMatchError",
        "DegenerateLineshapeError",
        "GridError",
        "NoSignalError",
        "StepFitError",
        "PeakError",
        "EdgePeakError",
        "UnboundedWidthError",
    ),
    "mixing": ("Concentration", "DopedLiquid", "alpha_el", "cm_mix", "cm_invert_concentration"),
    "polaron": (
        "Spectrum",
        "PolaronResonance",
        "eps_doped",
        "find_nu0",
        "eps_imag_at_nu0",
        "lineshape",
        "lorentz_lineshape",
    ),
    "matching": ("ImpostoronSolution", "ce_for_nu0", "match_frequency", "match_profiles"),
    "signal": (
        "TimeTrace",
        "FieldMap2D",
        "StepModel",
        "PeakReport",
        "ExtractionResult",
        "synth_oscillation",
        "synth_map",
        "gaussian_probe",
        "add_noise",
        "remove_step",
        "spectrum_of",
        "peak_report",
        "extract",
        "read_trace_csv",
        "write_trace_csv",
        "read_spectrum_csv",
        "write_spectrum_csv",
        "read_map_csv",
        "write_map_csv",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    """A public name from its submodule, or a submodule, imported on first use."""
    if name in _MODULE_OF:
        return getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
