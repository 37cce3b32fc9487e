"""Dielectric function models of neat polar liquids.

A liquid is either a multi-term Debye relaxation model or a table of measured
complex permittivity samples with linear interpolation. Sign convention:
eps = eps' + i*eps'' with eps'' >= 0 for passive media. A Debye term is
evaluated as

    delta_eps * (1 + i*x) / (1 + x**2),   x = 2*pi*nu*tau,

i.e. the complex conjugate of delta_eps / (1 + i*x), which keeps the loss
non-negative under this convention.

Frequencies are in THz and relaxation times in ps everywhere, so x is
dimensionless without unit conversion (1/ps = 1 THz).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFileError, DomainError, ParseError, RangeError

#: Default step (THz) for the central-difference frequency derivative.
DERIVATIVE_STEP = 1e-3


def _readonly(a, dtype):
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DebyeModel:
    """Multi-term Debye relaxation: eps_inf plus a sum of (delta_eps, tau_ps) terms.

    If eps_static is given it must equal eps_inf + sum(delta_eps); the declared
    static value is redundant but catches transcription slips in hand-written
    parameter sets.
    """

    name: str
    eps_inf: float
    terms: tuple[tuple[float, float], ...] = ()
    eps_static: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.eps_inf) or self.eps_inf < 1.0:
            raise DomainError(f"eps_inf must be finite and >= 1, got {self.eps_inf}")
        terms = tuple((float(d), float(t)) for d, t in self.terms)
        object.__setattr__(self, "terms", terms)
        for delta, tau in terms:
            if not (math.isfinite(delta) and delta > 0):
                raise DomainError(f"Debye term strength must be positive, got {delta}")
            if not (math.isfinite(tau) and tau > 0):
                raise DomainError(f"Debye relaxation time must be positive, got {tau} ps")
        if self.eps_static is not None:
            implied = self.eps_inf + sum(d for d, _ in terms)
            if abs(implied - self.eps_static) > 1e-9 * max(1.0, abs(self.eps_static)):
                raise DomainError(
                    f"declared eps_static {self.eps_static} != eps_inf + sum(delta_eps) = {implied}"
                )


@dataclass(frozen=True)
class TabulatedModel:
    """Measured complex permittivity on a strictly increasing frequency grid (THz)."""

    name: str
    frequencies: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        freqs = _readonly(self.frequencies, float)
        vals = _readonly(self.values, complex)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "values", vals)
        if freqs.ndim != 1 or freqs.size < 2:
            raise DomainError("tabulated model needs at least two frequency samples")
        if vals.shape != freqs.shape:
            raise DomainError("frequency and permittivity arrays must have equal length")
        if not np.all(np.isfinite(freqs)) or freqs[0] <= 0:
            raise DomainError("tabulated frequencies must be finite and positive")
        if np.any(np.diff(freqs) <= 0):
            raise DomainError("tabulated frequencies must be strictly increasing")
        if not np.all(np.isfinite(vals.view(float))):
            raise DomainError("tabulated permittivities must be finite")
        if np.any(vals.imag < 0):
            raise DomainError("tabulated loss eps'' must be >= 0 (passive medium)")


LiquidModel = DebyeModel | TabulatedModel


def validity_range(model: LiquidModel) -> tuple[float, float]:
    """Frequency interval (THz) on which the model may be evaluated."""
    if isinstance(model, TabulatedModel):
        return float(model.frequencies[0]), float(model.frequencies[-1])
    return 0.0, math.inf


def _check_nu(nu):
    arr = np.asarray(nu, dtype=float)
    if arr.size == 0:
        raise DomainError("empty frequency input")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise DomainError("frequency must be finite and > 0 THz")
    return arr


def eval_neat(model: LiquidModel, nu):
    """Complex permittivity of the neat liquid at nu (THz, scalar or array)."""
    # a scalar is evaluated as a one-element array, so it rounds exactly as
    # the same frequency inside an array does
    arr = np.atleast_1d(_check_nu(nu))
    if isinstance(model, DebyeModel):
        eps = np.full(arr.shape, complex(model.eps_inf), dtype=complex)
        for delta, tau in model.terms:
            x = 2.0 * math.pi * arr * tau
            eps += delta * (1.0 + 1j * x) / (1.0 + x * x)
    else:
        lo, hi = model.frequencies[0], model.frequencies[-1]
        if np.any(arr < lo) or np.any(arr > hi):
            raise RangeError(
                f"frequency outside tabulated range [{lo:g}, {hi:g}] THz for '{model.name}'"
            )
        re = np.interp(arr, model.frequencies, model.values.real)
        im = np.interp(arr, model.frequencies, model.values.imag)
        eps = re + 1j * im
    if np.isscalar(nu) or np.ndim(nu) == 0:
        return eps.item()
    return eps


def eval_neat_derivative(model: LiquidModel, nu, h: float = DERIVATIVE_STEP):
    """Central-difference d(eps)/d(nu) in 1/THz at nu (THz)."""
    if h <= 0:
        raise DomainError(f"derivative step must be positive, got {h}")
    hi = eval_neat(model, np.asarray(nu, dtype=float) + h)
    lo = eval_neat(model, np.asarray(nu, dtype=float) - h)
    out = (np.asarray(hi) - np.asarray(lo)) / (2.0 * h)
    if np.isscalar(nu) or np.ndim(nu) == 0:
        return complex(out)
    return out


# --------------------------------------------------------------------------
# Liquid model files
#
# Line-oriented UTF-8 text, '#' starts a comment, keys are 'key = value':
#   name = <text>
#   type = debye | table
# debye:  eps_inf = <float> and zero or more 'term = <delta_eps>, <tau_ps>'
# table:  'columns = nu_THz, eps_real, eps_imag' followed by CSV data rows.
# Unknown keys are rejected.
# --------------------------------------------------------------------------

_TABLE_COLUMNS = ("nu_THz", "eps_real", "eps_imag")


def loads_liquid(text: str, source: str = "<string>") -> LiquidModel:
    """Parse a liquid model from file text. See module docs for the format."""
    name = None
    kind = None
    eps_inf = None
    terms: list[tuple[float, float]] = []
    columns_seen = False
    rows: list[tuple[float, float, float]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        def fail(msg):
            raise ParseError(f"{source}:{lineno}: {msg}")

        if "=" in line:
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "name":
                if not value:
                    fail("empty name")
                name = value
            elif key == "type":
                if value not in ("debye", "table"):
                    fail(f"unknown model type '{value}'")
                kind = value
            elif key == "eps_inf":
                try:
                    eps_inf = float(value)
                except ValueError:
                    fail(f"bad eps_inf value '{value}'")
            elif key == "term":
                parts = [p.strip() for p in value.split(",")]
                if len(parts) != 2:
                    fail("term needs exactly '<delta_eps>, <tau_ps>'")
                try:
                    terms.append((float(parts[0]), float(parts[1])))
                except ValueError:
                    fail(f"bad term values '{value}'")
            elif key == "columns":
                cols = tuple(p.strip() for p in value.split(","))
                if cols != _TABLE_COLUMNS:
                    fail(f"columns must be '{', '.join(_TABLE_COLUMNS)}'")
                columns_seen = True
            else:
                fail(f"unknown key '{key}'")
        else:
            # bare CSV row, only legal in a table section
            if not columns_seen:
                fail(f"unexpected data row '{line}' before a columns declaration")
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                fail(f"table row needs 3 values, got {len(parts)}")
            try:
                rows.append((float(parts[0]), float(parts[1]), float(parts[2])))
            except ValueError:
                fail(f"bad table row '{line}'")

    if name is None:
        raise ParseError(f"{source}: missing 'name' key")
    if kind is None:
        raise ParseError(f"{source}: missing 'type' key")

    try:
        if kind == "debye":
            if eps_inf is None:
                raise ParseError(f"{source}: debye model requires 'eps_inf'")
            if columns_seen or rows:
                raise ParseError(f"{source}: table data not allowed in a debye model")
            return DebyeModel(name=name, eps_inf=eps_inf, terms=tuple(terms))
        if eps_inf is not None or terms:
            raise ParseError(f"{source}: debye keys not allowed in a table model")
        if len(rows) < 2:
            raise ParseError(f"{source}: table model needs at least two data rows")
        data = np.asarray(rows, dtype=float)
        return TabulatedModel(
            name=name,
            frequencies=data[:, 0],
            values=data[:, 1] + 1j * data[:, 2],
        )
    except DomainError as exc:
        raise ParseError(f"{source}: {exc}") from exc


def load_liquid_file(path) -> LiquidModel:
    """Read and parse a liquid model file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except OSError as exc:
        raise DataFileError(f"cannot read liquid file '{path}': {exc.strerror}") from exc
    return loads_liquid(text, source=str(path))
