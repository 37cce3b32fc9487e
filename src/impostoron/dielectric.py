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

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFileError, DomainError, ParseError, RangeError

def _readonly(obj, name: str, dtype=float) -> np.ndarray:
    """Set field name of the frozen dataclass obj to a read-only array of dtype.

    The field is copied unless it is already a plain read-only ndarray of dtype
    that owns its data: no one else can write such an array, so it is kept as
    is. Writing to it after setflags(write=True), or through a writeable view
    taken before it was made read-only, is the caller's act.
    """
    arr = getattr(obj, name)
    if not (
        type(arr) is np.ndarray
        and arr.dtype == dtype
        and not arr.flags.writeable
        and arr.flags.owndata
    ):
        arr = np.array(arr, dtype=dtype)
        arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


def _check_axis(grid: np.ndarray, label: str, min_size: int) -> float:
    """The span of a sampled axis: 1-D, min_size samples or more, finite, strictly increasing."""
    if grid.ndim != 1 or grid.size < min_size:
        raise DomainError(f"{label} needs at least {min_size} samples")
    # NaN fails every comparison, and between finite ends an increasing grid
    # is finite. As Python floats, an overflowing span becomes inf without a warning.
    lo, hi = float(grid[0]), float(grid[-1])
    if not (np.all(grid[1:] > grid[:-1]) and -math.inf < lo and hi < math.inf):
        raise DomainError(f"{label} must be finite and strictly increasing")
    if hi - lo == math.inf:
        raise DomainError(f"{label} span exceeds the float range")
    return hi - lo


def _finite_field(obj, name: str, shape: tuple, label: str, dtype=float) -> np.ndarray:
    """_readonly, for a field that must have the given shape and finite values."""
    arr = _readonly(obj, name, dtype)
    if arr.shape != shape:
        raise DomainError(f"{label} and grid must have equal length: shape {arr.shape}, need {shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{label} must be finite")
    return arr


@dataclass(frozen=True)
class DebyeModel:
    """Multi-term Debye relaxation: eps_inf plus a sum of (delta_eps, tau_ps) terms."""

    name: str
    eps_inf: float
    terms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if not math.isfinite(self.eps_inf) or self.eps_inf < 1.0:
            raise DomainError(f"eps_inf must be finite and >= 1, got {self.eps_inf}")
        terms = tuple((float(d), float(t)) for d, t in self.terms)
        object.__setattr__(self, "terms", terms)
        total = self.eps_inf  # summed in eval_neat's order, which bounds eps' there
        for delta, tau in terms:
            if not (math.isfinite(delta) and delta > 0):
                raise DomainError(f"Debye term strength must be positive, got {delta}")
            if not (math.isfinite(tau) and tau > 0):
                raise DomainError(f"Debye relaxation time must be positive, got {tau} ps")
            total += delta
        if total == math.inf:
            raise DomainError("eps_inf + sum(delta_eps) is not finite")


@dataclass(frozen=True)
class TabulatedModel:
    """Measured complex permittivity on a positive frequency grid (THz), checked by _check_axis."""

    name: str
    frequencies: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        freqs = _readonly(self, "frequencies")
        _check_axis(freqs, "tabulated frequency grid", 2)
        if freqs[0] <= 0:
            raise DomainError("tabulated frequencies must be positive")
        vals = _finite_field(self, "values", freqs.shape, "tabulated permittivities", complex)
        if np.any(vals.imag < 0):
            raise DomainError("tabulated loss eps'' must be >= 0 (passive medium)")


LiquidModel = DebyeModel | TabulatedModel


def validity_range(model: LiquidModel) -> tuple[float, float]:
    """Frequency interval (THz) on which the model may be evaluated."""
    if isinstance(model, TabulatedModel):
        return float(model.frequencies[0]), float(model.frequencies[-1])
    return 0.0, math.inf


def _check_nu(nu):
    """nu as a float array of at least one dimension, and its largest value."""
    arr = np.atleast_1d(np.asarray(nu, dtype=float))
    if arr.size == 0:
        raise DomainError("empty frequency input")
    hi = float(arr.max())  # NaN if any is NaN
    if not (float(arr.min()) > 0.0 and hi < math.inf):
        raise DomainError("frequency must be finite and > 0 THz")
    return arr, hi


def _neat(model: LiquidModel, arr: np.ndarray) -> np.ndarray:
    """Complex permittivity of the neat liquid at each frequency of a float array.

    The formula alone: eval_neat checks arr first. A root search calls it
    directly on nodes inside a bracket whose ends eval_neat has accepted,
    since eval_neat's checks hold at every frequency between two that pass.
    """
    if isinstance(model, DebyeModel):
        eps = np.full(arr.shape, complex(model.eps_inf), dtype=complex)
        for delta, tau in model.terms:
            x = 2.0 * math.pi * arr * tau
            eps += delta * (1.0 + 1j * x) / (1.0 + x * x)
        return eps
    re = np.interp(arr, model.frequencies, model.values.real)
    im = np.interp(arr, model.frequencies, model.values.imag)
    return re + 1j * im


def eval_neat(model: LiquidModel, nu):
    """Complex permittivity of the neat liquid at nu (THz, scalar or array)."""
    # a scalar is evaluated as a one-element array, so it rounds exactly as
    # the same frequency inside an array does
    arr, nu_hi = _check_nu(nu)
    if isinstance(model, DebyeModel):
        for delta, tau in model.terms:
            x_hi = 2.0 * math.pi * nu_hi * tau  # the largest x, rounded as in _neat
            if x_hi * x_hi == math.inf or delta * x_hi == math.inf:
                raise DomainError(f"frequency {nu_hi:g} THz overflows '{model.name}'")
    else:
        lo, hi = model.frequencies[0], model.frequencies[-1]
        if np.any(arr < lo) or np.any(arr > hi):
            raise RangeError(
                f"frequency outside tabulated range [{lo:g}, {hi:g}] THz for '{model.name}'"
            )
    eps = _neat(model, arr)
    return eps.item() if np.ndim(nu) == 0 else eps


def _neat_slope(model: LiquidModel, nu: np.ndarray) -> np.ndarray:
    """d(eps_neat)/d(nu) (1/THz) at each frequency of an array eval_neat accepts.

    Debye: delta*2*pi*i*tau/(1 - i*x)**2 per term, as delta*2*pi*i*tau*w*w
    with w = 1/(1 - i*x), |w| <= 1. Where 2*pi*tau*delta alone leaves the
    float range (the slope itself may not), the term is formed as
    2*pi*i*tau*w*(delta*w) instead. Table: the interpolating segment's slope;
    at an interior knot the segment above, at the top knot the last.
    """
    if isinstance(model, DebyeModel):
        slope = np.zeros(nu.shape, dtype=complex)
        for delta, tau in model.terms:
            w = 1.0 / (1.0 - 2j * math.pi * tau * nu)
            c = 2j * math.pi * tau * delta
            slope += c * w * w if math.isfinite(c.imag) else 2j * math.pi * tau * w * (delta * w)
        return slope
    f, v = model.frequencies, model.values
    k = np.clip(np.searchsorted(f, nu, side="right") - 1, 0, f.size - 2)
    return (v[k + 1] - v[k]) / (f[k + 1] - f[k])


# --------------------------------------------------------------------------
# Liquid model files
#
# Line-oriented UTF-8 text, '#' starts a comment, keys are 'key = value':
#   name = <text>
#   type = debye | table
# debye:  eps_inf = <float> and zero or more 'term = <delta_eps>, <tau_ps>'
# table:  'columns = nu_THz, eps_real, eps_imag' followed by CSV data rows.
# Unknown keys are rejected, and so is a second line of any key but 'term'.
# --------------------------------------------------------------------------

_TABLE_COLUMNS = ("nu_THz", "eps_real", "eps_imag")


def loads_liquid(text: str, source: str = "<string>") -> LiquidModel:
    """Parse a liquid model from file text. See module docs for the format."""
    name = None
    kind = None
    eps_inf = None
    terms: list[tuple[float, float]] = []
    rows: list[tuple[float, float, float]] = []
    keys: set[str] = set()  # each key but 'term' appears at most once

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
            if key in keys:
                fail(f"duplicate key '{key}'")
            if key != "term":
                keys.add(key)
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
            else:
                fail(f"unknown key '{key}'")
        else:
            # bare CSV row, only legal in a table section
            if "columns" not in keys:
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
            if "columns" in keys or rows:
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


def _read_text(path, kind: str) -> tuple[str, str]:
    """The text of a data file and the SHA-256 (hex) of its bytes, read once.

    The bytes decode as UTF-8 with CRLF and lone CR read as LF, as in text mode. Raises
    ParseError for other bytes, DataFileError naming the kind of file for an unreadable path.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except OSError as exc:
        raise DataFileError(f"cannot read {kind} file '{path}': {exc.strerror}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n"), hashlib.sha256(data).hexdigest()


def _write_table(fh, meta, header: str, rows) -> None:
    """Each meta line as a '# ' comment, the header, then the rows of a 2D float array or a list.

    Floats are written with str (repr for a Python float), so they parse back bit-exactly.
    """
    for line in meta or ():
        fh.write(f"# {line}\n")
    fh.write(header + "\n")
    for row in map(np.ndarray.tolist, rows) if isinstance(rows, np.ndarray) else rows:
        fh.write(",".join(map(str, row)) + "\n")


def load_liquid_file(path) -> LiquidModel:
    """Read and parse a liquid model file."""
    return loads_liquid(_read_text(path, "liquid")[0], source=str(path))
