"""Spans around the public functions of the impostoron modules.

The tracer wraps functions from the benchmark's side: the library itself is
unchanged. A wrapped function is rebound in every `impostoron.*` namespace
that binds it (`eps_doped` also lives in `matching`, `lineshape` in `signal`,
`find_nu0` in `cli`), so nested calls that go through a module global are
recorded too.

A span is (name, start, end, parent, op, ok). Spans stay in memory, one
structured array per op, and are written out once at the end. Self time is
derived from them: a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import inspect
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: The modules whose public functions are traced, in layer order.
MODULES = ("dielectric", "mixing", "polaron", "matching", "signal", "cli")

SPAN_DTYPE = np.dtype(
    [("name", "i4"), ("start", "f8"), ("end", "f8"), ("parent", "i8"), ("op", "i4"), ("ok", "?")]
)


class Tracer:
    """Records spans while active; wrappers call straight through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.active = False
        self.op = -1
        self._rows: list[tuple] = []
        self._stack: list[int] = []
        self._chunks: list[np.ndarray] = []
        self._offset = 0
        self.extras: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, extra=None, name_of=None):
        """Wrapper recording one span per call of fn.

        extra(args, kwargs, result) returns {key: amount} counts to add;
        name_of(args) names the span from the call's arguments.
        """
        fixed = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            nid = self.name_id(name_of(args)) if name_of else fixed
            rows = self._rows
            stack = self._stack
            idx = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                rows[idx] = (nid, start, end, parent, self.op, ok)
                if ok and extra is not None:
                    for key, amount in extra(args, kwargs, result).items():
                        self.extras[key] = self.extras.get(key, 0.0) + amount

        return traced

    def install(self, package, extras=None, names=None) -> None:
        """Wrap every public function of MODULES in every namespace binding it."""
        extras = extras or {}
        names = names or {}
        namespaces = [package] + [getattr(package, m) for m in MODULES]
        for mod_name in MODULES:
            module = getattr(package, mod_name)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                label = f"{mod_name}.{attr}"
                wrapped = self.wrap(label, fn, extras.get(label), names.get(label))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, key, fn))
                            setattr(ns, key, wrapped)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()

    @contextmanager
    def recording(self, op: int):
        """Record the spans of one op; they are packed when it ends."""
        self.op = op
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self._pack()

    def _pack(self) -> None:
        if not self._rows:
            return
        arr = np.array(self._rows, dtype=SPAN_DTYPE)
        local = arr["parent"] >= 0
        arr["parent"][local] += self._offset
        self._offset += arr.size
        self._chunks.append(arr)
        self._rows = []
        self._stack = []

    def spans(self) -> np.ndarray:
        if not self._chunks:
            return np.zeros(0, dtype=SPAN_DTYPE)
        return np.concatenate(self._chunks)

    def save(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, spans=self.spans(), names=np.array(self.names))


def self_times(spans: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children (s)."""
    dur = spans["end"] - spans["start"]
    child = spans["parent"] >= 0
    covered = np.bincount(spans["parent"][child], weights=dur[child], minlength=spans.size)
    return dur - covered


def per_function(spans: np.ndarray, names: list[str], op_rounds: np.ndarray, n_rounds: int) -> dict:
    """calls, failed, self_ms and p50_ms per span name.

    op_rounds[op] is the round of op id `op`. calls and failed are per round
    (every round replays the same ops, so they are whole numbers); self_ms is
    the median over rounds of the round's total self time; p50_ms is the
    median inclusive duration of one call.
    """
    selfs = self_times(spans)
    dur = spans["end"] - spans["start"]
    span_round = op_rounds[spans["op"]]
    out = {}
    for nid, name in enumerate(names):
        sel = spans["name"] == nid
        if not sel.any():
            continue
        per_round = np.bincount(span_round[sel], weights=selfs[sel], minlength=n_rounds)
        out[name] = {
            "calls": int(sel.sum()) / n_rounds,
            "failed": int((~spans["ok"][sel]).sum()) / n_rounds,
            "self_ms": float(np.median(per_round)) * 1e3,
            "p50_ms": float(np.median(dur[sel])) * 1e3,
        }
    return out
