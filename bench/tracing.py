"""Span tracer that wraps the package's public functions at their module attributes.

``Tracer.install`` replaces every public function of the layer modules (and
every name imported into another module, such as ``harness.evaluate_many``
or ``methods.gamma_sf``) with a wrapper that records one span per call:
name, start, end, parent span and op id. Public methods of the classes the
modules define are wrapped the same way, and the survival function of every
fitted null returned by ``methods.fit_null``. ``uninstall`` restores the
originals, so untraced runs execute the unmodified program. Spans stay in
memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import types
from time import perf_counter

import numpy as np

LAYERS = ("statistic", "kernels", "dependence", "qform", "surrogates", "methods", "omnibus", "glm", "harness")


def _size(obj) -> int:
    return int(np.size(obj))


# counts recorded at call boundaries: span name -> f(args, result)
COUNTERS = {
    "statistic.transform": lambda args, out: _size(out),
    "kernels.gamma_sf": lambda args, out: _size(out),
    "harness.SimConfig.draw": lambda args, out: _size(out),
    "qform.build_m": lambda args, out: (int(out.repair_applied), int(out.clamp_count)),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1, op id)
        self.counts: dict[int, object] = {}  # span index -> COUNTERS value
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._wrappers: dict = {}

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        post = self._wrap_null if name == "methods.fit_null" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if counter is not None:
                counts[idx] = counter(args, out)
            return post(out) if post is not None else out

        return wrapper

    def _wrap_null(self, null):
        null.survival = self._wrap(null.survival, "methods.NullApprox.survival")
        return null

    def _wrapper_for(self, fn, name: str):
        if fn not in self._wrappers:
            self._wrappers[fn] = self._wrap(fn, name)
        return self._wrappers[fn]

    def _patch(self, owner, attr: str, fn, name: str) -> None:
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self._wrapper_for(fn, name))

    def install(self) -> None:
        prefix = self.package.__name__ + "."
        modules = [getattr(self.package, layer) for layer in LAYERS]
        for mod in modules + [self.package]:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__.startswith(prefix):
                    self._patch(mod, attr, obj, f"{obj.__module__.removeprefix(prefix)}.{obj.__qualname__}")
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for m_attr, m_obj in list(vars(obj).items()):
                        if not m_attr.startswith("_") and isinstance(m_obj, types.FunctionType):
                            name = f"{mod.__name__.removeprefix(prefix)}.{m_obj.__qualname__}"
                            self._patch(obj, m_attr, m_obj, name)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": t0 - base, "end": t1 - base, "parent": parent, "op": op}
                if i in self.counts:
                    rec["count"] = self.counts[i]
                fh.write(json.dumps(rec) + "\n")

    def summary(self) -> dict:
        """Self time, calls and counts per span name, plus root-span time and series builds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        root_s = 0.0
        for i, (name, t0, t1, parent, op) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                root_s += t1 - t0
        return {"self_s": self_s, "calls": calls, "root_s": root_s}

    def outermost_calls(self, names: set[str]) -> int:
        """Calls to ``names`` that are not nested inside another call to ``names``."""
        total = 0
        for name, t0, t1, parent, op in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            total += parent < 0
        return total

    def count_sum(self, name: str, index: int | None = None):
        total = 0
        for i, c in self.counts.items():
            if self.spans[i][0] == name:
                total += c if index is None else c[index]
        return total
