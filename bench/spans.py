"""Spans around the program's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
``dunkl_dihedral`` module that holds it, so a name imported into several
modules (``em_sequence`` in ``cli`` and ``kernel``) is traced wherever it is
called.  Each call appends one span (name, start, end, parent span) to
in-memory arrays; self time is a span's duration minus the time its child
spans cover.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

PACKAGE = "dunkl_dihedral"

TRACED = {
    "cli": ("main",),
    "sampling": ("draw_instance",),
    "dihedral": ("orbit_pairings",),
    "polyalg": ("oracle_em", "pochhammer_table"),
    "recurrence": ("y_step", "em_sequence"),
    "series": ("a_coeffs", "em_genseries", "em_closed_sigma"),
    "kernel": ("delta_effective", "certified_terms", "ek_series", "series_for_radius", "ek_integral"),
}

# Work counted per call, read from the result: metric suffix and extractor.
WORK = {
    "series.a_coeffs": ("order_sum", lambda res: res.order),
    "kernel.ek_series": ("terms_sum", lambda res: res.terms_used or 0),
    "kernel.ek_integral": ("nodes_sum", lambda res: res.nodes_used or 0),
}

class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
        self._originals = {}
        self._patches = []  # (module, attribute, original)
        self._stack = []
        self.clear()

    def clear(self) -> None:
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.work = dict.fromkeys(WORK, 0)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for name_id, name in enumerate(self.names):
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            self._originals[name] = original
            wrapper = self._wrap(name_id, name, original)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)
                    self._patches.append((module, fn_name, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def cache_misses(self, name: str) -> int:
        return self._originals[name].cache_info().misses

    def _wrap(self, name_id, name, fn):
        work = WORK.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0)
            self.end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if work is not None:
                self.work[name] += work[1](result)
            return result

        return wrapper

    def calls(self) -> np.ndarray:
        return np.bincount(np.array(self.span_name, dtype=np.int32), minlength=len(self.names))

    def self_ns(self) -> np.ndarray:
        names = np.array(self.span_name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        covered = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return np.bincount(names, weights=dur - covered, minlength=len(self.names))

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
        )
