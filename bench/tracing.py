"""Spans recorded from outside the program.

The traced run replaces public functions with timing wrappers in the
module namespaces they are called through, so the program itself is
unchanged: ``check_machine`` reaches the checker steps through
``eb2jml.checker`` globals, and the relation builders reach
``enumerate_states`` through ``eb2jml.semantics`` globals.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import eb2jml.checker as checker
import eb2jml.semantics as semantics

# (module, attribute): the span is named "<module>.<attribute>".
TARGETS = (
    (checker, "check_init"),
    (checker, "check_event"),
    (checker, "jml_method_rel"),
    (checker, "jml_initially_states"),
    (checker, "eb_event_rel_variants"),
    (checker, "eb_init_states"),
    (checker, "guard_holds"),
    (semantics, "enumerate_states"),
)

# Per-layer self time: which spans make up each layer.
LAYERS = {
    "checker.self_s": ("checker.check_init", "checker.check_event"),
    "checker.explain_s": ("checker.guard_holds",),
    "semantics.enumerate_s": ("semantics.enumerate_states",),
    "semantics.eb_rel_s": ("checker.eb_event_rel_variants",
                           "checker.eb_init_states"),
    "semantics.jml_rel_s": ("checker.jml_method_rel",
                            "checker.jml_initially_states"),
}

NAME, START, END, PARENT, CHECK = range(5)


class Tracer:
    """In-memory spans: [name, start, end, parent index, check id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.check_id = None
        self.enumerated: list[tuple] = []   # (check id, states returned)
        self.budgets: list[tuple] = []      # (check id, Budget)
        self.missing: list[str] = []        # targets the program lacks
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.check_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """A span timed by the caller (the benchmark's own front-end calls)."""
        self.spans.append([name, start, end, parent, self.check_id])
        return len(self.spans) - 1

    def _wrap(self, name, fn):
        count = fn is semantics.enumerate_states

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count:
                self.enumerated.append((self.check_id, len(out)))
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target the program still has; restore on exit."""
        for module, attr in TARGETS:
            name = f"{module.__name__.split('.')[-1]}.{attr}"
            if not hasattr(module, attr):
                self.missing.append(name)
                continue
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self._wrap(name, getattr(module, attr)))
        if hasattr(checker, "Budget"):
            self._saved.append((checker, "Budget", checker.Budget))
            checker.Budget = self._counting_budget(checker.Budget)
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._saved):
                setattr(module, attr, original)
            self._saved.clear()

    def _counting_budget(self, base):
        tracer = self

        class CountingBudget(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.budgets.append((tracer.check_id, self))

        return CountingBudget


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out
