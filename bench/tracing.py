"""In-memory spans around flowcert's public functions, installed from outside.

While `Tracer.installed` is active, every public function of the listed
flowcert modules is replaced by a wrapper that records a span (name, start,
end, parent) and, for a few functions, a count taken from the return value.
The wrapper is put in every flowcert module that holds the function, so
calls through ``from .x import f`` bindings are seen too.  Nothing in
flowcert changes; leaving the block puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("network", "admittance", "sparse_lu", "zero_load", "pipeline",
          "certificate", "fixed_point", "continuation", "report", "cli", "newton")

# Counts read at the boundary from what the call returned.
COUNTERS = {
    "sparse_lu.factorize": lambda r: r.fill_in_count,
    "fixed_point.solve_fixed_point": lambda r: r.iterations,
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    count: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, sid: int) -> None:
        self.spans[sid].end = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    self.spans[sid].count = counter(result)
                return result
            finally:
                self._close(sid)

        return traced

    @contextmanager
    def installed(self):
        """Spans around flowcert's public functions for the duration of the block."""
        holders = [m for key, m in sys.modules.items()
                   if key == "flowcert" or key.startswith("flowcert.")]
        patches = []
        try:
            for layer in LAYERS:
                module = sys.modules[f"flowcert.{layer}"]
                for attr, fn in list(vars(module).items()):
                    if attr.startswith("_") or not inspect.isfunction(fn) \
                            or fn.__module__ != module.__name__:
                        continue
                    wrapped = self._wrap(f"{layer}.{attr}", fn)
                    for holder in holders:
                        for key, value in list(vars(holder).items()):
                            if value is fn:
                                setattr(holder, key, wrapped)
                                patches.append((holder, key, fn))
            yield self
        finally:
            for holder, key, fn in reversed(patches):
                setattr(holder, key, fn)

    # --- derived figures ----------------------------------------------------

    def named(self, name: str, within: str | None = None) -> list[Span]:
        """Spans called ``name``, optionally only those below a ``within`` span."""
        spans = [s for s in self.spans if s.name == name]
        if within is None:
            return spans
        return [s for s in spans if self._has_ancestor(s, within)]

    def _has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def median_ms(self, name: str, within: str | None = None) -> float:
        return 1e3 * statistics.median(s.duration for s in self.named(name, within))

    def mean_us(self, name: str, within: str | None = None) -> float:
        return 1e6 * statistics.fmean(s.duration for s in self.named(name, within))

    def self_time(self, name: str) -> float:
        """Total duration of ``name`` spans minus that of their direct children."""
        ids = {i for i, s in enumerate(self.spans) if s.name == name}
        total = sum(self.spans[i].duration for i in ids)
        children = sum(s.duration for s in self.spans if s.parent in ids)
        return total - children

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "count": s.count} for s in self.spans]
