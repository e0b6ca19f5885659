"""Spans around calls into the package, recorded from the benchmark's side.

The tracer replaces a function where its caller looks it up (a module
attribute such as ``starcurl.operators.kernel_N``, or a method on a class)
with a wrapper that records one span per call: name, parent span, start,
end, and an optional work count.  Spans stay in memory; ``summary`` and the
helpers below reduce them when the run ends.

Self time of a span is its duration minus the part of its interval that
its child spans cover.  The traced run is single-threaded, so the span
stack is a plain list.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int          # index into Tracer.spans, -1 for a root span
    start: float
    end: float = 0.0
    count: int = 0       # work done in this call (points, pairs, evals, ...)
    useful: int = 0      # useful part of count, where the layer can waste work


class Tracer:
    """Collects the spans of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None, useful=None):
        """Return fn wrapped in a span.  ``count(args, result)`` and
        ``useful(args, result)`` give the span's work counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sp = Span(name, stack[-1] if stack else -1, clock())
            spans.append(sp)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                sp.end = clock()
                stack.pop()
            if count is not None:
                sp.count = int(count(args, out))
            if useful is not None:
                sp.useful = int(useful(args, out))
            return out

        return wrapper

    @contextmanager
    def patched(self, targets):
        """Install span wrappers for ``targets`` = [(owner, attr, name, fn,
        count, useful)]: ``owner.attr`` becomes ``fn`` wrapped in a span
        called ``name``.  The original attributes come back on exit."""
        saved = []
        try:
            for owner, attr, name, fn, count, useful in targets:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self.wrap(name, fn, count, useful))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, sp.start), min(b, sp.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((sp.end - sp.start) - covered)
    return out


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: int = 0
    useful: int = 0
    durations: list = field(default_factory=list)

    @property
    def p50_s(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0


def summary(spans) -> dict[str, NameStats]:
    """Per span name: calls, total and self time, work counts, durations."""
    out: dict[str, NameStats] = {}
    for sp, st in zip(spans, self_times(spans)):
        s = out.setdefault(sp.name, NameStats())
        s.calls += 1
        s.total_s += sp.end - sp.start
        s.self_s += st
        s.count += sp.count
        s.useful += sp.useful
        s.durations.append(sp.end - sp.start)
    return out


def descendant_totals(spans, ancestor_names, child_name, field="calls"):
    """For each name in ``ancestor_names``: how many ``child_name`` spans
    (field="calls") or how much of their work count (field="count") lie
    anywhere below a span of that name."""
    totals = dict.fromkeys(ancestor_names, 0)
    for sp in spans:
        if sp.name != child_name:
            continue
        seen = set()
        p = sp.parent
        while p >= 0:
            name = spans[p].name
            if name in totals and name not in seen:
                totals[name] += 1 if field == "calls" else sp.count
                seen.add(name)
            p = spans[p].parent
    return totals


def layer_self_times(spans) -> dict[str, float]:
    """Self time summed per layer, the layer being the span name's first
    dotted component."""
    out: dict[str, float] = {}
    for sp, st in zip(spans, self_times(spans)):
        layer = sp.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + st
    return out
