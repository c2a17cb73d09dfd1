"""Outside-in tracing for the benchmark's traced run.

The tracer rebinds module attributes (``lp.linprog``, ``regions.qm_compliant``,
``Scalar.__init__`` ...) with wrappers that record a span -- name, start,
end, parent, query id -- or bump a count, and restores them on exit.  Nothing
under ``src/`` changes.  Spans and counts stay in memory until ``dump``.

A span's self time is its duration minus the part of its interval covered
by its child spans.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter_ns


@dataclass
class Span:
    id: int
    parent: int | None
    query: int
    name: str
    start: int = 0
    end: int = 0
    note: str | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._query: int | None = None
        self._counting = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installing wrappers ------------------------------------------------

    def _install(self, owner, attr: str, make) -> None:
        raw = vars(owner)[attr]
        wrapper = make(getattr(owner, attr))
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = staticmethod(wrapper)  # wraps the already-bound method
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, note=None) -> None:
        """Record a span around every call of ``owner.attr`` made while a
        query runs.  ``note(result)`` may label the span."""

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                if self._query is None:
                    return original(*args, **kwargs)
                return self._record(name, note, original, args, kwargs)

            return traced

        self._install(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` made inside a query's root span."""

        def make(original):
            counts = self.counts

            @functools.wraps(original)
            def counted(*args, **kwargs):
                if self._counting:
                    counts[name] += 1
                return original(*args, **kwargs)

            return counted

        self._install(owner, attr, make)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- recording ------------------------------------------------------------

    def _record(self, name, note, fn, args, kwargs):
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    self._query, name)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter_ns()
            self._stack.pop()
        if note is not None:
            span.note = note(result)
        return result

    def query(self, qid: int, fn):
        """Answer one query inside a root span named ``query``; counts are
        taken only here."""
        self._query, self._counting = qid, True
        try:
            return self._record("query", None, fn, (), {})
        finally:
            self._query, self._counting = None, False

    def probe(self, qid: int, fn):
        """Run ``fn`` for query ``qid`` outside its root span: its spans have
        no parent, count nothing and are not part of the query's latency."""
        self._query = qid
        try:
            return fn()
        finally:
            self._query = None

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                {
                    "spans": [vars(s) for s in self.spans],
                    "counts": dict(self.counts),
                },
                out,
            )


# -- analysis -------------------------------------------------------------------


def _covered(intervals: list[tuple[int, int]]) -> int:
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the time its children cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id]) for s in spans}


def partition_holds(spans: list[Span]) -> bool:
    """Children lie inside their parent and do not overlap, so a parent's
    duration is exactly its self time plus its children's durations."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    for pid, kids in children.items():
        parent = by_id[pid]
        if any(k.start < parent.start or k.end > parent.end for k in kids):
            return False
        intervals = [(k.start, k.end) for k in kids]
        if _covered(intervals) != sum(e - s for s, e in intervals):
            return False
    return True
