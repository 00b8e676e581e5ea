"""Measurement arithmetic for the benchmark: percentiles, spans, memory.

Nothing here imports the library under test.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Iterator, Optional

# A tail percentile is only reported where at least this many samples
# lie beyond it, so one slow sample cannot move it on its own.
TAIL_BEYOND = 10


def tail_index(n: int) -> int:
    """Index in an ascending sample of n of the highest percentile that
    still has TAIL_BEYOND samples above it.

    With n <= TAIL_BEYOND no such percentile exists and the maximum is
    used; callers report the sample count with it.
    """
    if n < 1:
        raise ValueError("empty sample")
    return n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1


def tail_value(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[tail_index(len(ordered))]


def tail_percent(n: int) -> float:
    """The percentile that tail_index(n) selects, for reporting."""
    return 100.0 * (tail_index(n) + 1) / n


def item_latencies(passes: list[dict[str, float]]) -> tuple[float, float, int]:
    """(p50, tail, number of items) of per-item latency.

    Each pass maps item id to latency.  An item's latency is its median
    over the passes; the median and the tail are then taken over items.
    """
    times: dict[str, list[float]] = {}
    for items in passes:
        for item, t in items.items():
            times.setdefault(item, []).append(t)
    values = [statistics.median(ts) for ts in times.values()]
    return statistics.median(values), tail_value(values), len(values)


def failed_fraction(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no items attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: Optional[str]


@dataclass
class Tracer:
    """Spans kept in memory; each span names the span that opened it."""

    enabled = True
    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, item: Optional[str] = None) -> Iterator[None]:
        """Record one span around the with-block; the item id is inherited
        from the enclosing span unless given."""
        parent = self._open[-1] if self._open else None
        if item is None and parent is not None:
            item = self.spans[parent].item
        sid = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, item))
        self._open.append(sid)
        try:
            yield
        finally:
            self.spans[sid].end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name.

        A span's self time is its duration minus the part of it that its
        child spans cover.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append((sp.start, sp.end))
        out: dict[str, float] = {}
        for sid, sp in enumerate(self.spans):
            own = (sp.end - sp.start) - covered_length(children.get(sid, []), sp.start, sp.end)
            out[sp.name] = out.get(sp.name, 0.0) + own
        return out

    def records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "item": s.item}
            for s in self.spans
        ]


class NoTracer:
    """Stand-in for Tracer when tracing is off: records nothing."""

    enabled = False

    def span(self, name: str, item: Optional[str] = None) -> nullcontext:
        return _NULL


_NULL = nullcontext()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_probe_ms(repeats: int = 7) -> float:
    """Median time of a fixed pure-Python loop: a host-speed diagnostic.

    It is printed with every run so drift between runs can be told apart
    from a change in the program; no metric is normalised by it.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)
