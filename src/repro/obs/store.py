"""Bounded in-memory retention of finished traces.

Keeping every trace of a high-traffic service would be an unbounded
memory leak, but keeping none makes "why was that request slow" forever
unanswerable.  :class:`TraceStore` splits the difference the way
production tracing back-ends do:

* a **slow-trace exemplar heap** — the N slowest full traces ever seen
  (min-heap keyed by root duration, so a new trace only displaces the
  least-slow exemplar);
* a **recent-trace ring** — the last M traces regardless of speed, which
  is what gives percentile-ish visibility into the ordinary case.

Both sides hold complete traces (every span, every attribute), so a
retained trace can always be rendered as a full tree by ``repro-trace``.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracing import Span


@dataclass(slots=True)
class Trace:
    """One request: the root span plus every descendant that ended before it."""

    trace_id: str
    root: "Span"
    spans: list["Span"] = field(default_factory=list)
    closed: bool = False

    @property
    def duration_seconds(self) -> float:
        return self.root.duration_seconds

    @property
    def name(self) -> str:
        return self.root.name

    def __len__(self) -> int:
        return len(self.spans)

    def span_names(self) -> list[str]:
        return [span.name for span in self.spans]

    def find(self, name: str) -> list["Span"]:
        """Every span in the trace with the given name."""
        return [span for span in self.spans if span.name == name]

    def children_of(self, span_id: str | None) -> list["Span"]:
        """Direct children of ``span_id`` ordered by start time."""
        children = [span for span in self.spans if span.parent_id == span_id]
        children.sort(key=lambda span: span.start_seconds)
        return children

    def to_dict(self) -> dict[str, Any]:
        """The JSON-lines export shape (one object per trace)."""
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "duration_seconds": self.duration_seconds,
            "span_count": len(self.spans),
            "spans": [span.to_dict() for span in self.spans],
        }


class TraceStore:
    """Thread-safe bounded trace retention (slow exemplars + recent ring)."""

    def __init__(self, *, max_slow: int = 16, max_recent: int = 128):
        if max_slow < 0:
            raise ValueError("max_slow must be non-negative")
        if max_recent < 1:
            raise ValueError("max_recent must be at least 1")
        self.max_slow = max_slow
        self.max_recent = max_recent
        self._lock = threading.Lock()
        # Min-heap of (duration, tiebreak, trace); the top is the least-slow
        # exemplar and is displaced first.
        self._slow: list[tuple[float, int, Trace]] = []
        self._recent: "deque[Trace]" = deque(maxlen=max_recent)
        self._tiebreak = itertools.count()
        self._added = 0

    # ------------------------------------------------------------------ write
    def add(self, trace: Trace) -> None:
        duration = trace.duration_seconds
        with self._lock:
            self._added += 1
            self._recent.append(trace)
            if len(self._slow) < self.max_slow:
                heapq.heappush(self._slow, (duration, next(self._tiebreak), trace))
            elif self.max_slow and duration > self._slow[0][0]:
                heapq.heapreplace(self._slow, (duration, next(self._tiebreak), trace))

    def clear(self) -> None:
        with self._lock:
            self._slow.clear()
            self._recent.clear()

    # ------------------------------------------------------------------- read
    def slowest(self, n: int | None = None) -> list[Trace]:
        """The retained slow-trace exemplars, slowest first."""
        with self._lock:
            ordered = sorted(self._slow, key=lambda item: item[0], reverse=True)
        traces = [trace for _duration, _tiebreak, trace in ordered]
        return traces if n is None else traces[:n]

    def recent(self, n: int | None = None) -> list[Trace]:
        """The most recent traces, newest first."""
        with self._lock:
            traces = list(self._recent)
        traces.reverse()
        return traces if n is None else traces[:n]

    def get(self, trace_id: str) -> Trace | None:
        """A retained trace by id, or ``None`` if it aged out."""
        with self._lock:
            for trace in self._recent:
                if trace.trace_id == trace_id:
                    return trace
            for _duration, _tiebreak, trace in self._slow:
                if trace.trace_id == trace_id:
                    return trace
        return None

    def traces(self) -> list[Trace]:
        """Every distinct retained trace (recent ∪ slow), newest first."""
        seen: set[str] = set()
        combined: list[Trace] = []
        for trace in itertools.chain(self.recent(), self.slowest()):
            if trace.trace_id not in seen:
                seen.add(trace.trace_id)
                combined.append(trace)
        return combined

    def __len__(self) -> int:
        return len(self.traces())

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict[str, int]:
        """Retention accounting: traces seen, retained, and both capacities.

        ``retained`` counts *distinct* traces (a slow exemplar usually also
        sits in the recent ring until it ages out).  This dict is what the
        admin server's ``/traces`` view and the tracer's Prometheus
        exposition surface, so a scraper can watch churn (``added``) and
        saturation (sizes vs. capacities) without pulling trace bodies.
        """
        with self._lock:
            distinct = {trace.trace_id for trace in self._recent}
            distinct.update(trace.trace_id for _d, _t, trace in self._slow)
            return {
                "added": self._added,
                "retained": len(distinct),
                "slow_retained": len(self._slow),
                "recent_retained": len(self._recent),
                "max_slow": self.max_slow,
                "max_recent": self.max_recent,
            }
