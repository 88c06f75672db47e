"""Counters and latency histograms for the serving layer and the tracer.

Deliberately lightweight: a :class:`MetricsRegistry` is a named bag of
:class:`Counter` and :class:`LatencyHistogram` objects whose
:meth:`~MetricsRegistry.snapshot` exports one plain dict — the contract the
served-path benchmark (``perfbench``), the admin plane's ``/metrics``
exposition and any external scraper consume.

Writes take no lock: each metric keeps one cell per writing thread,
reached through a :class:`threading.local`, registered under the metric's
lock on that thread's first write and written only by that thread.  A read
sums the cells, which outlive their threads, so totals never go back.
Histograms count into the fixed :data:`BUCKET_BOUNDS`, so their quantiles
are all-time, add up across threads, time windows and processes, and are
exact to one bucket (about 19 %): the upper bound of the bucket holding the
nearest-rank sample (the :mod:`repro.obs.stats` convention), clamped to the
exact ``[min, max]``.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Any, Callable, Sequence

from repro.obs.stats import SUMMARY_QUANTILES, percentile_index, summarize

#: Histogram bucket upper bounds in seconds, "le" semantics: ``2 ** (k / 4)``,
#: four per octave, from 2**-20 s (about 1 µs) to 2**8 s (256 s).  Powers of
#: two are exact bounds, so small integer samples sit on bucket edges.  One
#: overflow bucket follows the last bound.
BUCKET_BOUNDS: tuple[float, ...] = tuple(2.0 ** (k / 4) for k in range(-80, 33))
_NO_COUNTS = (0,) * (len(BUCKET_BOUNDS) + 1)


def bucket_upper_bound(cumulative: Sequence[int], fraction: float) -> float:
    """Upper bound of the bucket holding the nearest-rank ``fraction``
    quantile of non-empty cumulative bucket counts (``inf`` for overflow)."""
    index = bisect_right(cumulative, percentile_index(cumulative[-1], fraction))
    return BUCKET_BOUNDS[index] if index < len(BUCKET_BOUNDS) else math.inf


class _Sharded:
    """One cell per writing thread; subclasses say what a cell is."""

    __slots__ = ("_lock", "_local", "_cells")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._cells: list[Any] = []

    def _register(self) -> Any:
        cell = self._local.cell = self._new_cell()
        with self._lock:
            self._cells.append(cell)
        return cell


class Counter(_Sharded):
    """A monotonically increasing counter; :meth:`increment` takes no lock."""

    __slots__ = ()

    @staticmethod
    def _new_cell() -> list[int]:
        return [0]

    def increment(self, amount: int = 1) -> None:
        try:
            cell = self._local.cell
        except AttributeError:
            cell = self._register()
        cell[0] += amount

    @property
    def value(self) -> int:
        return sum(cell[0] for cell in self._cells)


class _HistogramCell:
    __slots__ = ("counts", "sum", "min", "max")

    def __init__(self) -> None:
        self.counts = list(_NO_COUNTS)
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf


class LatencyHistogram(_Sharded):
    """Bucketed latency samples with exact count, sum, min and max: one
    fixed bucket array per writing thread, whatever the traffic."""

    __slots__ = ()

    _new_cell = _HistogramCell

    def record(self, seconds: float) -> None:
        try:
            cell = self._local.cell
        except AttributeError:
            cell = self._register()
        # The bucket count is written last and read first, so a reader that
        # counts a sample also sees it in min, max and sum.
        if seconds < cell.min:
            cell.min = seconds
        if seconds > cell.max:
            cell.max = seconds
        cell.sum += seconds
        cell.counts[bisect_left(BUCKET_BOUNDS, seconds)] += 1

    def summary(self) -> dict[str, Any]:
        """All-time count, sum, mean, min, bucket quantiles, max, and
        ``buckets``: the cumulative count per :data:`BUCKET_BOUNDS` entry and
        overflow, so two summaries' difference histograms what came between."""
        cells = list(self._cells)
        cumulative = tuple(accumulate(map(sum, zip(_NO_COUNTS, *(cell.counts for cell in cells)))))
        count = cumulative[-1]
        if not count:
            return {**summarize(()), "buckets": cumulative}
        total = sum(cell.sum for cell in cells)
        low = min(cell.min for cell in cells)
        high = max(cell.max for cell in cells)
        summary: dict[str, Any] = {"count": count, "sum": total, "mean": total / count, "min": low}
        for name, fraction in SUMMARY_QUANTILES:
            summary[name] = min(max(bucket_upper_bound(cumulative, fraction), low), high)
        summary["max"] = high
        summary["buckets"] = cumulative
        return summary


class MetricsRegistry:
    """Named counters and histograms, exported as one dict."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, LatencyHistogram] = {}

    def _get(self, metrics: dict[str, Any], make: Callable[[], Any], name: str) -> Any:
        with self._lock:
            metric = metrics.get(name)
            if metric is None:
                metric = metrics[name] = make()
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(self._counters, Counter, name)

    def histogram(self, name: str) -> LatencyHistogram:
        return self._get(self._histograms, LatencyHistogram, name)

    def snapshot(self) -> dict[str, object]:
        # The registry lock only guards the name->object maps.  Each value
        # sums its metric's cells while writers keep writing: monotone and
        # point-in-time per metric, not atomic across metrics.
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        payload: dict[str, object] = {name: counter.value for name, counter in counters.items()}
        for name, histogram in histograms.items():
            payload[name] = histogram.summary()
        return payload


class MetricFamily(dict):
    """``family[label]`` is ``make(f"{prefix}.{label}")``, a registry counter
    or histogram resolved on first use and kept: a hot path pays a dict
    lookup, not an f-string and the registry lock.  Threads that miss
    together resolve the same registry metric."""

    def __init__(self, make: Callable[[str], Any], prefix: str):
        super().__init__()
        self._make = make
        self._prefix = prefix

    def __missing__(self, label: str) -> Any:
        metric = self[label] = self._make(f"{self._prefix}.{label}")
        return metric
