"""Counters and latency histograms for the serving layer and the tracer.

Deliberately lightweight: a :class:`MetricsRegistry` is a named bag of
:class:`Counter` and :class:`LatencyHistogram` objects whose
:meth:`~MetricsRegistry.snapshot` exports one plain dict — the contract the
served-path benchmark (``perfbench``), the admin plane's ``/metrics``
exposition and any external scraper consume.  Quantile math is delegated
to :mod:`repro.obs.stats` so a p95 reported here uses the same
nearest-rank convention as every other percentile in the repo.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.obs.stats import percentile, summarize

#: Samples a histogram retains for its percentiles; older ones are overwritten.
MAX_SAMPLES = 8192


class Counter:
    """A monotonically increasing, thread-safe counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def increment(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class LatencyHistogram:
    """Latency samples with percentile export.

    The hot path (:meth:`record`) is O(1): samples land in an unsorted
    ring buffer of :data:`MAX_SAMPLES` whose bounded size keeps memory
    flat under sustained traffic (once full, a cursor overwrites the
    retained set in round-robin order, keeping it spread across the stream
    without a random source).  Sorting happens on the rare read side.
    """

    __slots__ = ("_lock", "_ring", "_cursor", "_count", "_total", "_min", "_max")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ring: list[float] = []
        self._cursor = 0
        self._count = 0
        self._total = 0.0
        self._min = 0.0
        self._max = 0.0

    def record(self, seconds: float) -> None:
        with self._lock:
            if self._count == 0 or seconds < self._min:
                self._min = seconds
            self._count += 1
            self._total += seconds
            if seconds > self._max:
                self._max = seconds
            if len(self._ring) < MAX_SAMPLES:
                self._ring.append(seconds)
            else:
                self._ring[self._cursor] = seconds
                self._cursor = (self._cursor + 1) % MAX_SAMPLES

    def percentile(self, fraction: float) -> float:
        """Latency at the given quantile (0 < fraction <= 1) in seconds."""
        with self._lock:
            samples = list(self._ring)
        return percentile(samples, fraction)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def summary(self) -> dict[str, float]:
        """Count, sum, mean, all-time min/max, and ring-window percentiles.

        ``min``/``max``/``sum``/``mean`` cover every sample ever recorded
        (not just the retained ring), so a scraper can derive rates from
        consecutive ``sum``/``count`` pairs without losing overwritten
        samples; the percentiles are computed over the ring window.
        """
        with self._lock:
            summary = summarize(self._ring)
            if self._count:
                summary.update(
                    count=self._count,
                    sum=self._total,
                    mean=self._total / self._count,
                    min=self._min,
                    max=self._max,
                )
        return summary


class MetricsRegistry:
    """Named counters and histograms, exported as one dict."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, LatencyHistogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter()
            return counter

    def histogram(self, name: str) -> LatencyHistogram:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram()
            return histogram

    def snapshot(self) -> dict[str, object]:
        # Lock discipline, audited under 16-way writer stress (see
        # tests/service/test_batching_and_metrics.py): the registry lock
        # only guards the name->object maps and is released before any
        # per-object read, so a snapshot never blocks writers for longer
        # than two dict copies.  Each Counter.value and
        # LatencyHistogram.summary() takes its own lock, and summary()
        # sorts the ring under it, so a concurrent record can never leave
        # it reading a half-written ring.  The snapshot is point-in-time
        # per metric, not atomic across metrics (documented contract).
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
