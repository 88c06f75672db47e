"""SLO objectives and multi-window burn-rate tracking.

Declarative service-level objectives evaluated against the plain-dict
snapshots the serving layer already exports
(:meth:`repro.service.server.ExplanationService.metrics_snapshot` merged
with :meth:`repro.obs.tracing.Tracer.stage_snapshot`):

* :class:`LatencyObjective` — a quantile of a latency histogram must stay
  at or under a threshold (e.g. p95 of ``stage.service.explain`` ≤ 500 ms);
* :class:`ErrorRateObjective` — the bad fraction of traffic (failed and
  rejected over submitted) must stay at or under a target budget.

:class:`SLOTracker` is scrape-driven: each :meth:`~SLOTracker.observe`
appends a timestamped sample extracted from a snapshot, and
:meth:`~SLOTracker.evaluate` computes, per objective and per sliding
window, the windowed SLI value and its **burn rate** — how fast the error
budget is being consumed, where 1.0 means "exactly on budget" and larger
means faster.  Multi-window evaluation is the standard paging pattern: a
short window catches a sharp regression quickly, a long window catches a
slow leak, and alerting on both avoids paging on blips.

Each SLI is computed from cumulative values: an objective's ``value``
from the latest sample, and each window's from the *delta* between its
first and last sample, so a long-running process does not drag history
into the current window.  Error rates come from the counters, latency
quantiles from the histogram's cumulative ``buckets`` counts (the upper
bound of the bucket holding the nearest-rank sample, at most the last
finite bound).

:meth:`~SLOTracker.snapshot` renders the evaluation as float gauges under
the ``slo`` key, which the Prometheus exposition turns into
``repro_slo_*`` series.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence, Union

from repro.obs.metrics import BUCKET_BOUNDS, bucket_upper_bound
from repro.obs.stats import SUMMARY_QUANTILES

#: Snapshots an :class:`SLOTracker` retains; the oldest are dropped first.
MAX_SAMPLES = 4096


@dataclass(frozen=True)
class LatencyObjective:
    """A latency quantile of one histogram must stay ≤ a threshold."""

    name: str
    #: Snapshot key of a histogram summary (e.g. ``stage.service.explain``).
    metric: str
    threshold_seconds: float
    quantile: str = "p95"

    kind = "latency"

    def __post_init__(self) -> None:
        if self.threshold_seconds <= 0:
            raise ValueError("threshold_seconds must be positive")
        if self.quantile not in dict(SUMMARY_QUANTILES):
            raise ValueError(f"quantile must be one of {[name for name, _ in SUMMARY_QUANTILES]}")

    @property
    def target(self) -> float:
        return self.threshold_seconds

    def read(self, snapshot: Mapping[str, Any]) -> Sequence[int] | None:
        """The histogram's cumulative ``buckets`` counts."""
        summary = snapshot.get(self.metric)
        return summary.get("buckets") if isinstance(summary, Mapping) else None

    def sli(self, buckets: Sequence[int]) -> float:
        """The quantile of bucketed samples: its bucket's upper bound, at
        most the last finite bound; 0.0 without samples."""
        if buckets[-1] <= 0:
            return 0.0
        return min(bucket_upper_bound(buckets, dict(SUMMARY_QUANTILES)[self.quantile]), BUCKET_BOUNDS[-1])


@dataclass(frozen=True)
class ErrorRateObjective:
    """The bad fraction of traffic must stay ≤ a target budget."""

    name: str
    #: Counter keys summed into the traffic denominator.
    total: tuple[str, ...]
    #: Counter keys summed into the bad-event numerator.
    bad: tuple[str, ...]
    #: Maximum tolerated bad fraction (the error budget), e.g. 0.01.
    target: float

    kind = "error_rate"

    def __post_init__(self) -> None:
        if not 0.0 < self.target <= 1.0:
            raise ValueError("target must be in (0, 1]")

    def read(self, snapshot: Mapping[str, Any]) -> tuple[float, float]:
        return _counter_sum(snapshot, self.total), _counter_sum(snapshot, self.bad)

    def sli(self, counts: Sequence[float]) -> float:
        total, bad = counts
        return bad / total if total > 0 else 0.0


Objective = Union[LatencyObjective, ErrorRateObjective]


def default_service_objectives() -> tuple[Objective, ...]:
    """The objectives :class:`ExplanationService` tracks out of the box.

    ``availability`` burns its budget on internal failures and on the
    rejections the service causes: ``queue_full``, ``deadline_exceeded``
    and ``service_closed``.  ``quota_exceeded`` (the tenant's own declared
    limit, like HTTP 429) and ``invalid_sql`` (the caller's own bad SQL,
    like HTTP 400) do not burn it.
    """
    return (
        LatencyObjective(
            name="request_latency",
            metric="stage.service.explain",
            threshold_seconds=0.5,
            quantile="p95",
        ),
        ErrorRateObjective(
            name="availability",
            total=("requests.submitted",),
            bad=(
                "requests.failed",
                "requests.rejected.queue_full",
                "requests.rejected.deadline_exceeded",
                "requests.rejected.service_closed",
            ),
            target=0.01,
        ),
    )


def _counter_sum(snapshot: Mapping[str, Any], keys: tuple[str, ...]) -> float:
    total = 0.0
    for key in keys:
        value = snapshot.get(key, 0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        total += float(value)
    return total


def _window_label(window_seconds: float) -> str:
    return f"{int(window_seconds)}s"


class SLOTracker:
    """Sliding-window SLO evaluation over a stream of metrics snapshots."""

    def __init__(
        self,
        objectives: tuple[Objective, ...] | None = None,
        *,
        windows: tuple[float, ...] = (60.0, 300.0, 1800.0),
        clock: Callable[[], float] = time.monotonic,
    ):
        if not windows or any(window <= 0 for window in windows):
            raise ValueError("windows must be non-empty positive durations")
        self.objectives = objectives if objectives is not None else default_service_objectives()
        self.windows = tuple(sorted(windows))
        self._clock = clock
        self._lock = threading.Lock()
        self._samples: "deque[dict[str, Any]]" = deque(maxlen=MAX_SAMPLES)

    # ------------------------------------------------------------------ write
    def observe(self, snapshot: Mapping[str, Any]) -> None:
        """Extract and retain this instant's SLI inputs from a snapshot."""
        now = self._clock()
        sample = {"t": now, **{objective.name: objective.read(snapshot) for objective in self.objectives}}
        horizon = now - 2 * self.windows[-1]
        with self._lock:
            self._samples.append(sample)
            while self._samples and self._samples[0]["t"] < horizon:
                self._samples.popleft()

    # ------------------------------------------------------------------- read
    def evaluate(self, snapshot: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """Per-objective, per-window SLI values and burn rates.

        Passing a snapshot observes it first (the scrape-driven pattern:
        every ``/slo`` request is also a sample).
        """
        if snapshot is not None:
            self.observe(snapshot)
        with self._lock:
            samples = list(self._samples)
        now = self._clock()
        objectives: list[dict[str, Any]] = []
        worst_burn = 0.0
        for objective in self.objectives:
            entry = self._evaluate(objective, samples, now)
            for window in entry["windows"].values():
                worst_burn = max(worst_burn, window["burn_rate"])
            objectives.append(entry)
        return {
            "samples": len(samples),
            "windows_seconds": list(self.windows),
            "worst_burn_rate": worst_burn,
            "objectives": objectives,
        }

    def _evaluate(self, objective: Objective, samples: list[dict[str, Any]], now: float) -> dict[str, Any]:
        name = objective.name
        readings = [(sample["t"], sample[name]) for sample in samples if sample.get(name) is not None]
        value = objective.sli(readings[-1][1]) if readings else 0.0
        windows: dict[str, dict[str, float]] = {}
        for window in self.windows:
            in_window = [reading for t, reading in readings if t >= now - window]
            if len(in_window) >= 2:
                sli = objective.sli([last - first for first, last in zip(in_window[0], in_window[-1])])
            else:
                sli = value  # too few samples for a delta; fall back to the cumulative value
            windows[_window_label(window)] = {"value": sli, "burn_rate": sli / objective.target}
        entry = {"name": name, "kind": objective.kind, "target": objective.target}
        if isinstance(objective, LatencyObjective):
            entry["quantile"] = objective.quantile
        return {**entry, "value": value, "met": value <= objective.target, "windows": windows}

    # ------------------------------------------------------------- exposition
    def snapshot(self, snapshot: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """The evaluation as float gauges for the Prometheus exposition.

        Everything is a float on purpose — :mod:`repro.obs.promtext`
        renders floats as gauges, and every ``slo`` value (including the
        0/1 ``met`` flag) is a level, not a monotone count.
        """
        evaluation = self.evaluate(snapshot)
        gauges: dict[str, Any] = {"worst_burn_rate": float(evaluation["worst_burn_rate"])}
        for entry in evaluation["objectives"]:
            per_objective: dict[str, float] = {
                "value": float(entry["value"]),
                "target": float(entry["target"]),
                "met": 1.0 if entry["met"] else 0.0,
            }
            for label, window in entry["windows"].items():
                per_objective[f"burn_rate_{label}"] = float(window["burn_rate"])
            gauges[entry["name"]] = per_objective
        return {"slo": gauges}
