"""SLO objectives, windowed burn rates, and their gauge exposition."""

from __future__ import annotations

from bisect import bisect_left

import pytest

from repro.obs.metrics import BUCKET_BOUNDS, LatencyHistogram
from repro.obs.promtext import render_prometheus
from repro.obs.slo import (
    ErrorRateObjective,
    LatencyObjective,
    SLOTracker,
    default_service_objectives,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


AVAILABILITY = ErrorRateObjective(
    name="availability", total=("requests.submitted",), bad=("requests.failed",), target=0.01
)
LATENCY = LatencyObjective(
    name="request_latency", metric="stage.service.explain", threshold_seconds=0.5
)


def make_tracker(clock: FakeClock, *objectives) -> SLOTracker:
    return SLOTracker(
        objectives=tuple(objectives) or None,
        windows=(60.0, 300.0),
        clock=clock,
    )


# ----------------------------------------------------------------- objectives
def test_default_objectives_cover_latency_and_availability():
    kinds = {type(objective).__name__ for objective in default_service_objectives()}
    assert kinds == {"LatencyObjective", "ErrorRateObjective"}


def test_objective_validation():
    with pytest.raises(ValueError):
        LatencyObjective(name="x", metric="m", threshold_seconds=0.0)
    with pytest.raises(ValueError):
        ErrorRateObjective(name="x", total=("t",), bad=("b",), target=0.0)
    with pytest.raises(ValueError):
        ErrorRateObjective(name="x", total=("t",), bad=("b",), target=1.5)
    with pytest.raises(ValueError):
        LatencyObjective(name="x", metric="m", threshold_seconds=1.0, quantile="max")
    with pytest.raises(ValueError):
        SLOTracker(windows=())


# ----------------------------------------------------------------- error rate
def test_error_rate_uses_windowed_deltas():
    clock = FakeClock()
    tracker = make_tracker(clock, AVAILABILITY)
    tracker.observe({"requests.submitted": 1000, "requests.failed": 100})
    clock.advance(30.0)
    # 100 new requests in the short window, 5 of them bad → 5% windowed
    # error rate even though the lifetime cumulative rate is ~9.5%.
    evaluation = tracker.evaluate({"requests.submitted": 1100, "requests.failed": 105})
    entry = evaluation["objectives"][0]
    assert entry["value"] == pytest.approx(105 / 1100)
    window = entry["windows"]["60s"]
    assert window["value"] == pytest.approx(0.05)
    assert window["burn_rate"] == pytest.approx(5.0)
    assert not entry["met"]
    assert evaluation["worst_burn_rate"] == pytest.approx(5.0)


def test_error_rate_single_sample_falls_back_to_cumulative():
    clock = FakeClock()
    tracker = make_tracker(clock, AVAILABILITY)
    evaluation = tracker.evaluate({"requests.submitted": 200, "requests.failed": 1})
    entry = evaluation["objectives"][0]
    assert entry["windows"]["60s"]["value"] == pytest.approx(0.005)
    assert entry["windows"]["60s"]["burn_rate"] == pytest.approx(0.5)
    assert entry["met"]


def test_old_samples_age_out_of_short_windows():
    clock = FakeClock()
    tracker = make_tracker(clock, AVAILABILITY)
    tracker.observe({"requests.submitted": 100, "requests.failed": 50})
    clock.advance(120.0)  # beyond the 60s window, inside the 300s one
    tracker.observe({"requests.submitted": 200, "requests.failed": 50})
    clock.advance(10.0)
    evaluation = tracker.evaluate({"requests.submitted": 300, "requests.failed": 50})
    entry = evaluation["objectives"][0]
    # The bad counter stopped moving after the early burn, so every
    # windowed *delta* is clean; only the cumulative value keeps history.
    assert entry["windows"]["60s"]["value"] == pytest.approx(0.0)
    assert entry["windows"]["300s"]["value"] == pytest.approx(0.0)
    assert entry["value"] == pytest.approx(50 / 300)


# -------------------------------------------------------------------- latency
def test_latency_window_sees_a_jump_the_long_window_does_not():
    """A latency jump in the last minute burns the 60 s window; the 1,800 s
    window's bucket delta is still mostly fast requests, and so is the
    all-time quantile."""
    clock = FakeClock()
    tracker = SLOTracker(objectives=(LATENCY,), windows=(60.0, 300.0, 1800.0), clock=clock)
    histogram = LatencyHistogram()
    for _minute in range(30):
        for _ in range(100):
            histogram.record(0.1)
        tracker.observe({"stage.service.explain": histogram.summary()})
        clock.advance(60.0)
    for _ in range(100):
        histogram.record(2.0)
    entry = tracker.evaluate({"stage.service.explain": histogram.summary()})["objectives"][0]
    fast = BUCKET_BOUNDS[bisect_left(BUCKET_BOUNDS, 0.1)]  # 0.1's bucket bound, about 0.105
    assert entry["windows"]["60s"]["value"] == 2.0
    assert entry["windows"]["60s"]["burn_rate"] == pytest.approx(4.0)
    assert entry["windows"]["300s"]["value"] == 2.0  # 100 of 500 samples are slow
    assert entry["windows"]["1800s"]["value"] == pytest.approx(fast)
    assert entry["windows"]["1800s"]["burn_rate"] < 0.25
    assert entry["value"] == pytest.approx(fast) and entry["met"]


def test_latency_window_without_a_delta_falls_back_to_all_time():
    clock = FakeClock()
    tracker = make_tracker(clock, LATENCY)
    histogram = LatencyHistogram()
    for _ in range(20):
        histogram.record(0.8)
    entry = tracker.evaluate({"stage.service.explain": histogram.summary()})["objectives"][0]
    slow = BUCKET_BOUNDS[bisect_left(BUCKET_BOUNDS, 0.8)]  # 0.8's bucket bound, about 0.84
    assert entry["value"] == entry["windows"]["60s"]["value"] == pytest.approx(slow)
    assert entry["windows"]["60s"]["burn_rate"] == pytest.approx(slow / 0.5)
    assert not entry["met"]


def test_latency_missing_metric_is_zero_burn():
    clock = FakeClock()
    tracker = make_tracker(clock, LATENCY)
    evaluation = tracker.evaluate({"unrelated": 1})
    entry = evaluation["objectives"][0]
    assert entry["value"] == 0.0
    assert entry["windows"]["60s"]["burn_rate"] == 0.0
    assert entry["met"]


# ------------------------------------------------------------------- pruning
def test_sample_horizon_is_bounded():
    clock = FakeClock()
    tracker = make_tracker(clock, AVAILABILITY)
    for _ in range(10):
        tracker.observe({"requests.submitted": 1, "requests.failed": 0})
        clock.advance(200.0)
    # horizon is 2× the longest window (600s): only the last ~4 samples live
    assert tracker.evaluate()["samples"] <= 4


# ---------------------------------------------------------------- exposition
def test_snapshot_renders_as_slo_gauges():
    clock = FakeClock()
    tracker = make_tracker(clock, AVAILABILITY, LATENCY)
    snapshot = tracker.snapshot(
        {
            "requests.submitted": 100,
            "requests.failed": 2,
            "stage.service.explain": {"count": 5, "p50": 0.1, "p95": 0.3},
        }
    )
    gauges = snapshot["slo"]
    assert gauges["availability"]["met"] == 0.0  # 2% > 1% budget
    assert gauges["request_latency"]["met"] == 1.0
    assert all(
        isinstance(value, float)
        for entry in gauges.values()
        if isinstance(entry, dict)
        for value in entry.values()
    )
    text = render_prometheus(snapshot)
    assert "# TYPE repro_slo_worst_burn_rate gauge" in text
    assert "# TYPE repro_slo_availability_burn_rate_60s gauge" in text
    assert "repro_slo_request_latency_target 0.5" in text
    assert "repro_slo_availability_met 0.0" in text
