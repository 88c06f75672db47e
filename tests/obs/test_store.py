"""TraceStore retention: slow exemplars, recent ring, pooled durations."""

from __future__ import annotations

import pytest

from repro.obs.cli import breakdown_rows
from repro.obs.store import Trace, TraceStore
from repro.obs.tracing import Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_trace(tracer: Tracer, clock: FakeClock, duration: float, name: str = "request") -> Trace:
    root = tracer.span(name, root=True)
    clock.now += duration
    root.end()
    return tracer.store.recent(1)[0]


@pytest.fixture()
def clock() -> FakeClock:
    return FakeClock()


def test_slow_exemplars_keep_the_slowest(clock: FakeClock):
    store = TraceStore(max_slow=3, max_recent=100)
    tracer = Tracer(enabled=True, store=store, clock=clock)
    for duration in (0.05, 0.90, 0.10, 0.70, 0.01, 0.80):
        make_trace(tracer, clock, duration)
    slow = store.slowest()
    assert [round(trace.duration_seconds, 2) for trace in slow] == [0.90, 0.80, 0.70]


def test_recent_ring_is_bounded_and_newest_first(clock: FakeClock):
    store = TraceStore(max_slow=2, max_recent=3)
    tracer = Tracer(enabled=True, store=store, clock=clock)
    for duration in (0.1, 0.2, 0.3, 0.4, 0.5):
        make_trace(tracer, clock, duration)
    recent = store.recent()
    assert len(recent) == 3
    assert [round(trace.duration_seconds, 1) for trace in recent] == [0.5, 0.4, 0.3]


def test_sampling_split_retains_slow_outlier_after_ring_ages_out(clock: FakeClock):
    """The N-slowest + recent-ring split: a slow outlier early in the
    stream must survive after the ring has rolled far past it."""
    store = TraceStore(max_slow=1, max_recent=2)
    tracer = Tracer(enabled=True, store=store, clock=clock)
    make_trace(tracer, clock, 9.0)  # the outlier
    for _ in range(10):
        make_trace(tracer, clock, 0.01)
    assert store.stats() == {
        "added": 11,
        "retained": 3,
        "slow_retained": 1,
        "recent_retained": 2,
        "max_slow": 1,
        "max_recent": 2,
    }
    assert store.slowest(1)[0].duration_seconds == pytest.approx(9.0)
    # traces() is the distinct union of both sides
    assert len(store.traces()) == 3


def test_get_by_trace_id(clock: FakeClock):
    store = TraceStore(max_slow=2, max_recent=2)
    tracer = Tracer(enabled=True, store=store, clock=clock)
    trace = make_trace(tracer, clock, 0.5)
    assert store.get(trace.trace_id) is trace
    assert store.get("t-does-not-exist") is None


def test_clear(clock: FakeClock):
    store = TraceStore()
    tracer = Tracer(enabled=True, store=store, clock=clock)
    make_trace(tracer, clock, 0.5)
    store.clear()
    assert store.traces() == []


def test_store_validation():
    with pytest.raises(ValueError):
        TraceStore(max_slow=-1)
    with pytest.raises(ValueError):
        TraceStore(max_recent=0)


def test_breakdown_rows_pools_by_name(clock: FakeClock):
    store = TraceStore()
    tracer = Tracer(enabled=True, store=store, clock=clock)
    for _ in range(2):
        root = tracer.span("request", root=True)
        with tracer.attach(root):
            with tracer.span("encode"):
                clock.now += 0.1
            with tracer.span("generate"):
                clock.now += 0.3
        root.end()
    rows = {row["stage"]: row for row in breakdown_rows(trace.to_dict() for trace in store.traces())}
    assert rows["encode"]["count"] == 2
    assert rows["encode"]["total ms"] == pytest.approx(200.0)
    assert rows["generate"]["count"] == 2
    assert rows["generate"]["total ms"] == pytest.approx(600.0)
    assert rows["request"]["count"] == 2


def test_trace_to_dict_shape(clock: FakeClock):
    store = TraceStore()
    tracer = Tracer(enabled=True, store=store, clock=clock)
    root = tracer.span("request", root=True, request_id="r9")
    with tracer.attach(root):
        with tracer.span("stage"):
            clock.now += 0.2
    root.end()
    payload = store.recent(1)[0].to_dict()
    assert payload["name"] == "request"
    assert payload["span_count"] == 2
    names = {span["name"] for span in payload["spans"]}
    assert names == {"request", "stage"}
    root_dict = next(s for s in payload["spans"] if s["name"] == "request")
    assert root_dict["parent_id"] is None
    assert root_dict["attributes"]["request_id"] == "r9"
