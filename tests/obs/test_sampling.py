"""Head+tail trace sampling: determinism, recording bit, tail rescues."""

from __future__ import annotations

import pytest

from repro.obs.promtext import render_prometheus
from repro.obs.sampling import Sampler, head_decision
from repro.obs.store import TraceStore
from repro.obs.tracing import NULL_SPAN, Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock() -> FakeClock:
    return FakeClock()


def sampled_tracer(clock: FakeClock, sampler: Sampler, **store_kwargs: int) -> Tracer:
    return Tracer(
        enabled=True, store=TraceStore(**store_kwargs), sampler=sampler, clock=clock
    )


# ------------------------------------------------------------- head decision
def test_head_decision_is_deterministic():
    keys = [f"req-{i}" for i in range(100)]
    first = [head_decision(key, 0.5) for key in keys]
    second = [head_decision(key, 0.5) for key in keys]
    assert first == second


def test_head_decision_ratio_tracks_probability():
    keys = [f"req-{i}" for i in range(1000)]
    kept = sum(head_decision(key, 0.5) for key in keys)
    # CRC32 over sequential ids is close to uniform; wide bounds keep this
    # deterministic assertion robust to the exact key set.
    assert 400 < kept < 600
    assert sum(head_decision(key, 0.05) for key in keys) < 150


def test_head_decision_extremes():
    assert head_decision("anything", 1.0) is True
    assert head_decision("anything", 0.0) is False


def test_sampler_validates_arguments():
    with pytest.raises(ValueError):
        Sampler(head_probability=1.5)
    with pytest.raises(ValueError):
        Sampler(head_probability=-0.1)
    with pytest.raises(ValueError):
        Sampler(slow_threshold_seconds=-1.0)


# ------------------------------------------------------------- recording bit
def test_head_dropped_root_suppresses_children(clock: FakeClock):
    sampler = Sampler(head_probability=0.0, slow_threshold_seconds=10.0)
    tracer = sampled_tracer(clock, sampler)
    root = tracer.span("service.explain", root=True, request_id="req-1")
    assert root.enabled and not root.recording
    assert tracer.span("pipeline.encode", parent=root) is NULL_SPAN
    recorded = tracer.record_span(
        "router.embed_batch", parent=root, start_seconds=0.0, end_seconds=0.1
    )
    assert recorded is NULL_SPAN
    clock.advance(0.001)
    root.end()
    # Fast, clean, head-dropped: the trace vanishes entirely.
    assert tracer.store.traces() == []
    assert sampler.dropped == 1 and sampler.kept == 0


def test_head_dropped_root_still_feeds_stage_histogram(clock: FakeClock):
    sampler = Sampler(head_probability=0.0)
    tracer = sampled_tracer(clock, sampler)
    root = tracer.span("service.explain", root=True, request_id="req-1")
    clock.advance(0.25)
    root.end()
    snapshot = tracer.stage_snapshot()
    assert snapshot["stage.service.explain"]["count"] == 1
    assert snapshot["stage.service.explain"]["max"] == pytest.approx(0.25)


def test_head_kept_trace_is_full_and_tagged(clock: FakeClock):
    sampler = Sampler(head_probability=1.0)
    tracer = sampled_tracer(clock, sampler)
    root = tracer.span("service.explain", root=True, request_id="req-1")
    child = tracer.span("pipeline.encode", parent=root)
    assert child.enabled
    child.end()
    root.end()
    trace = tracer.store.traces()[0]
    assert trace.root.attributes["sampled"] == "head"
    assert "sampled_partial" not in trace.root.attributes
    assert sorted(trace.span_names()) == ["pipeline.encode", "service.explain"]
    assert sampler.snapshot()["kept_head"] == 1


# ----------------------------------------------------------------- tail keep
def test_tail_keeps_slow_trace_as_partial(clock: FakeClock):
    sampler = Sampler(head_probability=0.0, slow_threshold_seconds=0.5)
    tracer = sampled_tracer(clock, sampler)
    root = tracer.span("service.explain", root=True, request_id="req-1")
    clock.advance(0.75)
    root.end()
    trace = tracer.store.traces()[0]
    assert trace.root.attributes["sampled"] == "tail_slow"
    assert trace.root.attributes["sampled_partial"] is True
    assert trace.span_names() == ["service.explain"]  # root-only partial
    assert sampler.snapshot()["kept_tail_slow"] == 1


def test_tail_keeps_error_trace(clock: FakeClock):
    sampler = Sampler(head_probability=0.0)
    tracer = sampled_tracer(clock, sampler)
    root = tracer.span("service.explain", root=True, request_id="req-1")
    root.set_attributes(status="failed", error="ValueError")
    root.end()
    trace = tracer.store.traces()[0]
    assert trace.root.attributes["sampled"] == "tail_error"
    assert sampler.snapshot()["kept_tail_error"] == 1


def test_tail_keeps_rejected_trace(clock: FakeClock):
    sampler = Sampler(head_probability=0.0)
    tracer = sampled_tracer(clock, sampler)
    root = tracer.span("service.explain", root=True, request_id="req-1")
    root.set_attributes(status="rejected", rejected_reason="QUEUE_FULL")
    root.end()
    trace = tracer.store.traces()[0]
    assert trace.root.attributes["sampled"] == "tail_rejected"
    assert sampler.snapshot()["kept_tail_rejected"] == 1


def test_error_outranks_slow(clock: FakeClock):
    sampler = Sampler(head_probability=0.0, slow_threshold_seconds=0.1)
    tracer = sampled_tracer(clock, sampler)
    root = tracer.span("service.explain", root=True, request_id="req-1")
    root.set_attribute("error", "TimeoutError")
    clock.advance(5.0)  # also slow — but error is the more severe reason
    root.end()
    assert tracer.store.traces()[0].root.attributes["sampled"] == "tail_error"


# ------------------------------------------------------------ slow-tail sweep
def test_every_slow_trace_survives_one_percent_sampling(clock: FakeClock):
    """The tail rescue at scale: 1% head sampling, hundreds of traces."""
    sampler = Sampler(head_probability=0.01, slow_threshold_seconds=0.5)
    tracer = sampled_tracer(clock, sampler, max_slow=8, max_recent=512)
    slow_ids = []
    for i in range(300):
        request_id = f"req-{i}"
        root = tracer.span("service.explain", root=True, request_id=request_id)
        if i % 50 == 0:
            clock.advance(1.0)
            slow_ids.append(root.trace_id)
        else:
            clock.advance(0.001)
        root.end()
    retained = {trace.trace_id for trace in tracer.store.traces()}
    assert set(slow_ids) <= retained
    snapshot = sampler.snapshot()
    assert snapshot["kept"] + snapshot["dropped"] == 300
    assert snapshot["kept"] < 50  # the vast majority was dropped
    assert 0.0 < snapshot["sampled_ratio"] < 0.2


# ------------------------------------------------------------------ counters
def test_sampler_counters_in_stage_snapshot_and_exposition(clock: FakeClock):
    sampler = Sampler(head_probability=0.0, slow_threshold_seconds=0.5)
    tracer = sampled_tracer(clock, sampler)
    for i in range(3):
        root = tracer.span("service.explain", root=True, request_id=f"req-{i}")
        clock.advance(1.0 if i == 0 else 0.001)
        root.end()
    snapshot = tracer.stage_snapshot()
    assert snapshot["sampler"]["kept"] == 1
    assert snapshot["sampler"]["dropped"] == 2
    assert snapshot["sampler"]["sampled_ratio"] == pytest.approx(1 / 3)
    text = render_prometheus(snapshot)
    assert "# TYPE repro_sampler_kept counter" in text
    assert "repro_sampler_dropped 2" in text
    assert "# TYPE repro_sampler_sampled_ratio gauge" in text
    assert "# TYPE repro_sampler_head_probability gauge" in text


def test_store_retention_stats_in_stage_snapshot(clock: FakeClock):
    tracer = Tracer(
        enabled=True, store=TraceStore(max_slow=2, max_recent=4), clock=clock
    )
    for _ in range(6):
        root = tracer.span("service.explain", root=True)
        clock.advance(0.01)
        root.end()
    snapshot = tracer.stage_snapshot()
    store = snapshot["store"]
    assert store["traces_seen"] == 6
    assert store["slow_heap_size"] == 2.0
    assert store["recent_ring_size"] == 4.0
    assert store["slow_heap_capacity"] == 2.0
    assert store["recent_ring_capacity"] == 4.0
    text = render_prometheus(snapshot)
    assert "# TYPE repro_store_traces_seen counter" in text
    assert "# TYPE repro_store_recent_ring_size gauge" in text
    assert "repro_tracer_spans_dropped 0" in text  # always exported


def test_sampler_absent_means_no_sampler_metrics(clock: FakeClock):
    tracer = Tracer(enabled=True, clock=clock)
    root = tracer.span("service.explain", root=True)
    root.end()
    snapshot = tracer.stage_snapshot()
    assert "sampler" not in snapshot
    trace = tracer.store.traces()[0]
    assert "sampled" not in trace.root.attributes
