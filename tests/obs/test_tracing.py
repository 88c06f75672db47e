"""Span/Tracer semantics: zero-cost off, child-only, nesting, assembly."""

from __future__ import annotations

import pytest

from repro.obs.cli import render_trace_tree
from repro.obs.store import TraceStore
from repro.obs.tracing import (
    MAX_SPANS_PER_TRACE,
    NULL_SPAN,
    Tracer,
    get_tracer,
    set_tracer,
    traced,
)


class FakeClock:
    """Deterministic monotonic clock for duration assertions."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture()
def tracer(clock: FakeClock) -> Tracer:
    return Tracer(enabled=True, store=TraceStore(), clock=clock)


# ------------------------------------------------------------- zero cost off
def test_global_tracer_is_disabled_by_default():
    assert get_tracer().enabled is False
    assert get_tracer().span("anything") is NULL_SPAN
    assert get_tracer().span("anything", root=True) is NULL_SPAN


def test_null_span_is_inert():
    with NULL_SPAN as span:
        assert span is NULL_SPAN
        assert span.set_attribute("k", 1) is NULL_SPAN
        assert span.set_attributes(a=1, b=2) is NULL_SPAN
    assert not NULL_SPAN  # falsy, so `if span:` guards work
    assert NULL_SPAN.duration_seconds == 0.0
    assert NULL_SPAN.attributes == {}
    assert NULL_SPAN.to_dict() == {}
    NULL_SPAN.end()  # must not raise


def test_disabled_tracer_records_nothing(clock: FakeClock):
    tracer = Tracer(enabled=False, clock=clock)
    with tracer.span("request", root=True):
        with tracer.span("child"):
            pass
    assert tracer.store.stats()["added"] == 0


# --------------------------------------------------------------- child-only
def test_child_only_without_open_trace(tracer: Tracer):
    # No ambient parent and no root=True: library instrumentation must not
    # open a one-span trace.
    assert tracer.span("kb.search") is NULL_SPAN
    assert tracer.store.stats()["added"] == 0


def test_root_opens_and_children_nest(tracer: Tracer, clock: FakeClock):
    with tracer.span("request", root=True, request_id="r1") as root:
        clock.advance(0.010)
        with tracer.span("stage_a") as stage_a:
            clock.advance(0.020)
            with tracer.span("inner") as inner:
                clock.advance(0.005)
        with tracer.span("stage_b"):
            clock.advance(0.001)
    traces = tracer.store.recent()
    assert len(traces) == 1
    trace = traces[0]
    assert trace.name == "request"
    assert trace.root.attributes["request_id"] == "r1"
    assert sorted(trace.span_names()) == sorted(["request", "stage_a", "inner", "stage_b"])
    assert stage_a.parent_id == root.span_id
    assert inner.parent_id == stage_a.span_id
    assert trace.duration_seconds == pytest.approx(0.036)
    assert inner.duration_seconds == pytest.approx(0.005)
    # children_of orders by start time
    assert [span.name for span in trace.children_of(root.span_id)] == ["stage_a", "stage_b"]


def test_explicit_parent_overrides_ambient(tracer: Tracer):
    root = tracer.span("request", root=True)
    child = tracer.span("side", parent=root)
    child.end()
    root.end()
    trace = tracer.store.recent(1)[0]
    assert trace.find("side")[0].parent_id == root.span_id


# --------------------------------------------------------------- attributes
def test_exception_tags_error_attribute(tracer: Tracer):
    with pytest.raises(ValueError):
        with tracer.span("request", root=True):
            with tracer.span("stage"):
                raise ValueError("boom")
    trace = tracer.store.recent(1)[0]
    assert trace.find("stage")[0].attributes["error"] == "ValueError"


def test_end_is_idempotent(tracer: Tracer, clock: FakeClock):
    root = tracer.span("request", root=True)
    clock.advance(1.0)
    root.end()
    clock.advance(5.0)
    root.end()
    assert tracer.store.recent(1)[0].duration_seconds == pytest.approx(1.0)
    assert tracer.store.stats()["added"] == 1


# --------------------------------------------------------- pre-timed record
def test_record_span_replays_timing(tracer: Tracer, clock: FakeClock):
    root = tracer.span("request", root=True)
    recorded = tracer.record_span(
        "router.embed_batch",
        parent=root,
        start_seconds=0.5,
        end_seconds=0.9,
        batch_size=4,
    )
    root.end()
    assert recorded.parent_id == root.span_id
    span = tracer.store.recent(1)[0].find("router.embed_batch")[0]
    assert span.duration_seconds == pytest.approx(0.4)
    assert span.attributes["batch_size"] == 4


def test_record_span_without_parent_is_noop(tracer: Tracer):
    assert tracer.record_span("x", parent=None, start_seconds=0.0, end_seconds=1.0) is NULL_SPAN
    assert tracer.record_span("x", parent=NULL_SPAN, start_seconds=0.0, end_seconds=1.0) is NULL_SPAN


# --------------------------------------------------------------- span bound
def test_span_buffer_is_bounded(clock: FakeClock):
    tracer = Tracer(enabled=True, clock=clock)
    with tracer.span("request", root=True):
        for index in range(MAX_SPANS_PER_TRACE + 10):
            with tracer.span(f"s{index}"):
                pass
    trace = tracer.store.recent(1)[0]
    assert len(trace.spans) == MAX_SPANS_PER_TRACE + 1  # the capped children + the root
    dropped = tracer.metrics.counter("tracer.spans_dropped").value
    assert dropped == 10  # children only: the root always lands


def test_root_survives_span_cap(clock: FakeClock):
    """A root finishes after its children, so a full buffer must not drop
    it: the tree, /traces/<id> and the JSON-lines log all hang off it."""
    tracer = Tracer(enabled=True, clock=clock)
    with tracer.span("request", root=True) as root:
        for _ in range(600):
            with tracer.span("child"):
                pass
    trace = tracer.store.recent(1)[0]
    assert root in trace.spans
    payload = trace.to_dict()
    assert [span["name"] for span in payload["spans"] if span["parent_id"] is None] == ["request"]
    tree = render_trace_tree(payload).splitlines()
    assert tree[1].startswith("└─ request")
    assert len(tree) == 2 + MAX_SPANS_PER_TRACE  # header, root, capped children


# ------------------------------------------------------------ stage metrics
def test_finish_feeds_stage_histograms(tracer: Tracer, clock: FakeClock):
    with tracer.span("request", root=True):
        with tracer.span("stage_a"):
            clock.advance(0.25)
    snapshot = tracer.stage_snapshot()
    assert snapshot["stage.stage_a"]["count"] == 1
    assert snapshot["stage.stage_a"]["max"] == pytest.approx(0.25)
    assert snapshot["tracer.traces"] == 1


# ------------------------------------------------------------ global install
def test_traced_installs_and_restores():
    before = get_tracer()
    with traced() as session_tracer:
        assert get_tracer() is session_tracer
        assert session_tracer.enabled
    assert get_tracer() is before
    assert get_tracer().enabled is False


def test_set_tracer_returns_previous():
    replacement = Tracer(enabled=True)
    previous = set_tracer(replacement)
    try:
        assert get_tracer() is replacement
    finally:
        assert set_tracer(previous) is replacement
    assert get_tracer() is previous
