"""The trace lifecycle, end to end, against golden values.

One fixed script drives every way a trace can end: head-kept with
children and a replayed batch span, head-dropped and fast (gone),
head-dropped but tail-kept as slow, error and rejected, and one trace
over :data:`MAX_SPANS_PER_TRACE`.  The retained traces, the JSON-lines
log and ``stage_snapshot()`` (with its Prometheus text) must not drift.
Trace and span ids come from process-wide counters, so they are
renumbered by order of appearance before comparing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import re
import sys
import threading

import pytest

from repro.obs.jsonlog import TraceLogWriter
from repro.obs.promtext import render_prometheus
from repro.obs.sampling import Sampler, head_decision
from repro.obs.store import TraceStore
from repro.obs.tracing import MAX_SPANS_PER_TRACE, Span, Tracer

HEAD_PROBABILITY = 0.5
#: Request ids by the way their trace ends; the head decision is a CRC32 of
#: the id, so these are fixed (and checked below).
HEAD_KEPT = ("req-0", "req-1")
HEAD_DROPPED = ("req-2", "req-3", "req-6", "req-7")

#: sha256 of the renumbered retained traces and log lines, as JSON.
GOLDEN_TRACES_SHA256 = "c779c55ee034e0243fe70dc4a8021f09d0a05932f0f02f02dcb3aa04d33f1eaa"
#: sha256 of ``stage_snapshot()`` as JSON, and of its Prometheus text.
GOLDEN_SNAPSHOT_SHA256 = "324ed001db66a89886933bf253cdb07f60b9c80321391de3ee8b90950c739be5"
GOLDEN_PROMETHEUS_SHA256 = "2f67fcaf4c4b8ebaafd01be663a8e7cbc158ee509c54e57bcdd2eae5cfdc317b"
#: The readable part of the same values: one row per retained trace (newest
#: first) and the snapshot's counters.
GOLDEN_TRACE_ROWS = [
    ("service.explain", 513, "head", 0.051899999999994284),
    ("service.explain", 1, "tail_rejected", 0.0004999999999999449),
    ("service.explain", 1, "tail_error", 0.0020000000000000018),
    ("service.explain", 1, "tail_slow", 0.75),
    ("service.explain", 5, "head", 0.01),
]
GOLDEN_COUNTERS = {
    "tracer.traces": 5,
    "tracer.spans_dropped": 7,
    "store": {
        "traces_seen": 5,
        "traces_retained": 5.0,
        "slow_heap_size": 2.0,
        "recent_ring_size": 5.0,
        "slow_heap_capacity": 2.0,
        "recent_ring_capacity": 8.0,
    },
    "sampler": {
        "kept": 5,
        "dropped": 1,
        "kept_head": 2,
        "head_probability": 0.5,
        "sampled_ratio": 0.8333333333333334,
        "kept_tail_error": 1,
        "kept_tail_rejected": 1,
        "kept_tail_slow": 1,
    },
}


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _run_script(tracer: Tracer, clock: FakeClock) -> None:
    kept, over_cap = HEAD_KEPT
    fast, slow, failing, rejected = HEAD_DROPPED
    with tracer.span("service.explain", root=True, request_id=kept, tenant="a") as root:
        clock.advance(0.001)
        with tracer.span("cache.l1_lookup", hit=False):
            clock.advance(0.002)
        with tracer.span("pipeline.encode"):
            clock.advance(0.004)
            with tracer.span("kb.search", store="flat"):
                clock.advance(0.003)
        tracer.record_span(
            "router.embed_batch",
            parent=root,
            start_seconds=clock.now - 0.005,
            end_seconds=clock.now - 0.001,
            batch_size=4,
        )
        root.set_attribute("status", "ok")

    with tracer.span("service.explain", root=True, request_id=fast) as root:
        with tracer.span("cache.l1_lookup"):
            clock.advance(0.001)
        root.set_attribute("status", "ok")

    with tracer.span("service.explain", root=True, request_id=slow) as root:
        with tracer.span("pipeline.encode"):
            clock.advance(0.75)
        root.set_attribute("status", "ok")

    with pytest.raises(RuntimeError):
        with tracer.span("service.explain", root=True, request_id=failing):
            clock.advance(0.002)
            raise RuntimeError("boom")

    root = tracer.span("service.explain", root=True, request_id=rejected)
    clock.advance(0.0005)
    root.set_attributes(status="rejected", error_code="queue_full")
    root.end()

    with tracer.span("service.explain", root=True, request_id=over_cap):
        for _ in range(MAX_SPANS_PER_TRACE + 7):
            with tracer.span("kb.search"):
                clock.advance(0.0001)


def _renumber(text: str) -> str:
    """Replace ``t-…`` / ``s-…`` ids by their order of first appearance."""
    seen: dict[str, str] = {}

    def replace(match: "re.Match[str]") -> str:
        token = match.group(0)
        if token not in seen:
            prefix = token[0]
            seen[token] = f"{prefix}-{sum(key[0] == prefix for key in seen) + 1:08d}"
        return seen[token]

    return re.sub(r"\b[ts]-\d{8}\b", replace, text)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _observe(tmp_path) -> dict[str, object]:
    clock = FakeClock()
    sampler = Sampler(head_probability=HEAD_PROBABILITY, slow_threshold_seconds=0.5)
    path = tmp_path / "traces.jsonl"
    with TraceLogWriter(path) as writer:
        tracer = Tracer(
            enabled=True,
            store=TraceStore(max_slow=2, max_recent=8),
            writer=writer,
            sampler=sampler,
            clock=clock,
        )
        _run_script(tracer, clock)
    traces = [trace.to_dict() for trace in tracer.store.traces()]
    snapshot = tracer.stage_snapshot()
    return {
        "traces": _renumber(
            json.dumps({"traces": traces, "lines": path.read_text().splitlines()}, sort_keys=True)
        ),
        "snapshot": json.dumps(snapshot, sort_keys=True),
        "prometheus": render_prometheus(snapshot),
        "rows": [
            (
                trace["name"],
                trace["span_count"],
                trace["spans"][-1]["attributes"].get("sampled"),
                trace["duration_seconds"],
            )
            for trace in traces
        ],
        "counters": {
            key: value
            for key, value in snapshot.items()
            if not key.startswith("stage.")
        },
    }


def test_request_ids_sample_as_the_script_assumes():
    assert [head_decision(key, HEAD_PROBABILITY) for key in HEAD_KEPT] == [True, True]
    assert [head_decision(key, HEAD_PROBABILITY) for key in HEAD_DROPPED] == [False] * 4


def test_trace_lifecycle_matches_golden(tmp_path):
    observed = _observe(tmp_path)
    assert observed["rows"] == GOLDEN_TRACE_ROWS
    assert observed["counters"] == GOLDEN_COUNTERS
    assert _sha256(observed["traces"]) == GOLDEN_TRACES_SHA256
    assert _sha256(observed["snapshot"]) == GOLDEN_SNAPSHOT_SHA256
    assert _sha256(observed["prometheus"]) == GOLDEN_PROMETHEUS_SHA256


# ------------------------------------------------------------- late children
def test_child_ended_after_its_root_is_not_in_the_stored_trace():
    clock = FakeClock()
    tracer = Tracer(enabled=True, clock=clock)
    root = tracer.span("request", root=True)
    with tracer.span("early", parent=root):
        clock.advance(0.001)
    late = tracer.span("late", parent=root)
    clock.advance(0.002)
    root.end()
    clock.advance(0.003)
    late.end()
    trace = tracer.store.recent(1)[0]
    assert trace.span_names() == ["early", "request"]
    snapshot = tracer.stage_snapshot()
    # Timed all the same, but neither stored nor counted as over the cap.
    assert snapshot["stage.late"]["count"] == 1
    assert snapshot["tracer.spans_dropped"] == 0
    # A span opened under a finished root does not land either.
    tracer.span("later", parent=root).end()
    assert tracer.store.recent(1)[0].span_names() == ["early", "request"]



def test_a_trace_the_store_lets_go_is_freed_by_reference_counting():
    # Spans point at their trace and the trace holds its spans; closing the
    # trace must break that cycle, or every evicted trace waits for the
    # cycle collector.
    tracer = Tracer(enabled=True, store=TraceStore(max_slow=0, max_recent=1))
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            with tracer.span("request", root=True):
                for _ in range(3):
                    tracer.span("child").end()
        live = sum(isinstance(item, Span) and item._tracer is tracer for item in gc.get_objects())
    finally:
        gc.enable()
    assert live == 4  # the one retained trace

# ------------------------------------------------------------ concurrent cap
def test_two_threads_finishing_children_keep_the_cap_and_the_root_lands():
    tracer = Tracer(enabled=True)
    root = tracer.span("request", root=True)
    per_thread = MAX_SPANS_PER_TRACE
    start = threading.Barrier(2)

    def finish_children() -> None:
        children = [tracer.span("child", parent=root) for _ in range(per_thread)]
        start.wait()
        for child in children:
            child.end()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two threads' finishes
    try:
        threads = [threading.Thread(target=finish_children) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    root.end()

    trace = tracer.store.recent(1)[0]
    assert len(trace.spans) == MAX_SPANS_PER_TRACE + 1
    assert trace.spans[-1] is root
    assert tracer.stage_snapshot()["tracer.spans_dropped"] == 2 * per_thread - MAX_SPANS_PER_TRACE
