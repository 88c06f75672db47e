"""Concurrent jsonlog writers and stage pooling over partial traces."""

from __future__ import annotations

import threading
from pathlib import Path

from repro.obs.cli import breakdown_rows
from repro.obs.jsonlog import TraceLogWriter, read_traces
from repro.obs.sampling import Sampler
from repro.obs.store import TraceStore
from repro.obs.tracing import Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ------------------------------------------------------------ concurrent log
def test_concurrent_writers_round_trip(tmp_path: Path):
    """8 threads sharing one writer: every line reads back intact."""
    path = tmp_path / "traces.jsonl"
    writer = TraceLogWriter(path)
    threads, per_thread = 8, 50
    barrier = threading.Barrier(threads)

    def worker(worker_id: int) -> None:
        # One tracer per thread (span ids are globally unique), one shared
        # writer — the contention point under test.
        tracer = Tracer(enabled=True, store=TraceStore(max_recent=1), writer=writer)
        barrier.wait()
        for i in range(per_thread):
            with tracer.span("service.explain", root=True, request_id=f"w{worker_id}-{i}"):
                with tracer.span("pipeline.encode"):
                    pass

    pool = [threading.Thread(target=worker, args=(n,)) for n in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    writer.close()

    payloads = list(read_traces(path))
    assert len(payloads) == threads * per_thread
    request_ids = set()
    for payload in payloads:
        assert payload["span_count"] == 2
        root = next(span for span in payload["spans"] if span["parent_id"] is None)
        request_ids.add(root["attributes"]["request_id"])
    assert len(request_ids) == threads * per_thread  # no torn/merged lines


def test_read_skips_torn_final_line(tmp_path: Path):
    path = tmp_path / "traces.jsonl"
    with TraceLogWriter(path) as writer:
        tracer = Tracer(enabled=True, writer=writer)
        with tracer.span("service.explain", root=True):
            pass
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"trace_id": "t-torn", "spans": [')  # crash mid-write
    payloads = list(read_traces(path))
    assert len(payloads) == 1
    assert payloads[0]["spans"]


# ------------------------------------------------- pooling over partial traces
def test_breakdown_rows_pools_full_and_partial_traces():
    """A sampled stream mixes full traces with root-only partials; the
    pooling must simply see fewer child samples, never crash or skew."""
    clock = FakeClock()
    sampler = Sampler(head_probability=0.0, slow_threshold_seconds=0.5)
    tracer = Tracer(
        enabled=True, store=TraceStore(max_recent=16), sampler=sampler, clock=clock
    )
    # First a tail-kept root-only partial, then a fully-recorded trace
    # from a keep-everything sampler sharing the same store.
    slow_root = tracer.span("service.explain", root=True, request_id="slow-1")
    clock.advance(0.9)
    slow_root.end()  # tail-kept, root-only partial

    full_tracer = Tracer(
        enabled=True,
        store=tracer.store,
        sampler=Sampler(head_probability=1.0),
        clock=clock,
    )
    root = full_tracer.span("service.explain", root=True, request_id="full-1")
    child = full_tracer.span("pipeline.encode", parent=root)
    clock.advance(0.1)
    child.end()
    clock.advance(0.1)
    root.end()

    traces = tracer.store.traces()
    assert len(traces) == 2
    partial = [t for t in traces if t.root.attributes.get("sampled_partial")]
    assert len(partial) == 1 and partial[0].span_names() == ["service.explain"]

    rows = {row["stage"]: row for row in breakdown_rows(trace.to_dict() for trace in traces)}
    assert sorted(rows) == ["pipeline.encode", "service.explain"]
    assert rows["service.explain"]["count"] == 2  # both roots pool
    assert rows["pipeline.encode"]["count"] == 1  # only the full trace has it
    assert rows["service.explain"]["max ms"] >= 900.0
