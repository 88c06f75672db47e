"""Tests for the micro-batcher and the metrics registry."""

from __future__ import annotations

import threading

import numpy as np

from repro.service.batching import MicroBatcher
from repro.obs.metrics import MAX_SAMPLES, LatencyHistogram, MetricsRegistry


# --------------------------------------------------------------- batching
def test_batcher_single_request(trained_router, labeled_workload):
    pair = labeled_workload[0].execution.plan_pair
    with MicroBatcher(trained_router) as batcher:
        embedding = batcher.encode(pair)
    assert np.allclose(embedding, trained_router.embed_pair(pair), atol=1e-9)


def test_batcher_concurrent_requests_match_per_pair(trained_router, labeled_workload):
    pairs = [labeled.execution.plan_pair for labeled in labeled_workload[:16]]
    with MicroBatcher(trained_router, max_batch_size=8, max_wait_seconds=0.01) as batcher:
        barrier = threading.Barrier(len(pairs))
        results: list[np.ndarray | None] = [None] * len(pairs)

        def worker(position: int) -> None:
            barrier.wait()
            results[position] = batcher.encode(pairs[position])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(pairs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = batcher.stats()
    for position, pair in enumerate(pairs):
        assert np.allclose(results[position], trained_router.embed_pair(pair), atol=1e-9)
    assert stats["requests"] == 16
    # Concurrent arrivals must actually coalesce into multi-pair batches.
    assert stats["batches"] < 16
    assert stats["mean_batch_size"] > 1.0


def test_lone_request_flushes_without_waiting_for_window(trained_router, labeled_workload):
    """A single cold request must not pay the coalescing wait."""
    import time

    pair = labeled_workload[0].execution.plan_pair
    # An absurd window: if the greedy flush regressed, encode would block
    # for the full 0.5 s instead of returning in single-digit milliseconds.
    with MicroBatcher(trained_router, max_wait_seconds=0.5) as batcher:
        batcher.encode(pair)  # warm the scheduler thread
        start = time.perf_counter()
        batcher.encode(pair)
        elapsed = time.perf_counter() - start
    assert elapsed < 0.25


def test_flush_spans_carry_featurization_split(trained_router, labeled_workload):
    from repro.obs.store import TraceStore
    from repro.obs.tracing import get_tracer, traced

    pair = labeled_workload[0].execution.plan_pair
    store = TraceStore()
    with traced(store=store):
        tracer = get_tracer()
        with tracer.span("test.root", root=True):
            with MicroBatcher(trained_router) as batcher:
                batcher.encode(pair)
    spans = [span for trace in store.traces() for span in trace.find("router.embed_batch")]
    assert spans
    attributes = spans[0].attributes
    assert attributes["batch_size"] == 1
    assert attributes["featurize_seconds"] >= 0.0
    assert attributes["forward_seconds"] > 0.0


def test_llm_span_carries_modeled_seconds(service_stack):
    """``llm.generate`` reports the simulator's modeled thinking and
    generation time next to its own measured duration."""
    from repro.obs.sampling import Sampler
    from repro.obs.store import TraceStore
    from repro.obs.tracing import traced
    from repro.service import ExplanationService, ServiceConfig

    system, router, knowledge_base, llm, sqls, _labeled = service_stack
    store = TraceStore()
    with traced(store=store, sampler=Sampler(head_probability=1.0)):
        config = ServiceConfig(max_workers=1)
        with ExplanationService(system, router, knowledge_base, llm, config=config) as service:
            result = service.explain(sqls[0])
    assert result.ok
    spans = [span for trace in store.traces() for span in trace.find("llm.generate")]
    assert len(spans) == 1
    attributes = spans[0].attributes
    response = result.explanation.response
    assert response.thinking_seconds > 0.0 and response.generation_seconds > 0.0
    assert attributes["thinking_seconds"] == response.thinking_seconds
    assert attributes["generation_seconds"] == response.generation_seconds


def test_embed_batch_reports_timings_dict(trained_router, labeled_workload):
    pairs = [labeled.execution.plan_pair for labeled in labeled_workload[:4]]
    timings: dict[str, float] = {}
    embeddings = trained_router.embed_batch(pairs, timings=timings)
    assert embeddings.shape[0] == len(pairs)
    assert timings["featurize_seconds"] >= 0.0
    assert timings["forward_seconds"] > 0.0


def test_batcher_close_rejects_new_work(trained_router, labeled_workload):
    batcher = MicroBatcher(trained_router)
    batcher.close()
    try:
        batcher.submit(labeled_workload[0].execution.plan_pair)
    except RuntimeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("submit after close must raise")


# ---------------------------------------------------------------- metrics
def test_counter_and_registry():
    registry = MetricsRegistry()
    registry.counter("requests").increment()
    registry.counter("requests").increment(4)
    assert registry.counter("requests").value == 5
    assert registry.snapshot()["requests"] == 5


def test_histogram_percentiles():
    histogram = LatencyHistogram()
    for value in range(1, 101):  # 0.01 .. 1.00
        histogram.record(value / 100.0)
    summary = histogram.summary()
    assert summary["count"] == 100
    assert summary["min"] == 0.01
    assert summary["p50"] == 0.50
    assert summary["p95"] == 0.95
    assert summary["p99"] == 0.99
    assert summary["max"] == 1.0
    assert abs(summary["mean"] - 0.505) < 1e-9
    assert abs(summary["sum"] - 50.5) < 1e-9


def test_histogram_bounded_memory():
    histogram = LatencyHistogram()
    total = MAX_SAMPLES + 1000
    for value in range(total):
        histogram.record(float(value))
    assert histogram.count == total
    summary = histogram.summary()
    assert summary["count"] == total
    assert summary["max"] == total - 1.0
    # Retained window is the most recent overwrites; percentile still sane.
    assert 0.0 <= summary["p50"] <= total - 1.0


def test_empty_histogram_summary():
    assert LatencyHistogram().summary() == {
        "count": 0,
        "sum": 0.0,
        "mean": 0.0,
        "min": 0.0,
        "p50": 0.0,
        "p95": 0.0,
        "p99": 0.0,
        "max": 0.0,
    }


def test_histogram_min_survives_ring_overwrite():
    """``min`` is all-time, not window-bound: the smallest sample must
    still be reported after the ring has overwritten it."""
    histogram = LatencyHistogram()
    histogram.record(0.001)
    for value in range(10, 10 + MAX_SAMPLES):
        histogram.record(float(value))
    summary = histogram.summary()
    assert summary["min"] == 0.001
    assert summary["max"] == 9.0 + MAX_SAMPLES


def test_snapshot_under_concurrent_writers():
    """Satellite: snapshot() racing 16 writer threads must never raise or
    return malformed summaries (the sorted-cache is invalidated by record
    and rebuilt by summary under the same per-histogram lock)."""
    registry = MetricsRegistry()
    names = [f"stage.s{i}" for i in range(4)]
    stop = threading.Event()
    errors: list[BaseException] = []

    def writer(seed: int) -> None:
        value = float(seed + 1)
        try:
            while not stop.is_set():
                registry.histogram(names[seed % len(names)]).record(value)
                registry.counter("writes").increment()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(16)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(200):
            snapshot = registry.snapshot()
            for name in names:
                summary = snapshot.get(name)
                if summary is None:  # histogram not created yet
                    continue
                assert summary["count"] >= 1
                assert summary["min"] <= summary["p50"] <= summary["max"]
                assert summary["sum"] >= summary["max"]
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
    assert not errors
    assert registry.snapshot()["writes"] > 0
