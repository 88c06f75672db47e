"""Tests for the micro-batcher and the metrics registry."""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.service.batching import MicroBatcher
from repro.obs.metrics import BUCKET_BOUNDS, LatencyHistogram, MetricsRegistry


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
    """Quantiles are the upper bound of the nearest-rank sample's bucket,
    clamped to the exact min and max; count, sum and mean are exact."""
    histogram = LatencyHistogram()
    for value in range(1, 101):  # 0.01 .. 1.00
        histogram.record(value / 100.0)
    summary = histogram.summary()
    assert summary["count"] == 100
    assert summary["min"] == 0.01
    assert summary["p50"] == 0.50  # 2 ** -1 is a bucket bound
    assert summary["p95"] == 1.0  # 0.95 lies in (2 ** -0.25, 1.0], clamped to max
    assert summary["p99"] == 1.0
    assert summary["max"] == 1.0
    assert abs(summary["mean"] - 0.505) < 1e-9
    assert abs(summary["sum"] - 50.5) < 1e-9
    assert summary["buckets"][-1] == 100
    assert summary["buckets"][BUCKET_BOUNDS.index(0.5)] == 50  # "le" semantics


def test_bucket_bounds_put_powers_of_two_on_edges():
    assert len(BUCKET_BOUNDS) == 113
    assert BUCKET_BOUNDS[0] == 2.0 ** -20 and BUCKET_BOUNDS[-1] == 256.0
    assert all(size in BUCKET_BOUNDS for size in (1.0, 2.0, 4.0, 8.0, 16.0))
    assert all(abs(b / a - 2 ** 0.25) < 1e-12 for a, b in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]))


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
        "buckets": (0,) * (len(BUCKET_BOUNDS) + 1),
    }


def test_histogram_quantiles_clamp_to_exact_min_and_max():
    """A histogram of one repeated value reports that value, not its
    bucket's bound; a sample past the last bound lands in overflow."""
    histogram = LatencyHistogram()
    for _ in range(10):
        histogram.record(0.3)
    assert {histogram.summary()[key] for key in ("min", "p50", "p95", "p99", "max")} == {0.3}
    histogram.record(1000.0)
    summary = histogram.summary()
    assert summary["max"] == summary["p99"] == 1000.0
    assert summary["buckets"][-2:] == (10, 11)


def test_histogram_bounded_memory():
    """Memory is one fixed bucket array per writing thread, whatever the
    traffic; count and max stay exact."""
    histogram = LatencyHistogram()
    total = 20_000
    for value in range(total):
        histogram.record(float(value))
    summary = histogram.summary()
    assert summary["count"] == total
    assert summary["max"] == total - 1.0
    assert 0.0 <= summary["p50"] <= total - 1.0
    (cell,) = histogram._cells
    assert len(cell.counts) == len(summary["buckets"]) == len(BUCKET_BOUNDS) + 1


def _run_threads(count: int, target, *args) -> None:
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target, args=(i, *args)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_sharded_metrics_are_exact_after_their_threads_exit():
    """16 threads × 10,000 lock-free writes each: every write is counted,
    and the cells of threads that have exited still count."""
    registry = MetricsRegistry()
    counter, histogram = registry.counter("writes"), registry.histogram("latency")

    def writer(index: int) -> None:
        for _ in range(10_000):
            counter.increment()
            histogram.record(float(index + 1))

    _run_threads(16, writer)
    summary = registry.snapshot()["latency"]
    assert counter.value == 160_000 and summary["count"] == 160_000
    assert summary["sum"] == 10_000 * sum(range(1, 17))
    assert (summary["min"], summary["max"]) == (1.0, 16.0)
    assert summary["buckets"][BUCKET_BOUNDS.index(4.0)] == 40_000


def test_snapshot_under_concurrent_writers():
    """snapshot() racing 16 writer threads never raises, returns ordered
    quantiles inside [min, max], and never goes back between snapshots."""
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
    previous: dict[str, object] = {}
    try:
        for _ in range(200):
            snapshot = registry.snapshot()
            for name in names:
                summary = snapshot.get(name)
                if summary is None:  # histogram not created yet
                    continue
                assert summary["count"] >= 1
                assert summary["min"] <= summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]
                if name in previous:
                    before = previous[name]
                    assert summary["count"] >= before["count"] and summary["sum"] >= before["sum"]
                    assert all(now >= then for now, then in zip(summary["buckets"], before["buckets"]))
            assert snapshot.get("writes", 0) >= previous.get("writes", 0)
            previous = snapshot
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert registry.snapshot()["writes"] > 0
