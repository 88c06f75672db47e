"""The L1 hit path: answers from admission come back in a future born
finished, every counter reads as before, and a traced hit keeps its spans."""

from __future__ import annotations

import contextlib
import logging
import re
import threading
from concurrent.futures import (
    ALL_COMPLETED,
    FIRST_COMPLETED,
    FIRST_EXCEPTION,
    Future,
    as_completed,
    wait,
)

import pytest

from repro.obs.promtext import render_prometheus
from repro.obs.sampling import Sampler
from repro.obs.tracing import traced
from repro.service import ExplainResult, ExplanationService, ServiceConfig, TenantConfig, server

SQL = "SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'machinery';"


@pytest.fixture()
def shared_service(system, trained_router, knowledge_base, simulated_llm):
    service = ExplanationService(
        system, trained_router, knowledge_base, simulated_llm, config=ServiceConfig(max_workers=2)
    )
    yield service
    service.shutdown()


@pytest.fixture()
def refusals(system, trained_router, knowledge_base, simulated_llm):
    """Finished futures: a shut-down service refuses at admission."""
    service = ExplanationService(system, trained_router, knowledge_base, simulated_llm)
    service.shutdown()
    return lambda count: [service.submit(SQL) for _ in range(count)]


# ------------------------------------------------------- the finished future
def test_l1_hit_future_is_finished_and_takes_no_lock(shared_service):
    assert shared_service.explain(SQL).ok
    future = shared_service.submit(SQL)
    assert isinstance(future, Future)
    seen = []
    future.add_done_callback(seen.append)
    assert seen == [future]
    assert future.done() and not future.running() and not future.cancelled()
    assert future.cancel() is False and not future.cancelled()
    assert future.exception() is None and future.exception(timeout=0) is None
    assert future.result().cache_hit and future.result(timeout=0) is future.result()
    # None of the above built the lock the stdlib future would have taken.
    assert "_condition" not in vars(future)


def test_raising_callback_is_logged_and_later_callbacks_still_run(refusals, caplog):
    (future,) = refusals(1)

    def boom(_future: Future) -> None:
        raise RuntimeError("callback failed")

    seen = []
    with caplog.at_level(logging.ERROR, logger="concurrent.futures"):
        future.add_done_callback(boom)
        future.add_done_callback(seen.append)
    assert seen == [future]
    assert "exception calling callback" in caplog.text
    assert "callback failed" in caplog.text


def test_wait_returns_at_once_on_finished_futures(refusals):
    finished = refusals(3)
    pending = [Future(), Future()]
    for return_when in (FIRST_COMPLETED, FIRST_EXCEPTION):
        done, not_done = wait(finished + pending, timeout=0, return_when=return_when)
        assert done == set(finished) and not_done == set(pending)
    done, not_done = wait(finished, return_when=ALL_COMPLETED)
    assert done == set(finished) and not not_done
    assert list(as_completed(finished, timeout=0)) and all(f._waiters == [] for f in finished)


def test_wait_and_as_completed_mix_finished_and_pending_from_two_threads(refusals):
    finished = refusals(6)
    # Each future has its own condition: one shared lock would be taken
    # in opposite orders by the two waiters below.
    assert len({id(future._condition) for future in finished}) == len(finished)
    for _ in range(20):
        pending = [Future() for _ in range(4)]
        started = threading.Barrier(3)
        outcomes: dict[str, object] = {}

        def wait_all(futures=finished + pending[:2]) -> None:
            started.wait()
            outcomes["wait"] = wait(futures, timeout=10.0, return_when=ALL_COMPLETED)

        def drain(futures=finished[::-1] + pending[2:]) -> None:
            started.wait()
            outcomes["as_completed"] = list(as_completed(futures, timeout=10.0))

        threads = [threading.Thread(target=wait_all), threading.Thread(target=drain)]
        for thread in threads:
            thread.start()
        started.wait()
        for index, future in enumerate(pending):
            future.set_result(index)
        for thread in threads:
            thread.join(10.0)
        done, not_done = outcomes["wait"]
        assert done == set(finished + pending[:2]) and not not_done
        yielded = outcomes["as_completed"]
        assert set(yielded) == set(finished + pending[2:]) and len(yielded) == 8
        assert all(future._waiters == [] for future in finished)


# --------------------------------------------------------------- accounting
EXPECTED_COUNTS = {
    "batcher.batch_size": 5,
    "batcher.batches": 5,
    "batcher.requests": 5,
    "in_flight": 0,
    "latency.cold_seconds": 4,
    "latency.queue_seconds": 7,
    "latency.warm_seconds": 4,
    "max_in_flight": 2,
    "requests.failed": 1,
    "requests.ok": 8,
    "requests.rejected.invalid_sql": 1,
    "requests.rejected.queue_full": 1,
    "requests.rejected.quota_exceeded": 1,
    "requests.rejected.service_closed": 1,
    "requests.submitted": 13,
    "requests.tenant.default": 11,
    "requests.tenant.tiny": 2,
}

#: ``(status, cache_hit, error code)`` of each request of the fixed sequence.
EXPECTED_OUTCOMES = [
    ("ok", False, None),
    ("ok", True, None),
    ("ok", True, None),
    ("ok", False, None),
    ("ok", False, None),
    ("rejected", False, "quota_exceeded"),
    ("ok", False, None),
    ("ok", True, None),  # the twin, answered from L1 by the worker
    ("rejected", False, "queue_full"),
    ("ok", True, None),
    ("failed", False, "invalid_sql"),
    ("failed", False, "internal_error"),
    ("rejected", False, "service_closed"),
]


def _fixed_sequence(service_stack) -> tuple[list[ExplainResult], dict[str, object]]:
    """Hits (one found by the worker, behind its twin), misses, bad SQL,
    an internal fault, and one admission refusal of each code."""
    system, router, kb, llm, sqls, _labeled = service_stack
    config = ServiceConfig(
        max_workers=1,
        max_in_flight=2,
        tenants=(TenantConfig(name="tiny", requests_per_second=0.001, burst=1.0),),
    )
    service = ExplanationService(system, router, kb, llm, config=config)
    results = [service.explain(sqls[0]) for _ in range(3)]
    results += [service.explain(sqls[1]), service.explain(sqls[1], tenant="tiny")]
    results.append(service.explain(sqls[1], tenant="tiny"))
    gate = threading.Event()
    run_both = system.run_both
    system.run_both = lambda sql: gate.wait(10.0) and run_both(sql)
    try:
        # The first holds the only worker, its twin waits behind it in the
        # second in-flight slot, and the third finds no slot left.
        futures = [service.submit(sqls[2]), service.submit(sqls[2]), service.submit(sqls[3])]
        gate.set()
        results += [future.result() for future in futures]
    finally:
        gate.set()
        del system.run_both
    results.append(service.explain(sqls[2]))
    results.append(service.explain("SELECT FROM WHERE;"))

    def fault(*_args, **_kwargs):
        raise RuntimeError("injected fault")

    service.explainer.generate_stage = fault
    results.append(service.explain(sqls[4]))
    service.shutdown()
    results.append(service.explain(sqls[0]))
    return results, service.metrics_snapshot()


def _counts(snapshot: dict[str, object]) -> dict[str, object]:
    return {
        name: value["count"] if isinstance(value, dict) else value
        for name, value in snapshot.items()
        if name not in ("cache", "batching")
    }


#: Summary samples of a ``*_seconds`` histogram are timings, not counts.
_TIMING_SAMPLE = re.compile(r"^(repro_\w+_seconds(?:\{[^}]*\}|_sum|_min|_max|_mean)) \S+$", re.MULTILINE)


def _masked_exposition(snapshot: dict[str, object]) -> str:
    return _TIMING_SAMPLE.sub(r"\1 <t>", render_prometheus(snapshot))


#: ``list(metrics_snapshot())`` after the fixed sequence: the derived
#: ``requests.submitted`` and ``requests.ok`` keep the first two places.
GOLDEN_KEYS = [
    "requests.submitted",
    "requests.ok",
    "requests.tenant.default",
    "batcher.batches",
    "batcher.requests",
    "requests.tenant.tiny",
    "requests.rejected.quota_exceeded",
    "requests.rejected.queue_full",
    "requests.rejected.invalid_sql",
    "requests.failed",
    "requests.rejected.service_closed",
    "latency.warm_seconds",
    "latency.queue_seconds",
    "batcher.batch_size",
    "latency.cold_seconds",
    "cache",
    "batching",
    "in_flight",
    "max_in_flight",
]

#: The sequence's exposition as the service rendered it while every L1
#: re-check on a worker still counted a hit or a miss, timings masked.
_RECHECK_COUNTED_EXPOSITION = """\
# TYPE repro_batcher_batch_size summary
repro_batcher_batch_size{quantile="0.5"} 1.0
repro_batcher_batch_size{quantile="0.95"} 1.0
repro_batcher_batch_size{quantile="0.99"} 1.0
repro_batcher_batch_size_count 5
repro_batcher_batch_size_sum 5.0
# TYPE repro_batcher_batch_size_min gauge
repro_batcher_batch_size_min 1.0
# TYPE repro_batcher_batch_size_max gauge
repro_batcher_batch_size_max 1.0
# TYPE repro_batcher_batch_size_mean gauge
repro_batcher_batch_size_mean 1.0
# TYPE repro_batcher_batches counter
repro_batcher_batches 5
# TYPE repro_batcher_requests counter
repro_batcher_requests 5
# TYPE repro_batching_batches counter
repro_batching_batches 5
# TYPE repro_batching_coalesced_requests counter
repro_batching_coalesced_requests 0
# TYPE repro_batching_mean_batch_size gauge
repro_batching_mean_batch_size 1.0
# TYPE repro_batching_requests counter
repro_batching_requests 5
# TYPE repro_cache_explanations_capacity counter
repro_cache_explanations_capacity 512
# TYPE repro_cache_explanations_evictions counter
repro_cache_explanations_evictions 0
# TYPE repro_cache_explanations_hit_rate gauge
repro_cache_explanations_hit_rate 0.25
# TYPE repro_cache_explanations_hits counter
repro_cache_explanations_hits 4
# TYPE repro_cache_explanations_invalidations counter
repro_cache_explanations_invalidations 0
# TYPE repro_cache_explanations_misses counter
repro_cache_explanations_misses 12
# TYPE repro_cache_explanations_size counter
repro_cache_explanations_size 3
# TYPE repro_cache_explanations_tiny_capacity counter
repro_cache_explanations_tiny_capacity 512
# TYPE repro_cache_explanations_tiny_evictions counter
repro_cache_explanations_tiny_evictions 0
# TYPE repro_cache_explanations_tiny_hit_rate gauge
repro_cache_explanations_tiny_hit_rate 0.0
# TYPE repro_cache_explanations_tiny_hits counter
repro_cache_explanations_tiny_hits 0
# TYPE repro_cache_explanations_tiny_invalidations counter
repro_cache_explanations_tiny_invalidations 0
# TYPE repro_cache_explanations_tiny_misses counter
repro_cache_explanations_tiny_misses 2
# TYPE repro_cache_explanations_tiny_size counter
repro_cache_explanations_tiny_size 1
# TYPE repro_cache_plans_capacity counter
repro_cache_plans_capacity 2048
# TYPE repro_cache_plans_evictions counter
repro_cache_plans_evictions 0
# TYPE repro_cache_plans_hit_rate gauge
repro_cache_plans_hit_rate 0.0
# TYPE repro_cache_plans_hits counter
repro_cache_plans_hits 0
# TYPE repro_cache_plans_invalidations counter
repro_cache_plans_invalidations 0
# TYPE repro_cache_plans_misses counter
repro_cache_plans_misses 5
# TYPE repro_cache_plans_size counter
repro_cache_plans_size 4
# TYPE repro_cache_plans_tiny_capacity counter
repro_cache_plans_tiny_capacity 2048
# TYPE repro_cache_plans_tiny_evictions counter
repro_cache_plans_tiny_evictions 0
# TYPE repro_cache_plans_tiny_hit_rate gauge
repro_cache_plans_tiny_hit_rate 0.0
# TYPE repro_cache_plans_tiny_hits counter
repro_cache_plans_tiny_hits 0
# TYPE repro_cache_plans_tiny_invalidations counter
repro_cache_plans_tiny_invalidations 0
# TYPE repro_cache_plans_tiny_misses counter
repro_cache_plans_tiny_misses 1
# TYPE repro_cache_plans_tiny_size counter
repro_cache_plans_tiny_size 1
# TYPE repro_in_flight counter
repro_in_flight 0
# TYPE repro_latency_cold_seconds summary
repro_latency_cold_seconds{quantile="0.5"} <t>
repro_latency_cold_seconds{quantile="0.95"} <t>
repro_latency_cold_seconds{quantile="0.99"} <t>
repro_latency_cold_seconds_count 4
repro_latency_cold_seconds_sum <t>
# TYPE repro_latency_cold_seconds_min gauge
repro_latency_cold_seconds_min <t>
# TYPE repro_latency_cold_seconds_max gauge
repro_latency_cold_seconds_max <t>
# TYPE repro_latency_cold_seconds_mean gauge
repro_latency_cold_seconds_mean <t>
# TYPE repro_latency_queue_seconds summary
repro_latency_queue_seconds{quantile="0.5"} <t>
repro_latency_queue_seconds{quantile="0.95"} <t>
repro_latency_queue_seconds{quantile="0.99"} <t>
repro_latency_queue_seconds_count 7
repro_latency_queue_seconds_sum <t>
# TYPE repro_latency_queue_seconds_min gauge
repro_latency_queue_seconds_min <t>
# TYPE repro_latency_queue_seconds_max gauge
repro_latency_queue_seconds_max <t>
# TYPE repro_latency_queue_seconds_mean gauge
repro_latency_queue_seconds_mean <t>
# TYPE repro_latency_warm_seconds summary
repro_latency_warm_seconds{quantile="0.5"} <t>
repro_latency_warm_seconds{quantile="0.95"} <t>
repro_latency_warm_seconds{quantile="0.99"} <t>
repro_latency_warm_seconds_count 4
repro_latency_warm_seconds_sum <t>
# TYPE repro_latency_warm_seconds_min gauge
repro_latency_warm_seconds_min <t>
# TYPE repro_latency_warm_seconds_max gauge
repro_latency_warm_seconds_max <t>
# TYPE repro_latency_warm_seconds_mean gauge
repro_latency_warm_seconds_mean <t>
# TYPE repro_max_in_flight counter
repro_max_in_flight 2
# TYPE repro_requests_failed counter
repro_requests_failed 1
# TYPE repro_requests_ok counter
repro_requests_ok 8
# TYPE repro_requests_rejected_invalid_sql counter
repro_requests_rejected_invalid_sql 1
# TYPE repro_requests_rejected_queue_full counter
repro_requests_rejected_queue_full 1
# TYPE repro_requests_rejected_quota_exceeded counter
repro_requests_rejected_quota_exceeded 1
# TYPE repro_requests_rejected_service_closed counter
repro_requests_rejected_service_closed 1
# TYPE repro_requests_submitted counter
repro_requests_submitted 13
# TYPE repro_requests_tenant_default counter
repro_requests_tenant_default 11
# TYPE repro_requests_tenant_tiny counter
repro_requests_tenant_tiny 2
"""

#: The worker's re-check of a queued request counts neither a hit nor a
#: miss: 5 re-check misses and the twin's hit leave the default tenant's
#: L1, and the tiny tenant's cold request counts its one admission miss.
GOLDEN_EXPOSITION = (
    _RECHECK_COUNTED_EXPOSITION
    .replace("repro_cache_explanations_hit_rate 0.25\n", "repro_cache_explanations_hit_rate 0.3\n")
    .replace("repro_cache_explanations_hits 4\n", "repro_cache_explanations_hits 3\n")
    .replace("repro_cache_explanations_misses 12\n", "repro_cache_explanations_misses 7\n")
    .replace("repro_cache_explanations_tiny_misses 2\n", "repro_cache_explanations_tiny_misses 1\n")
)


@pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
def test_counted_values_are_unchanged_by_the_hit_path(service_stack, tracing):
    with traced() if tracing else contextlib.nullcontext() as tracer:
        results, snapshot = _fixed_sequence(service_stack)
    outcomes = [
        (result.status.value, result.cache_hit, result.error and result.error.code.value)
        for result in results
    ]
    assert outcomes == EXPECTED_OUTCOMES
    assert _counts(snapshot) == EXPECTED_COUNTS
    assert list(snapshot) == GOLDEN_KEYS
    assert _masked_exposition(snapshot) == GOLDEN_EXPOSITION
    ids = [result.request_id for result in results]
    assert all(request_id.startswith("req-") for request_id in ids)
    assert ids == sorted(set(ids)), "request ids are unique and increase in submission order"
    if tracing:
        roots = {trace.root.attributes["request_id"]: trace.root for trace in tracer.store.traces()}
        assert sorted(roots) == ids
        for result in results:
            if result.cache_hit:
                assert roots[result.request_id].attributes["cache"] == "l1_hit"
        # The twin's re-check is not counted in the cache, but it is traced.
        twin = next(trace for trace in tracer.store.traces() if trace.root.attributes["request_id"] == ids[7])
        assert [span.attributes["hit"] for span in twin.find("cache.l1_lookup")] == [False, True]


def test_l1_counts_each_lookup_made_at_admission_once(service_stack):
    """Cold requests re-check L1 on the worker; that look is not counted."""
    system, router, kb, llm, sqls, _labeled = service_stack
    tiny = TenantConfig(name="tiny", requests_per_second=0.001, burst=1.0)
    service = ExplanationService(system, router, kb, llm, config=ServiceConfig(tenants=(tiny,)))
    try:
        results = [service.explain(sql) for sql in sqls[:5]]
        results += [service.explain(sqls[0]), service.explain(sqls[3])]
        results += [service.explain(sqls[0], tenant="tiny") for _ in range(2)]
    finally:
        service.shutdown()
    assert [result.cache_hit for result in results] == [False] * 5 + [True, True, False, False]
    assert results[-1].error.code.value == "quota_exceeded"  # refused before the L1 lookup
    snapshot = service.metrics_snapshot()
    default, tiny_l1 = snapshot["cache"]["explanations"], snapshot["cache"]["explanations.tiny"]
    assert (default["hits"], default["misses"], round(default["hit_rate"], 3)) == (2, 5, 0.286)
    assert (tiny_l1["hits"], tiny_l1["misses"]) == (0, 1)
    reached_l1 = snapshot["requests.submitted"] - snapshot["requests.rejected.quota_exceeded"]
    assert default["hits"] + default["misses"] + tiny_l1["hits"] + tiny_l1["misses"] == reached_l1


def test_fresh_service_snapshot_has_no_lazy_counters(shared_service):
    assert sorted(shared_service.metrics_snapshot()) == [
        "batching", "cache", "in_flight", "latency.warm_seconds",
        "max_in_flight", "requests.ok", "requests.submitted",
    ]


# ------------------------------------------------------------------ costs
class _CountingLock:
    """A ``threading.Lock`` that counts the acquisitions made on one thread."""

    real = threading.Lock
    thread: int | None = None
    acquired = 0

    def __init__(self) -> None:
        self._lock = self.real()

    def acquire(self, *args, **kwargs) -> bool:
        if threading.get_ident() == _CountingLock.thread:
            _CountingLock.acquired += 1
        return self._lock.acquire(*args, **kwargs)

    def release(self) -> None:
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    __enter__ = acquire

    def __exit__(self, *exc_info: object) -> None:
        self._lock.release()


@pytest.mark.parametrize("mode", ["untraced", "traced", "sampled"])
def test_hit_builds_no_request_and_untraced_takes_one_lock(
    system, trained_router, knowledge_base, simulated_llm, monkeypatch, mode
):
    built = []

    class CountedRequest(server.ExplainRequest):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            built.append(self.request_id)

    monkeypatch.setattr(server, "ExplainRequest", CountedRequest)
    monkeypatch.setattr(threading, "Lock", _CountingLock)
    monkeypatch.setattr(_CountingLock, "acquired", 0)
    sampler = Sampler(head_probability=0.5, slow_threshold_seconds=None)
    tracing = {"untraced": contextlib.nullcontext(), "traced": traced(), "sampled": traced(sampler=sampler)}
    service = ExplanationService(system, trained_router, knowledge_base, simulated_llm)
    try:
        with tracing[mode]:
            assert not service.explain(SQL).cache_hit
            assert len(built) == 1  # the miss
            # The thread's first hit registers its cells in the metrics it writes.
            results = [service.explain(SQL)]
            monkeypatch.setattr(_CountingLock, "thread", threading.get_ident())
            results += [service.explain(SQL) for _ in range(8)]
            monkeypatch.setattr(_CountingLock, "thread", None)
    finally:
        service.shutdown()
    assert all(result.cache_hit for result in results)
    assert len(built) == 1, "a hit built an ExplainRequest"
    # The L1 get; metric writes take none.  A traced hit adds the tracer lock
    # for each of its two spans and the trace store's.
    locks_per_hit = {"untraced": 1, "traced": 4}
    if mode in locks_per_hit:
        assert _CountingLock.acquired == locks_per_hit[mode] * 8


# ------------------------------------------------------------------ tracing
def test_traced_l1_hit_keeps_root_and_lookup_spans(shared_service):
    with traced() as tracer:
        assert shared_service.explain(SQL).ok
        warm = shared_service.explain(SQL, tenant="default")
    assert warm.cache_hit
    trace = tracer.store.recent(1)[0]
    assert sorted(trace.span_names()) == ["cache.l1_lookup", "service.explain"]
    (lookup,) = trace.find("cache.l1_lookup")
    assert lookup.parent_id == trace.root.span_id
    assert lookup.attributes == {"hit": True}
    assert trace.root.attributes == {
        "request_id": warm.request_id,
        "tenant": "default",
        "status": "ok",
        "cache": "l1_hit",
    }
