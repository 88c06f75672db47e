"""The L1 hit path: answers from admission come back in a future born
finished, every counter reads as before, and a traced hit keeps its spans."""

from __future__ import annotations

import logging
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

from repro.obs.tracing import traced
from repro.service import ExplanationService, ServiceConfig, ServiceErrorCode, TenantConfig

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
    "batcher.batch_size": 4,
    "batcher.batches": 4,
    "batcher.requests": 4,
    "in_flight": 0,
    "latency.cold_seconds": 4,
    "latency.queue_seconds": 4,
    "latency.warm_seconds": 3,
    "max_in_flight": 1,
    "requests.ok": 7,
    "requests.rejected.queue_full": 1,
    "requests.rejected.quota_exceeded": 1,
    "requests.rejected.service_closed": 1,
    "requests.submitted": 10,
    "requests.tenant.default": 8,
    "requests.tenant.tiny": 2,
}


def _fixed_sequence(service_stack) -> tuple[list[object], dict[str, object]]:
    """Hits, misses, and one admission refusal of each code."""
    system, router, kb, llm, sqls, _labeled = service_stack
    config = ServiceConfig(
        max_workers=1,
        max_in_flight=1,
        tenants=(TenantConfig(name="tiny", requests_per_second=0.001, burst=1.0),),
    )
    service = ExplanationService(system, router, kb, llm, config=config)
    seen: list[object] = [service.explain(sqls[0]).ok]
    seen += [service.explain(sqls[0]).cache_hit, service.explain(sqls[0]).cache_hit]
    seen += [service.explain(sqls[1]).ok, service.explain(sqls[1], tenant="tiny").ok]
    seen.append(service.explain(sqls[1], tenant="tiny").error.code)
    gate = threading.Event()
    run_both = system.run_both
    system.run_both = lambda sql: gate.wait(10.0) and run_both(sql)
    try:
        blocked = service.submit(sqls[2])  # holds the only in-flight slot
        seen.append(service.explain(sqls[3]).error.code)
        gate.set()
        seen.append(blocked.result().ok)
    finally:
        gate.set()
        del system.run_both
    seen.append(service.explain(sqls[2]).cache_hit)
    service.shutdown()
    seen.append(service.explain(sqls[0]).error.code)
    counts = {
        name: value["count"] if isinstance(value, dict) else value
        for name, value in service.metrics_snapshot().items()
        if name not in ("cache", "batching")
    }
    return seen, counts


@pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
def test_counted_values_are_unchanged_by_the_hit_path(service_stack, tracing):
    if tracing:
        with traced():
            seen, counts = _fixed_sequence(service_stack)
    else:
        seen, counts = _fixed_sequence(service_stack)
    assert seen == [
        True, True, True, True, True,
        ServiceErrorCode.QUOTA_EXCEEDED, ServiceErrorCode.QUEUE_FULL,
        True, True, ServiceErrorCode.SERVICE_CLOSED,
    ]
    assert counts == EXPECTED_COUNTS


def test_fresh_service_snapshot_has_no_lazy_counters(shared_service):
    assert sorted(shared_service.metrics_snapshot()) == [
        "batching", "cache", "in_flight", "latency.warm_seconds",
        "max_in_flight", "requests.ok", "requests.submitted",
    ]


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
