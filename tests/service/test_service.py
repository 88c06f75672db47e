"""End-to-end tests for ExplanationService: concurrency, caching, shedding,
deadlines, invalidation, and telemetry (the PR's acceptance criteria)."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.htap.sql.parser import MAX_CONNECTIVES
from repro.obs.slo import default_service_objectives
from repro.service import (
    ExplanationService,
    RequestStatus,
    ServiceConfig,
    ServiceErrorCode,
    TenantConfig,
)


# ------------------------------------------------------------- happy paths
def test_cold_request_produces_explanation(service, service_stack):
    _system, _router, _kb, _llm, sqls, _labeled = service_stack
    result = service.explain(sqls[0])
    assert result.ok
    assert result.status is RequestStatus.OK
    assert not result.cache_hit
    assert result.explanation is not None and result.explanation.text
    assert result.explanation.retrieved  # grounded in the knowledge base
    assert result.request_id.startswith("req-")


def test_warm_request_is_cache_hit_and_10x_faster(service, service_stack):
    _system, _router, _kb, _llm, sqls, _labeled = service_stack
    start = time.perf_counter()
    cold = service.explain(sqls[0])
    cold_seconds = time.perf_counter() - start
    assert cold.ok and not cold.cache_hit

    warm_seconds = []
    for _ in range(5):
        start = time.perf_counter()
        warm = service.explain(sqls[0])
        warm_seconds.append(time.perf_counter() - start)
        assert warm.ok and warm.cache_hit
        assert warm.explanation.text == cold.explanation.text
    # Acceptance criterion: warm-cache requests >= 10x faster end-to-end.
    assert cold_seconds / min(warm_seconds) >= 10.0


def test_normalized_sql_variants_share_one_cache_line(service, service_stack):
    _system, _router, _kb, _llm, sqls, _labeled = service_stack
    sql = sqls[0]
    service.explain(sql)
    variant = "  " + sql.rstrip(";").upper().replace(" ", "  ") + " ;"
    # Upper-casing keywords/identifiers and reflowing whitespace must hit;
    # string literals are preserved by the simulator's semantics, so keep them.
    if "'" not in sql:
        result = service.explain(variant)
        assert result.cache_hit


def test_sql_is_normalized_once_per_request(service, service_stack, monkeypatch):
    import repro.service.fingerprint as fingerprint

    _system, _router, _kb, _llm, sqls, _labeled = service_stack
    fingerprint.request_keys.cache_clear()
    calls: list[str] = []
    real = fingerprint.normalize_sql

    def counting(sql: str) -> str:
        calls.append(sql)
        return real(sql)

    monkeypatch.setattr(fingerprint, "normalize_sql", counting)
    miss = service.explain(sqls[0])
    assert miss.ok and not miss.cache_hit
    assert calls == [sqls[0]]
    # An exact repeat finds its keys in the memo: no normalization at all.
    hit = service.explain(sqls[0])
    assert hit.ok and hit.cache_hit
    assert calls == [sqls[0]]
    # Another spelling misses the memo, normalizes once, and still hits L1.
    parts = sqls[0].split("'")
    parts[::2] = [part.upper().replace(" ", "\n  ") for part in parts[::2]]
    respelled = "  " + "'".join(parts) + " ;"
    assert respelled != sqls[0] and real(respelled) == real(sqls[0])
    variant = service.explain(respelled)
    assert variant.ok and variant.cache_hit
    assert calls == [sqls[0], respelled]


def test_32_concurrent_requests_zero_errors(service, service_stack):
    _system, _router, _kb, _llm, sqls, _labeled = service_stack
    workload = [sqls[i % len(sqls)] for i in range(64)]  # repeating workload
    with ThreadPoolExecutor(max_workers=32) as pool:
        results = list(pool.map(service.explain, workload))
        # Second wave over the same workload: now fully warm.
        second_wave = list(pool.map(service.explain, workload))
    assert len(results) == 64
    assert all(result.ok for result in results), [
        result.error for result in results if not result.ok
    ]
    assert all(result.ok and result.cache_hit for result in second_wave)
    # Some of the first wave's repeats are served from cache too (twins that
    # raced the same cold SQL may each compute, so only a weak bound holds).
    assert any(result.cache_hit for result in results)
    snapshot = service.metrics_snapshot()
    assert snapshot["requests.ok"] == 128
    assert snapshot["requests.submitted"] == 128


def test_plan_cache_skips_replanning_after_kb_write(service, service_stack):
    _system, _router, kb, _llm, sqls, labeled = service_stack
    first = service.explain(sqls[1])
    assert first.ok and not first.plan_cache_hit
    # A KB write evicts explanations but not plans …
    kb.correct(labeled[0].query_id, "corrected text")
    second = service.explain(sqls[1])
    assert second.ok and not second.cache_hit
    assert second.plan_cache_hit  # … so the replay skips parse/optimize/encode.


# ---------------------------------------------------------------- shedding
def test_queue_full_returns_typed_rejection(service_stack):
    system, router, kb, llm, sqls, _labeled = service_stack
    with ExplanationService(
        system, router, kb, llm, config=ServiceConfig(max_workers=1, max_in_flight=1)
    ) as service:
        futures = [service.submit(sqls[i % len(sqls)]) for i in range(12)]
        results = [future.result() for future in futures]
    shed = [result for result in results if not result.ok]
    served = [result for result in results if result.ok]
    assert served, "at least the first admitted request must be served"
    assert shed, "with a 1-deep budget, most of a 12-burst must be shed"
    for result in shed:
        assert result.status is RequestStatus.REJECTED
        assert result.error is not None
        assert result.error.code is ServiceErrorCode.QUEUE_FULL
        assert result.error.retryable


def test_shutdown_rejects_new_requests(service_stack):
    system, router, kb, llm, sqls, _labeled = service_stack
    service = ExplanationService(system, router, kb, llm)
    service.shutdown()
    result = service.explain(sqls[0])
    assert result.status is RequestStatus.REJECTED
    assert result.error.code is ServiceErrorCode.SERVICE_CLOSED
    assert not result.error.retryable


def test_shutdown_does_not_wait_for_a_scheduler_poll(service_stack):
    system, router, kb, llm, sqls, _labeled = service_stack
    service = ExplanationService(system, router, kb, llm, config=ServiceConfig(max_workers=2))
    assert service.explain(sqls[0]).ok
    start = time.perf_counter()
    service.shutdown()
    assert time.perf_counter() - start < 0.020
    assert not service.batcher.alive


def test_each_rejection_counted_once_and_only_service_caused_ones_burn(service_stack):
    system, router, kb, llm, sqls, _labeled = service_stack
    config = ServiceConfig(
        max_workers=1,
        max_in_flight=1,
        tenants=(TenantConfig(name="tiny", requests_per_second=0.001, burst=1.0),),
    )
    service = ExplanationService(system, router, kb, llm, config=config)
    gate = threading.Event()
    run_both = system.run_both
    system.run_both = lambda sql: gate.wait(10.0) and run_both(sql)
    try:
        blocked = service.submit(sqls[0])  # holds the only in-flight slot
        shed = service.explain(sqls[1])
        gate.set()
        assert blocked.result().ok
        expired = service.explain(sqls[2], deadline_seconds=0.0)
        assert service.explain(sqls[3], tenant="tiny").ok
        over_quota = service.explain(sqls[3], tenant="tiny")
    finally:
        del system.run_both
        service.shutdown()
    closed = service.explain(sqls[0])
    codes = [r.error.code.value for r in (shed, expired, over_quota, closed)]
    assert codes == ["queue_full", "deadline_exceeded", "quota_exceeded", "service_closed"]

    snapshot = service.metrics_snapshot()
    for code in codes:
        assert snapshot[f"requests.rejected.{code}"] == 1
    for legacy in ("requests.shed", "requests.deadline_exceeded", "requests.rejected_closed"):
        assert legacy not in snapshot
    availability = next(o for o in default_service_objectives() if o.name == "availability")
    assert sum(snapshot.get(key, 0) for key in availability.total) == 6
    # quota_exceeded is the tenant's own declared limit, so it burns nothing.
    assert sum(snapshot.get(key, 0) for key in availability.bad) == 3


def test_invalid_sql_is_one_typed_rejection_that_burns_no_availability(service):
    bad = ["SELECT FROM", "THIS IS NOT SQL", "SELECT c_name FROM customer WHERE c_name = 'open"]
    bad.append("SELECT c_name FROM customer WHERE " + "(" * 200 + "c_custkey = 1" + ")" * 200)
    for sql in bad:
        result = service.explain(sql)
        assert result.status is RequestStatus.FAILED
        assert result.error.code is ServiceErrorCode.INVALID_SQL
        assert not result.error.retryable
    snapshot = service.metrics_snapshot()
    assert snapshot["requests.rejected.invalid_sql"] == len(bad)
    assert "requests.failed" not in snapshot
    rejected = sum(v for k, v in snapshot.items() if k.startswith("requests.rejected."))
    assert snapshot["requests.submitted"] == snapshot["requests.ok"] + rejected
    assert snapshot["in_flight"] == 0
    availability = next(o for o in default_service_objectives() if o.name == "availability")
    assert sum(snapshot.get(key, 0) for key in availability.bad) == 0


def test_internal_fault_is_counted_failed(service, service_stack):
    system, _router, _kb, _llm, sqls, _labeled = service_stack
    system.run_both = lambda sql: 1 / 0
    try:
        result = service.explain(sqls[0])
    finally:
        del system.run_both
    assert result.status is RequestStatus.FAILED
    assert result.error.code is ServiceErrorCode.INTERNAL_ERROR
    snapshot = service.metrics_snapshot()
    assert snapshot["requests.failed"] == 1
    assert not [k for k in snapshot if k.startswith("requests.rejected.")]
    assert snapshot["in_flight"] == 0


def test_shutdown_mid_request_resolves_service_closed_counted_once(service_stack):
    """A cold request still in flight when ``shutdown(wait=False)`` closes
    the batcher is a lifecycle outcome, not an internal error."""
    system, router, kb, llm, sqls, _labeled = service_stack
    service = ExplanationService(system, router, kb, llm, config=ServiceConfig(max_workers=1))
    gate = threading.Event()
    run_both = system.run_both
    system.run_both = lambda sql: gate.wait(10.0) and run_both(sql)
    try:
        pending = service.submit(sqls[0])
        service.shutdown(wait=False)
        gate.set()
        result = pending.result(timeout=10.0)
    finally:
        gate.set()
        del system.run_both
    assert result.status is RequestStatus.FAILED
    assert result.error.code is ServiceErrorCode.SERVICE_CLOSED
    assert not result.error.retryable
    snapshot = service.metrics_snapshot()
    assert snapshot["requests.rejected.service_closed"] == 1
    assert snapshot.get("requests.failed", 0) == 0
    assert snapshot["in_flight"] == 0


# ---------------------------------------------------------------- deadlines
def test_expired_deadline_is_typed_failure(service_stack):
    system, router, kb, llm, sqls, _labeled = service_stack
    with ExplanationService(system, router, kb, llm, config=ServiceConfig(max_workers=2)) as service:
        result = service.explain(sqls[0], deadline_seconds=1e-9)
        assert result.status is RequestStatus.FAILED
        assert result.error.code is ServiceErrorCode.DEADLINE_EXCEEDED
        assert result.error.retryable


def test_stalled_encoder_resolves_at_deadline(service_stack):
    """A cold request whose encode never returns still resolves by its
    deadline, counted once, with its in-flight slot released."""
    system, router, kb, llm, sqls, _labeled = service_stack
    release = threading.Event()
    embed_batch = router.embed_batch
    router.embed_batch = lambda *args, **kwargs: release.wait(30.0) and embed_batch(*args, **kwargs)
    service = ExplanationService(system, router, kb, llm, config=ServiceConfig(max_workers=2))
    try:
        result = service.submit(sqls[0], deadline_seconds=0.2).result(timeout=2.0)
        assert result.status is RequestStatus.FAILED
        assert result.error.code is ServiceErrorCode.DEADLINE_EXCEEDED
        assert "waiting for the encoder" in result.error.message
        snapshot = service.metrics_snapshot()
        assert snapshot["requests.rejected.deadline_exceeded"] == 1
        assert snapshot["in_flight"] == 0
    finally:
        release.set()
        del router.embed_batch
        service.shutdown()


def test_generous_deadline_succeeds(service, service_stack):
    _system, _router, _kb, _llm, sqls, _labeled = service_stack
    result = service.explain(sqls[2], deadline_seconds=30.0)
    assert result.ok


# ------------------------------------------------------------- invalidation
def test_ddl_evicts_explanations_and_plans(service, service_stack):
    _system, _router, _kb, _llm, sqls, _labeled = service_stack
    service.explain(sqls[0])
    assert service.explain(sqls[0]).cache_hit
    service.create_index("customer", "c_phone")
    after_ddl = service.explain(sqls[0])
    assert after_ddl.ok
    assert not after_ddl.cache_hit
    assert not after_ddl.plan_cache_hit  # plans re-derived under the new index
    snapshot = service.metrics_snapshot()
    assert snapshot["invalidations.ddl"] == 1


def test_kb_write_evicts_explanations(service, service_stack):
    _system, _router, kb, _llm, sqls, labeled = service_stack
    service.explain(sqls[0])
    kb.correct(labeled[0].query_id, "better wording", None)
    refreshed = service.explain(sqls[0])
    assert refreshed.ok and not refreshed.cache_hit
    assert service.metrics_snapshot()["invalidations.kb_write"] == 1


def test_drop_index_also_invalidates(service, service_stack):
    _system, _router, _kb, _llm, sqls, _labeled = service_stack
    index = service.create_index("customer", "c_phone")
    service.explain(sqls[0])
    service.drop_index(index.name)
    assert not service.explain(sqls[0]).cache_hit


# ---------------------------------------------------------------- telemetry
def test_metrics_snapshot_shape(service, service_stack):
    _system, _router, _kb, _llm, sqls, _labeled = service_stack
    service.explain(sqls[0])
    service.explain(sqls[0])
    snapshot = service.metrics_snapshot()
    assert snapshot["requests.submitted"] == 2
    assert snapshot["requests.ok"] == 2
    cold = snapshot["latency.cold_seconds"]
    assert cold["count"] == 1
    assert {"p50", "p95", "p99", "mean", "max"} <= set(cold)
    assert snapshot["cache"]["explanations"]["hit_rate"] > 0.0
    assert snapshot["batching"]["requests"] == 1
    assert snapshot["in_flight"] == 0


def test_error_results_never_raise(service):
    # Unparseable SQL must come back as a typed INVALID_SQL failure.
    result = service.explain("THIS IS NOT SQL")
    assert result.status is RequestStatus.FAILED
    assert result.error.code is ServiceErrorCode.INVALID_SQL
    assert not result.ok
    assert result.text is None


def test_long_and_or_chains_are_typed_rejections(service):
    term = "c_custkey > 1"
    long_chains = [" AND ".join([term] * 2000), " OR ".join([term] * 2000)]
    for where in long_chains:
        result = service.explain(f"SELECT c_name FROM customer WHERE {where}")
        assert result.status is RequestStatus.FAILED
        assert result.error.code is ServiceErrorCode.INVALID_SQL
    # A chain at the bound, nested as deep as allowed, runs end to end.
    at_bound = "NOT " * 63 + "(" + " AND ".join([term] * (MAX_CONNECTIVES + 1)) + ")"
    assert service.explain(f"SELECT c_name FROM customer WHERE {at_bound}").ok
    snapshot = service.metrics_snapshot()
    assert snapshot["requests.rejected.invalid_sql"] == len(long_chains)
    assert "requests.failed" not in snapshot
    assert snapshot["requests.submitted"] == snapshot["requests.ok"] + len(long_chains)
