"""The embedded admin plane on a live ExplanationService."""

from __future__ import annotations

import json
import urllib.request

import numpy as np
import pytest

from repro.obs.metrics import MetricFamily
from repro.obs.promtext import METRIC_LINE
from repro.obs.sampling import Sampler
from repro.obs.store import TraceStore
from repro.obs.tracing import traced
from repro.service import ExplanationService, ServiceConfig


def _get(url: str) -> tuple[int, str]:
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read().decode()


def test_admin_plane_disabled_by_default(service):
    assert service.admin is None
    assert service.slo is None


def test_admin_plane_end_to_end(service_stack):
    """admin_port=0 starts the server; every endpoint answers over HTTP."""
    system, router, knowledge_base, llm, sqls, _labeled = service_stack
    store = TraceStore(max_recent=32)
    with traced(store=store, sampler=Sampler(head_probability=1.0)):
        service = ExplanationService(
            system, router, knowledge_base, llm, config=ServiceConfig(max_workers=2, admin_port=0)
        )
        try:
            assert service.admin is not None and service.admin.running
            assert service.admin.port != 0
            for sql in sqls[:3]:
                assert service.explain(sql).ok
            base = service.admin.url

            status, metrics = _get(base + "/metrics")
            assert status == 200
            # service counters, tracer stages, sampler accounting, store
            # retention, and SLO gauges all on one page
            assert "repro_requests_submitted 3" in metrics
            assert "repro_stage_service_explain" in metrics
            assert "repro_sampler_kept 3" in metrics
            assert "repro_store_traces_seen 3" in metrics
            assert "repro_slo_worst_burn_rate" in metrics
            assert "repro_slo_availability_met 1.0" in metrics
            for line in metrics.splitlines():
                assert METRIC_LINE.match(line), f"nonconforming line: {line!r}"

            status, health = _get(base + "/healthz")
            assert status == 200 and json.loads(health)["ok"] is True
            status, ready = _get(base + "/readyz")
            assert status == 200
            names = {check["name"] for check in json.loads(ready)["checks"]}
            assert {"service_open", "worker_pool", "batcher", "queue_depth", "caches"} <= names

            status, traces = _get(base + "/traces")
            payload = json.loads(traces)
            assert payload["stats"]["added"] == 3
            assert payload["recent"][0]["sampled"] == "head"
            trace_id = payload["recent"][0]["trace_id"]
            status, one = _get(f"{base}/traces/{trace_id}")
            assert status == 200 and json.loads(one)["trace_id"] == trace_id

            status, slo = _get(base + "/slo")
            assert status == 200
            assert {e["name"] for e in json.loads(slo)["objectives"]} == {
                "request_latency",
                "availability",
            }
        finally:
            service.shutdown()
        assert not service.admin.running  # shutdown stops the admin plane


def test_rejected_requests_survive_one_percent_sampling(service_stack):
    """Satellite regression: a rejection is always retained, even at 1%."""
    system, router, knowledge_base, llm, sqls, _labeled = service_stack
    store = TraceStore(max_recent=64)
    sampler = Sampler(head_probability=0.01)
    with traced(store=store, sampler=sampler):
        service = ExplanationService(
            system, router, knowledge_base, llm, config=ServiceConfig(max_workers=2)
        )
        service.shutdown()  # every subsequent submit is rejected (closed)
        results = [service.explain(sql) for sql in sqls]
    assert all(not result.ok for result in results)
    retained = store.traces()
    assert len(retained) == len(sqls)
    for trace in retained:
        attributes = trace.root.attributes
        assert attributes["status"] == "rejected"
        assert attributes["sampled"] in ("head", "tail_rejected")
    # every rejection was kept — by the tail rule unless head sampling
    # happened to keep it anyway — and none was dropped
    assert sampler.kept == len(sqls)
    assert sampler.dropped == 0


def test_health_report_degrades_when_batcher_dies(service):
    report = service.health_report()
    assert report.ok
    service.batcher.close()
    report = service.health_report()
    assert not report.ok
    assert "batcher" in {check.name for check in report.failing}


def test_batcher_survives_an_error_in_flush_bookkeeping(service_stack, monkeypatch):
    """A fault after the forward pass fails that batch only; the scheduler
    keeps serving and /healthz still reports it alive."""
    system, router, knowledge_base, llm, _sqls, labeled = service_stack
    service = ExplanationService(
        system, router, knowledge_base, llm, config=ServiceConfig(max_workers=2, admin_port=0)
    )
    try:
        real_counter = service.batcher.metrics.counter
        injected: list[str] = []

        def faulty_counter(name: str):
            if name == "batcher.batches" and not injected:
                injected.append(name)
                raise RuntimeError("injected bookkeeping fault")
            return real_counter(name)

        monkeypatch.setattr(service.batcher, "_counters", MetricFamily(faulty_counter, "batcher"))
        pair = labeled[0].execution.plan_pair
        with pytest.raises(RuntimeError, match="injected bookkeeping fault"):
            service.batcher.submit(pair).result(timeout=1.0)
        # A dead scheduler would make this wait time out.
        embedding = service.batcher.submit(pair).result(timeout=1.0)
        assert np.allclose(embedding, router.embed_pair(pair), atol=1e-9)

        status, health = _get(service.admin.url + "/healthz")
        checks = {check["name"]: check for check in json.loads(health)["checks"]}
        assert status == 200 and checks["batcher"]["ok"] is True
    finally:
        service.shutdown()


@pytest.mark.parametrize("readiness", [False, True])
def test_health_report_after_shutdown(service_stack, readiness):
    system, router, knowledge_base, llm, _sqls, _labeled = service_stack
    service = ExplanationService(
        system, router, knowledge_base, llm, config=ServiceConfig(max_workers=2)
    )
    service.shutdown()
    report = service.health_report(readiness=readiness)
    assert not report.ok
    assert "service_open" in {check.name for check in report.failing}
