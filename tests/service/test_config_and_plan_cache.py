"""ServiceConfig and the L2 plan cache's entries."""

import inspect
from dataclasses import fields

import numpy as np
import pytest

from repro.service import (
    ExplanationService,
    RequestStatus,
    ServiceCache,
    ServiceConfig,
    ServiceErrorCode,
    TenantConfig,
)


# ------------------------------------------------------------ ServiceConfig
def test_config_defaults():
    config = ServiceConfig()
    assert config.top_k == 2
    assert config.tenants == ()
    assert config.max_workers == 4
    assert config.max_in_flight == 64
    assert config.default_deadline_seconds is None
    assert config.admin_port is None
    assert config.admin_host == "127.0.0.1"


def test_every_config_field_reaches_the_service(service_stack):
    system, router, knowledge_base, llm, sqls, _labeled = service_stack
    params = inspect.signature(ExplanationService.__init__).parameters
    assert list(params) == [
        "self", "system", "router", "knowledge_base", "llm", "config", "prompt_builder",
    ]
    config = ServiceConfig(
        top_k=3,
        tenants=(TenantConfig(name="acme", weight=2.5),),
        max_workers=3,
        max_in_flight=7,
        default_deadline_seconds=1e-9,
        admin_port=0,
        admin_host="127.0.0.2",
    )
    assert all(
        getattr(config, field.name) != field.default for field in fields(ServiceConfig)
    )
    service = ExplanationService(system, router, knowledge_base, llm, config=config)
    try:
        assert service.config is config
        assert service.explainer.top_k == 3
        assert service.tenants.names() == ("acme",)
        assert service.tenants.weight("acme") == 2.5
        assert service._executor._max_workers == 3
        assert service.metrics_snapshot()["max_in_flight"] == 7
        result = service.explain(sqls[0])  # inherits the 1 ns default deadline
        assert result.status is RequestStatus.FAILED
        assert result.error.code is ServiceErrorCode.DEADLINE_EXCEEDED
        assert service.admin is not None and service.admin.port != 0
        assert service.admin.url == f"http://127.0.0.2:{service.admin.port}"
    finally:
        service.shutdown()


def test_invalid_config_values_still_rejected(service_stack):
    system, router, knowledge_base, llm, _sqls, _labeled = service_stack
    with pytest.raises(ValueError):
        ExplanationService(
            system, router, knowledge_base, llm,
            config=ServiceConfig(max_workers=0),
        )


# ----------------------------------------------------------- L2 entries
def test_service_cache_plain_embeddings_pass_through():
    cache = ServiceCache()
    embedding = np.arange(8, dtype=np.float64)
    cache.put_plan("fp1", "question-sentinel", embedding)
    question, stored = cache.get_plan("fp1")
    assert question == "question-sentinel"
    assert stored is embedding
    assert cache.get_plan("missing") is None


def test_get_plan_respects_epoch_guard():
    cache = ServiceCache()
    epoch = cache.plans.epoch
    cache.plans.clear()
    assert not cache.put_plan("fp1", "x", np.ones(4), epoch=epoch)
    assert cache.get_plan("fp1") is None


def test_plan_cache_serves_l2_hits_end_to_end(service_stack):
    """Same SQL, different notes: the second request is an L2 hit."""
    system, router, knowledge_base, llm, sqls, _labeled = service_stack
    service = ExplanationService(
        system, router, knowledge_base, llm, config=ServiceConfig(max_workers=2),
    )
    try:
        sql = sqls[0]
        cold = service.explain(sql, user_notes="first")
        assert cold.ok and not cold.plan_cache_hit
        # Different notes → different L1 key, same SQL fingerprint → the L2
        # entry serves the QUESTION block and the embedding.
        warm = service.explain(sql, user_notes="second")
        assert warm.ok and warm.plan_cache_hit
        assert warm.explanation is not None
        snapshot = service.metrics_snapshot()
        assert snapshot["cache"]["plans"]["hits"] >= 1
    finally:
        service.shutdown()
