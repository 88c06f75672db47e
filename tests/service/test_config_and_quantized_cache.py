"""ServiceConfig merging and the L2 plan cache's entries."""

import numpy as np
import pytest

from repro.service import ExplanationService, ServiceCache, ServiceConfig


# ------------------------------------------------------------ ServiceConfig
def test_config_defaults_match_legacy_kwargs():
    config = ServiceConfig()
    assert config.top_k == 2
    assert config.max_workers == 4
    assert config.max_in_flight == 64
    assert config.batch_max_size == 16


def test_with_overrides_applies_non_none_only():
    config = ServiceConfig(plan_cache_capacity=100)
    merged = config.with_overrides(top_k=5, max_workers=None)
    assert merged.top_k == 5
    assert merged.max_workers == 4           # None fell through to the config
    assert merged.plan_cache_capacity == 100  # untouched fields survive
    assert config.top_k == 2                  # original is immutable


def test_with_overrides_rejects_unknown_fields():
    with pytest.raises(TypeError, match="unknown ServiceConfig field"):
        ServiceConfig().with_overrides(bogus_knob=3)


def test_with_overrides_no_changes_returns_self():
    config = ServiceConfig()
    assert config.with_overrides(top_k=None) is config


def test_service_accepts_config_and_kwarg_overrides(service_stack):
    system, router, knowledge_base, llm, _sqls, _labeled = service_stack
    config = ServiceConfig(max_workers=2, top_k=1)
    service = ExplanationService(
        system, router, knowledge_base, llm, config=config, top_k=3
    )
    try:
        assert service.config.max_workers == 2  # from the config
        assert service.config.top_k == 3        # explicit kwarg wins
        assert service.explainer.top_k == 3
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


def test_quantized_cache_serves_l2_hits_end_to_end(service_stack):
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
