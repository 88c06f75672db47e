"""What the L2 plan cache stores: the QUESTION block, shared by explanations.

A miss builds one :class:`QuestionAttachment` (the plan pair as EXPLAIN
JSON text plus the execution result) and caches ``(question, embedding)``; every
explanation built from that entry points at the same frozen object, and
the parsed query, plan trees and execution results are not kept.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.htap.plan.serialize import plan_to_dict
from repro.htap.system import QueryExecution
from repro.llm.prompts import QuestionAttachment
from repro.service import ExplanationService, ServiceConfig
from repro.service.fingerprint import normalize_sql, plan_key

TWO_WORKERS = ServiceConfig(max_workers=2)


@pytest.fixture()
def stack_service(service_stack):
    system, router, knowledge_base, llm, sqls, _labeled = service_stack
    service = ExplanationService(system, router, knowledge_base, llm, config=TWO_WORKERS)
    yield service, sqls
    service.shutdown()


def _l2_value(service: ExplanationService, sql: str):
    return service.cache.plans.get(plan_key(normalize_sql(sql)))


def test_l2_value_is_question_and_embedding(stack_service):
    service, sqls = stack_service
    result = service.explain(sqls[0])
    assert result.ok and not result.plan_cache_hit
    question, embedding = _l2_value(service, sqls[0])
    assert isinstance(question, QuestionAttachment)
    assert not isinstance(question, QueryExecution)
    assert isinstance(embedding, np.ndarray)
    np.testing.assert_array_equal(embedding, result.explanation.embedding)
    assert question.sql == result.explanation.sql
    assert question.faster_engine is result.explanation.faster_engine


def test_l2_hit_shares_the_cached_question(stack_service):
    service, sqls = stack_service
    sql = sqls[1]
    first = service.explain(sql, user_notes="first")
    second = service.explain(sql, user_notes="second")
    assert first.ok and not first.plan_cache_hit
    assert second.ok and second.plan_cache_hit
    question, _embedding = _l2_value(service, sql)
    assert first.explanation.prompt.question is question
    assert second.explanation.prompt.question is question
    # Sharing is safe because nobody can rebind the cached block's fields.
    with pytest.raises(dataclasses.FrozenInstanceError):
        question.sql = "SELECT 1"
    # The cached plans are still exactly the optimizer's EXPLAIN output.
    replanned = service.system.explain_pair(sql)
    assert question.tp_plan_json == json.dumps(plan_to_dict(replanned.tp_plan))
    assert question.ap_plan_json == json.dumps(plan_to_dict(replanned.ap_plan))


def test_l2_hit_answers_like_a_fresh_miss(service_stack):
    system, router, knowledge_base, llm, sqls, _labeled = service_stack
    sql = sqls[2]
    with ExplanationService(system, router, knowledge_base, llm, config=TWO_WORKERS) as warmed:
        warmed.explain(sql, user_notes="prime the plan cache")
        hit = warmed.explain(sql, user_notes="why is AP faster?")
    with ExplanationService(system, router, knowledge_base, llm, config=TWO_WORKERS) as fresh:
        miss = fresh.explain(sql, user_notes="why is AP faster?")
    assert hit.plan_cache_hit and not miss.plan_cache_hit
    assert hit.explanation.text == miss.explanation.text
    assert hit.explanation.prompt.text == miss.explanation.prompt.text
    assert [item.entry.entry_id for item in hit.explanation.retrieved] == [
        item.entry.entry_id for item in miss.explanation.retrieved
    ]


def test_kb_write_keeps_the_cached_question(stack_service, service_stack):
    """A knowledge-base write re-runs retrieval and generation, but the
    plans did not change, so the new answer reuses the cached QUESTION."""
    service, sqls = stack_service
    labeled = service_stack[5]
    before = service.explain(sqls[3])
    service.knowledge_base.correct(labeled[0].query_id, "better wording", None)
    after = service.explain(sqls[3])
    assert after.ok and not after.cache_hit and after.plan_cache_hit
    assert after.explanation.prompt.question is before.explanation.prompt.question
