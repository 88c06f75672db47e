"""Tests for the offline simulated LLM."""

import json

import pytest

from repro.htap.engines.base import EngineKind
from repro.htap.plan.serialize import plan_to_dict
from repro.llm.client import LLMRequest, NONE_ANSWER
from repro.llm.prompts import KnowledgeAttachment, PromptBuilder, QuestionAttachment
from repro.llm.simulated import SimulatedLLM


def _question(system, sql, faster=None) -> QuestionAttachment:
    pair = system.explain_pair(sql)
    result_text = None if faster is None else f"{faster.value} was faster"
    return QuestionAttachment(
        sql=sql,
        tp_plan_json=json.dumps(plan_to_dict(pair.tp_plan)),
        ap_plan_json=json.dumps(plan_to_dict(pair.ap_plan)),
        execution_result=result_text,
        faster_engine=faster,
    )


def _knowledge(sql="SELECT COUNT(*) FROM orders, customer WHERE o_custkey = c_custkey;",
               faster=EngineKind.AP,
               factors=("hash_join_vs_nested_loop", "no_usable_index"),
               similarity=0.95) -> KnowledgeAttachment:
    return KnowledgeAttachment(
        sql=sql,
        plan_details_json='{"TP": {}, "AP": {}}',
        faster_engine=faster,
        execution_result=f"{faster.value} was faster",
        expert_explanation="Expert text.",
        factors=factors,
        similarity=similarity,
    )


def _request(system, sql, knowledge, faster=EngineKind.AP) -> LLMRequest:
    question = _question(system, sql, faster)
    payload = PromptBuilder().build(question, knowledge)
    return LLMRequest(prompt=payload.text, attachments=payload.attachments())


def test_grounded_answer_cites_applicable_factors(system, example1_sql):
    llm = SimulatedLLM(seed=7)
    response = llm.generate(_request(system, example1_sql, [_knowledge(), _knowledge(similarity=0.9)]))
    assert not response.is_none_answer
    assert response.claims["grounded"]
    assert response.claims["winner"] == "AP"
    assert "hash_join_vs_nested_loop" in response.claims["factors"]
    assert "hash join" in response.text.lower()


def test_irrelevant_knowledge_triggers_none_or_fallback(system):
    # A TP-favourable point lookup with only AP-favourable knowledge available.
    sql = "SELECT o_totalprice FROM orders WHERE o_orderkey = 7;"
    llm = SimulatedLLM(seed=7, fallback_none_rate=1.0)
    response = llm.generate(_request(system, sql, [_knowledge()], faster=EngineKind.TP))
    assert response.is_none_answer
    assert response.text == NONE_ANSWER
    llm_answering = SimulatedLLM(seed=7, fallback_none_rate=0.0)
    response2 = llm_answering.generate(_request(system, sql, [_knowledge()], faster=EngineKind.TP))
    assert not response2.is_none_answer
    assert response2.claims["winner"] == "TP"


def test_ungrounded_answer_exhibits_storage_overemphasis(system, example1_sql):
    llm = SimulatedLLM(seed=7, storage_overemphasis_rate=1.0, cost_bias_rate=0.0)
    question = _question(system, example1_sql, EngineKind.AP)
    payload = PromptBuilder().build(question, knowledge=[])
    response = llm.generate(LLMRequest(prompt=payload.text, attachments=payload.attachments()))
    assert not response.claims["grounded"]
    assert response.claims["factors"][0] == "columnar_parallel_scan"


def test_ungrounded_cost_bias_when_winner_unknown(system, example1_sql):
    llm = SimulatedLLM(seed=7, cost_bias_rate=1.0)
    question = _question(system, example1_sql, faster=None)
    payload = PromptBuilder().build(question, knowledge=[])
    response = llm.generate(LLMRequest(prompt=payload.text, attachments=payload.attachments()))
    assert response.claims["used_cost_comparison"]
    # The cost comparison points at the numerically cheaper TP plan, which is
    # the wrong conclusion for Example 1 — the paper's DBG-PT failure mode.
    assert response.claims["winner"] == "TP"
    assert "cost estimate" in response.text


def test_index_misread_bias_on_function_wrapped_predicate(system, example1_sql):
    llm = SimulatedLLM(seed=7, index_misread_rate=1.0, cost_bias_rate=0.0)
    question = _question(system, example1_sql, EngineKind.AP)
    payload = PromptBuilder().build(question, knowledge=[])
    response = llm.generate(LLMRequest(prompt=payload.text, attachments=payload.attachments()))
    assert response.claims["index_misread"]
    assert "index" in response.text.lower()


def test_latency_model_matches_paper_magnitudes(system, example1_sql):
    llm = SimulatedLLM(seed=7)
    response = llm.generate(_request(system, example1_sql, [_knowledge()]))
    assert response.thinking_seconds <= 2.0
    assert 3.0 <= response.generation_seconds <= 30.0
    assert response.total_seconds == pytest.approx(
        response.thinking_seconds + response.generation_seconds
    )


def test_determinism_per_query(system, example1_sql):
    llm = SimulatedLLM(seed=7)
    first = llm.generate(_request(system, example1_sql, [_knowledge()]))
    second = llm.generate(_request(system, example1_sql, [_knowledge()]))
    assert first.text == second.text
    assert first.claims == second.claims


def test_prompt_without_question_attachment_gets_generic_reply():
    llm = SimulatedLLM(seed=7)
    response = llm.generate(LLMRequest(prompt="Why is my query slow?"))
    assert "execution plans" in response.text
    assert llm.generate_text("Why is my query slow?") == response.text
