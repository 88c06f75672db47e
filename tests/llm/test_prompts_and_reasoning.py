"""Tests for prompt assembly (Table I) and structural plan reasoning."""

import dataclasses
import json

import numpy as np
import pytest

from repro.htap.engines.base import EngineKind
from repro.htap.plan.serialize import plan_to_dict
from repro.knowledge.entry import KnowledgeEntry
from repro.llm.prompts import KnowledgeAttachment, PromptBuilder, QuestionAttachment
from repro.llm.reasoning import extract_signals, extract_signals_with_costs, factor_applies, hypothesize_factors
from repro.workloads.labeling import ExplanationFactor


def _question(system, sql, execution=None) -> QuestionAttachment:
    pair = system.explain_pair(sql)
    return QuestionAttachment(
        sql=sql,
        tp_plan_json=json.dumps(plan_to_dict(pair.tp_plan)),
        ap_plan_json=json.dumps(plan_to_dict(pair.ap_plan)),
        execution_result=None if execution is None else execution,
        faster_engine=None,
    )


# ----------------------------------------------------------------- prompts
def test_table_i_sections_follow_paper(system):
    builder = PromptBuilder(data_size_gb=100.0)
    rows = builder.table_i_rows()
    assert set(rows) == {"Background information", "Task description", "Additional user context"}
    assert "100GB" in rows["Background information"]
    assert "row-oriented storage" in rows["Background information"]
    assert "not allowed to compare the cost estimates" in rows["Background information"]
    assert "KNOWLEDGE" in rows["Task description"]
    assert "return None" in rows["Task description"]
    assert "c_phone" in rows["Additional user context"]


def test_question_from_plan_pair_is_the_explain_form(system, example1_sql):
    pair = system.explain_pair(example1_sql)
    question = QuestionAttachment.from_plan_pair(pair)
    assert question == QuestionAttachment(
        sql=pair.query.raw_sql,
        tp_plan_json=json.dumps(plan_to_dict(pair.tp_plan)),
        ap_plan_json=json.dumps(plan_to_dict(pair.ap_plan)),
        execution_result=None,
        faster_engine=None,
    )
    run = QuestionAttachment.from_plan_pair(
        pair, execution_result="AP was faster", faster_engine=EngineKind.AP
    )
    assert (run.execution_result, run.faster_engine) == ("AP was faster", EngineKind.AP)


def test_prompt_contains_knowledge_and_question(system, example1_sql):
    builder = PromptBuilder()
    question = _question(system, example1_sql, execution="AP was faster")
    entry = KnowledgeEntry(
        entry_id="k1",
        embedding=np.zeros(4),
        sql="SELECT COUNT(*) FROM orders;",
        plan_details_json='{"TP": {}, "AP": {}}',
        faster_engine=EngineKind.AP,
        tp_latency_seconds=4.0,
        ap_latency_seconds=0.4,
        expert_explanation="AP is faster because of hash joins.",
        factors=("hash_join_vs_nested_loop",),
    )
    knowledge = [KnowledgeAttachment.from_entry(entry, similarity=0.93)]
    payload = builder.build(question, knowledge, user_notes="An index exists on c_phone.")
    assert "KNOWLEDGE 1:" in payload.text
    assert "Historical expert explanation: AP is faster because of hash joins." in payload.text
    assert "QUESTION:" in payload.text
    assert "New execution result: AP was faster" in payload.text
    assert "Additional user context: An index exists on c_phone." in payload.text
    attachments = payload.attachments()
    assert attachments["question"] is question
    assert attachments["knowledge"] == knowledge


def test_prompt_without_knowledge_says_so(system, example1_sql):
    payload = PromptBuilder().build(_question(system, example1_sql))
    assert "no relevant historical queries were retrieved" in payload.text


def test_cost_guard_can_be_ablated(system, example1_sql):
    question = _question(system, example1_sql)
    guarded = PromptBuilder().build(question, forbid_cost_comparison=True)
    unguarded = PromptBuilder().build(question, forbid_cost_comparison=False)
    assert "not allowed to compare the cost estimates" in guarded.text
    assert "not allowed to compare the cost estimates" not in unguarded.text


def test_payload_renders_its_text_from_values_fixed_at_build(system, example1_sql):
    builder = PromptBuilder(data_size_gb=100.0)
    question = _question(system, example1_sql)
    payload = builder.build(question, user_notes="An index exists on c_phone.")
    assert "text" not in vars(payload)
    rendered = payload.text
    assert rendered == "\n\n".join(
        [
            builder.background_section(),
            builder.task_section(),
            "Additional user context: An index exists on c_phone.",
            builder.knowledge_section([]),
            builder.question_section(question),
        ]
    )
    builder.data_size_gb = 1.0
    assert payload.text == rendered
    with pytest.raises(dataclasses.FrozenInstanceError):
        payload.user_context = "changed"


# --------------------------------------------------------------- reasoning
def test_signals_for_example1(system, example1_sql):
    question = _question(system, example1_sql)
    signals = extract_signals(example1_sql, question.tp_plan_json, question.ap_plan_json)
    assert signals.tp_uses_nested_loop
    assert signals.ap_uses_hash_join
    assert not signals.tp_uses_index
    assert signals.sql_wraps_column_in_function
    assert signals.is_large_scan
    assert signals.has_aggregation


def test_signals_with_costs_exposes_root_costs(system, example1_sql):
    question = _question(system, example1_sql)
    signals = extract_signals_with_costs(example1_sql, question.tp_plan_json, question.ap_plan_json)
    assert signals.ap_total_cost > signals.tp_total_cost > 0
    assert signals.tp_total_cost == json.loads(question.tp_plan_json)["Total Cost"]
    assert signals.ap_total_cost == json.loads(question.ap_plan_json)["Total Cost"]


def test_plain_signals_carry_no_costs(system, example1_sql):
    question = _question(system, example1_sql)
    signals = extract_signals(example1_sql, question.tp_plan_json, question.ap_plan_json)
    assert signals.tp_total_cost is None
    assert signals.ap_total_cost is None


def test_signals_for_topn_offset(system):
    sql = "SELECT l_orderkey FROM lineitem ORDER BY l_extendedprice DESC LIMIT 10 OFFSET 10000;"
    question = _question(system, sql)
    signals = extract_signals(sql, question.tp_plan_json, question.ap_plan_json)
    assert signals.has_top_n
    assert signals.offset_rows >= 10_000
    assert signals.limit_rows == 10


def test_factor_applies_consistency(system, example1_sql):
    question = _question(system, example1_sql)
    signals = extract_signals(example1_sql, question.tp_plan_json, question.ap_plan_json)
    assert factor_applies(ExplanationFactor.HASH_JOIN_VS_NESTED_LOOP.value, signals)
    assert factor_applies(ExplanationFactor.NO_USABLE_INDEX.value, signals)
    assert factor_applies(ExplanationFactor.INDEX_DEFEATED_BY_FUNCTION.value, signals)
    assert not factor_applies(ExplanationFactor.SELECTIVE_INDEX_ACCESS.value, signals)
    assert not factor_applies(ExplanationFactor.INDEX_PROVIDES_ORDER.value, signals)
    assert not factor_applies("not_a_factor", signals)


def test_hypothesize_factors_respects_winner(system, example1_sql):
    question = _question(system, example1_sql)
    signals = extract_signals(example1_sql, question.tp_plan_json, question.ap_plan_json)
    ap_factors = hypothesize_factors(signals, EngineKind.AP)
    assert ap_factors[0] == ExplanationFactor.HASH_JOIN_VS_NESTED_LOOP.value
    tp_factors = hypothesize_factors(signals, EngineKind.TP)
    assert all(ExplanationFactor(value).favours is EngineKind.TP for value in tp_factors)


def test_hypothesize_factors_point_lookup(system):
    sql = "SELECT o_totalprice FROM orders WHERE o_orderkey = 99;"
    question = _question(system, sql)
    signals = extract_signals(sql, question.tp_plan_json, question.ap_plan_json)
    factors = hypothesize_factors(signals, EngineKind.TP)
    assert ExplanationFactor.SELECTIVE_INDEX_ACCESS.value in factors
