"""Tests for the DBG-PT-style baseline and the no-RAG ablation."""

import pytest

from repro.baselines.dbgpt import DBGPTExplainer
from repro.baselines.norag import NoRagExplainer
from repro.htap.engines.base import EngineKind
from repro.llm.simulated import SimulatedLLM


@pytest.fixture(scope="module")
def dbgpt(system):
    return DBGPTExplainer(system, SimulatedLLM(seed=7))


@pytest.fixture(scope="module")
def norag(system):
    return NoRagExplainer(system, SimulatedLLM(seed=7))


def test_dbgpt_prompt_contains_diff_not_knowledge(dbgpt, example1_sql):
    answer = dbgpt.explain_sql(example1_sql)
    assert "Plan differences:" in answer.prompt_text
    assert "KNOWLEDGE" not in answer.prompt_text
    assert "New execution result: (not provided)" in answer.prompt_text
    assert answer.text
    assert not answer.is_none_answer


def test_dbgpt_never_sees_execution_result(dbgpt, labeled_workload):
    answer = dbgpt.explain_execution(labeled_workload[0].execution)
    assert "was faster" not in answer.prompt_text


def test_dbgpt_claims_are_ungrounded(dbgpt, example1_sql):
    answer = dbgpt.explain_sql(example1_sql)
    assert answer.claims["grounded"] is False
    assert answer.claimed_winner in (EngineKind.TP, EngineKind.AP)
    assert answer.latency.llm_generation_seconds > 0


def test_dbgpt_makes_characteristic_errors_on_workload(system, labeled_workload):
    """Across a workload, DBG-PT shows the paper's error taxonomy: wrong
    winners (cost comparison), storage over-emphasis, index misreads."""
    dbgpt = DBGPTExplainer(system, SimulatedLLM(seed=7))
    sample = labeled_workload[:40]
    wrong_winner = 0
    cost_comparison = 0
    storage_led = 0
    for labeled in sample:
        answer = dbgpt.explain_execution(labeled.execution)
        if answer.claimed_winner is not labeled.faster_engine:
            wrong_winner += 1
        if answer.claims.get("used_cost_comparison"):
            cost_comparison += 1
        factors = answer.cited_factors
        if factors and factors[0] == "columnar_parallel_scan":
            storage_led += 1
    assert wrong_winner > 0
    assert cost_comparison > 0
    assert storage_led > 0


def test_norag_keeps_execution_result_and_guard(norag, labeled_workload):
    labeled = labeled_workload[1]
    answer = norag.explain_execution(labeled.execution)
    assert "was faster" in answer.prompt_text
    assert "not allowed to compare the cost estimates" in answer.prompt_text
    assert "no relevant historical queries were retrieved" in answer.prompt_text
    assert answer.claimed_winner is labeled.faster_engine
    assert answer.claims["used_cost_comparison"] is False


def test_norag_user_notes_passthrough(norag, labeled_workload):
    answer = norag.explain_execution(labeled_workload[2].execution, user_notes="Index added on c_phone.")
    assert "Index added on c_phone." in answer.prompt_text


def test_norag_explain_sql_roundtrip(norag, example1_sql):
    answer = norag.explain_sql(example1_sql)
    assert answer.claimed_winner is EngineKind.AP
    assert answer.text


def test_norag_question_block_matches_the_pipeline(norag, labeled_workload):
    """The ablation shows the same QUESTION block as the RAG pipeline."""
    from repro.explainer.pipeline import execution_result_text
    from repro.llm.prompts import PromptBuilder, QuestionAttachment

    execution = labeled_workload[0].execution
    answer = norag.explain_execution(execution)
    question = QuestionAttachment.from_plan_pair(
        execution.plan_pair,
        execution_result=execution_result_text(execution),
        faster_engine=execution.faster_engine,
    )
    assert PromptBuilder.question_section(question) in answer.prompt_text
    assert answer.sql == execution.plan_pair.query.raw_sql
