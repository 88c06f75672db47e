"""Tests for the RAG pipeline, the evaluation panel, feedback, and timing."""

import json

import pytest

from repro.explainer.evaluation import AccuracyReport, ExpertPanel, Grade
from repro.explainer.feedback import FeedbackLoop
from repro.explainer.pipeline import RagExplainer, entries_from_labeled
from repro.explainer.timing import LatencyProfile
from repro.htap.engines.base import EngineKind
from repro.knowledge.knowledge_base import KnowledgeBase
from repro.workloads.experts import SimulatedExpert


# ---------------------------------------------------------------- pipeline
def test_entries_from_labeled_capture_all_fields(labeled_workload, trained_router):
    entries = entries_from_labeled(labeled_workload[:5], trained_router, SimulatedExpert())
    assert len(entries) == 5
    for entry, labeled in zip(entries, labeled_workload[:5]):
        assert entry.entry_id == labeled.query_id
        assert entry.embedding.shape == (16,)
        assert entry.faster_engine is labeled.faster_engine
        assert set(json.loads(entry.plan_details_json)) == {"TP", "AP"}
        assert entry.expert_explanation
        assert entry.factors
        assert entry.metadata["pattern"] == labeled.workload_query.pattern.value


def test_explain_execution_returns_full_explanation(rag_explainer, labeled_workload):
    labeled = labeled_workload[25]
    explanation = rag_explainer.explain_execution(labeled.execution)
    assert explanation.sql == labeled.sql
    assert len(explanation.retrieved) <= 2
    assert explanation.embedding.shape == (16,)
    assert "QUESTION:" in explanation.prompt.text
    assert explanation.latency.total_seconds > 0
    if not explanation.is_none_answer:
        assert explanation.claims.get("winner") in ("TP", "AP")
        assert explanation.text


def test_explain_sql_runs_both_engines(rag_explainer, example1_sql):
    explanation = rag_explainer.explain_sql(example1_sql)
    assert explanation.faster_engine is EngineKind.AP
    assert "hash join" in explanation.text.lower() or explanation.is_none_answer is False


def test_user_notes_are_included_in_prompt(rag_explainer, labeled_workload):
    explanation = rag_explainer.explain_execution(
        labeled_workload[0].execution, user_notes="A new index exists on c_phone."
    )
    assert "A new index exists on c_phone." in explanation.prompt.text


def test_top_k_controls_retrieved_count(system, trained_router, knowledge_base, simulated_llm, labeled_workload):
    for k in (1, 3):
        explainer = RagExplainer(system, trained_router, knowledge_base, simulated_llm, top_k=k)
        explanation = explainer.explain_execution(labeled_workload[30].execution)
        assert len(explanation.retrieved) == min(k, len(knowledge_base))
    with pytest.raises(ValueError):
        RagExplainer(system, trained_router, knowledge_base, simulated_llm, top_k=-1)


def test_zero_k_behaves_like_no_rag(system, trained_router, knowledge_base, simulated_llm, labeled_workload):
    explainer = RagExplainer(system, trained_router, knowledge_base, simulated_llm, top_k=0)
    explanation = explainer.explain_execution(labeled_workload[10].execution)
    assert explanation.retrieved == []
    assert explanation.claims.get("grounded") is False


# -------------------------------------------------------------- evaluation
def test_panel_grades_accurate_explanations(rag_explainer, labeled_workload):
    panel = ExpertPanel()
    sample = labeled_workload[20:50]
    explanations = [rag_explainer.explain_execution(labeled.execution) for labeled in sample]
    report = panel.evaluate(sample, explanations)
    assert report.total == len(sample)
    assert report.accurate_rate >= 0.7
    assert report.accurate_rate + report.imprecise_rate + report.none_rate + report.wrong_rate == pytest.approx(1.0)
    assert 0.0 <= report.less_precise_rate <= 0.3
    assert set(report.as_dict()) == {"total", "accurate", "imprecise", "none", "wrong"}


def test_panel_grades_none_answer(rag_explainer, labeled_workload):
    labeled = labeled_workload[0]
    explanation = rag_explainer.explain_execution(labeled.execution)
    object.__setattr__(explanation.response, "text", "None")
    graded = ExpertPanel().grade(labeled, explanation)
    assert graded.grade is Grade.NONE_ANSWER


def test_panel_marks_wrong_winner_as_wrong(rag_explainer, labeled_workload):
    # Pick a query whose explanation is a real answer (not a None abstention).
    labeled, explanation = next(
        (candidate, answer)
        for candidate in labeled_workload[:20]
        for answer in [rag_explainer.explain_execution(candidate.execution)]
        if not answer.is_none_answer
    )
    explanation.claims["winner"] = labeled.faster_engine.other().value
    graded = ExpertPanel().grade(labeled, explanation)
    assert graded.grade is Grade.WRONG
    assert not graded.winner_correct


def test_panel_text_fallback_without_claims(rag_explainer, labeled_workload):
    labeled = labeled_workload[8]
    explanation = rag_explainer.explain_execution(labeled.execution)
    explanation.claims = {"winner": labeled.faster_engine.value}
    graded = ExpertPanel().grade(labeled, explanation)
    assert graded.grade in (Grade.ACCURATE, Grade.IMPRECISE, Grade.WRONG)


def test_panel_requires_aligned_inputs(rag_explainer, labeled_workload):
    with pytest.raises(ValueError):
        ExpertPanel().evaluate(labeled_workload[:2], [])
    with pytest.raises(ValueError):
        ExpertPanel(panel_size=0)


def test_empty_report_rates_are_zero():
    report = AccuracyReport()
    assert report.accurate_rate == 0.0
    assert report.less_precise_rate == 0.0


# ---------------------------------------------------------------- feedback
def test_feedback_loop_adds_corrections(system, trained_router, simulated_llm, labeled_workload):
    kb = KnowledgeBase()
    kb.add_many(entries_from_labeled(labeled_workload[:5], trained_router, SimulatedExpert()))
    explainer = RagExplainer(system, trained_router, kb, simulated_llm, top_k=2)
    loop = FeedbackLoop(explainer)
    batch = labeled_workload[30:55]
    first = loop.run_round(batch)
    assert first.knowledge_base_size >= 5
    assert sum(first.graded_counts.values()) == len(batch)
    second = loop.run_round(batch)
    # With corrections in the KB, the second pass cannot be less accurate.
    assert second.accurate_rate >= first.accurate_rate - 1e-9
    rounds = loop.run(batch, rounds=2)
    assert len(rounds) == 2


# ------------------------------------------------------------------ timing
def test_latency_profile_arithmetic():
    profile = LatencyProfile(0.001, 0.0001, 1.5, 9.0)
    assert profile.total_seconds == pytest.approx(10.5011)
    assert profile.retrieval_seconds == pytest.approx(0.0011)
    average = LatencyProfile.average([profile, LatencyProfile(0.003, 0.0003, 0.5, 11.0)])
    assert average.encode_seconds == pytest.approx(0.002)
    assert average.llm_generation_seconds == pytest.approx(10.0)
    assert LatencyProfile.average([]).total_seconds == 0.0
    assert "total_seconds" in profile.as_dict()
