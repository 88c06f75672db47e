"""Integration tests across modules: the full paper pipeline on small scale."""

import pytest

from repro.baselines.dbgpt import DBGPTExplainer
from repro.explainer.evaluation import ExpertPanel
from repro.explainer.feedback import FeedbackLoop
from repro.explainer.pipeline import RagExplainer, entries_from_labeled
from repro.htap.engines.base import EngineKind
from repro.htap.system import HTAPSystem
from repro.knowledge.knowledge_base import KnowledgeBase
from repro.knowledge.vector_store import HNSWVectorStore
from repro.llm.simulated import SimulatedLLM
from repro.router.router import SmartRouter
from repro.workloads.datasets import build_paper_dataset
from repro.workloads.experts import SimulatedExpert


@pytest.fixture(scope="module")
def pipeline_setup():
    """A miniature version of the paper's full experimental pipeline."""
    system = HTAPSystem(scale_factor=100)
    dataset = build_paper_dataset(
        system, knowledge_base_size=15, test_size=50, router_training_size=80, seed=31
    )
    router = SmartRouter(system.catalog, seed=5)
    router.fit(dataset.router_training, epochs=10)
    knowledge_base = KnowledgeBase()
    knowledge_base.add_many(entries_from_labeled(dataset.knowledge_base, router, SimulatedExpert()))
    llm = SimulatedLLM(seed=11)
    explainer = RagExplainer(system, router, knowledge_base, llm, top_k=2)
    return system, dataset, router, knowledge_base, explainer


def test_full_pipeline_accuracy_beats_dbgpt(pipeline_setup):
    system, dataset, _router, _kb, explainer = pipeline_setup
    panel = ExpertPanel()
    sample = dataset.test[:30]
    ours = panel.evaluate(
        sample, [explainer.explain_execution(labeled.execution) for labeled in sample]
    )
    assert ours.accurate_rate >= 0.7

    dbgpt = DBGPTExplainer(system, SimulatedLLM(seed=11))
    wrong_winner = sum(
        1
        for labeled in sample
        if dbgpt.explain_execution(labeled.execution).claimed_winner is not labeled.faster_engine
    )
    # The ungrounded baseline misidentifies the winner on a visible fraction
    # of queries; the RAG pipeline (given execution results) never does.
    assert wrong_winner > 0
    assert all(
        explainer.explain_execution(labeled.execution).claims.get("winner")
        in (labeled.faster_engine.value, None)
        for labeled in sample[:10]
    )


def test_router_training_and_retrieval_consistency(pipeline_setup):
    _system, dataset, router, knowledge_base, _explainer = pipeline_setup
    # Routing accuracy on unseen queries is high (paper claim).
    assert router.accuracy(dataset.test) >= 0.85
    # Retrieval returns entries whose winner usually matches the query's.
    matches = 0
    for labeled in dataset.test[:30]:
        hits = knowledge_base.retrieve(router.embed_pair(labeled.execution.plan_pair), k=2).hits
        if any(hit.entry.faster_engine is labeled.faster_engine for hit in hits):
            matches += 1
    assert matches >= 24


def test_feedback_loop_improves_or_maintains_accuracy(pipeline_setup):
    system, dataset, router, _kb, _explainer = pipeline_setup
    # Start from a deliberately tiny KB so there is room to improve.
    small_kb = KnowledgeBase()
    small_kb.add_many(entries_from_labeled(dataset.knowledge_base[:4], router, SimulatedExpert()))
    explainer = RagExplainer(system, router, small_kb, SimulatedLLM(seed=11), top_k=2)
    loop = FeedbackLoop(explainer)
    batch = dataset.test[:30]
    first = loop.run_round(batch)
    second = loop.run_round(batch)
    assert len(small_kb) > 4
    assert second.accurate_rate >= first.accurate_rate


def test_hnsw_backed_pipeline_equivalent_results(pipeline_setup):
    system, dataset, router, _kb, _explainer = pipeline_setup
    flat_kb = KnowledgeBase()
    hnsw_kb = KnowledgeBase(lambda: HNSWVectorStore(seed=3))
    entries = entries_from_labeled(dataset.knowledge_base, router, SimulatedExpert())
    flat_kb.add_many(entries)
    hnsw_kb.add_many(
        entries_from_labeled(dataset.knowledge_base, router, SimulatedExpert())
    )
    flat_explainer = RagExplainer(system, router, flat_kb, SimulatedLLM(seed=11), top_k=2)
    hnsw_explainer = RagExplainer(system, router, hnsw_kb, SimulatedLLM(seed=11), top_k=2)
    agreements = 0
    for labeled in dataset.test[:20]:
        flat_answer = flat_explainer.explain_execution(labeled.execution)
        hnsw_answer = hnsw_explainer.explain_execution(labeled.execution)
        if flat_answer.text == hnsw_answer.text:
            agreements += 1
    assert agreements >= 16  # HNSW is approximate but should rarely change the answer


def test_example1_end_to_end_matches_paper_story(pipeline_setup, example1_sql):
    system, _dataset, _router, _kb, explainer = pipeline_setup
    execution = system.run_both(example1_sql)
    assert execution.faster_engine is EngineKind.AP
    explanation = explainer.explain_execution(execution)
    graded_factors = set(explanation.cited_factors)
    assert "hash_join_vs_nested_loop" in graded_factors or explanation.is_none_answer is False
    assert "hash join" in explanation.text.lower()
    assert explanation.latency.retrieval_seconds < 0.05
