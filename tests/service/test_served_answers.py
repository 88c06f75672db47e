"""Every OK answer the service gives equals the bare explainer's.

The same check perfbench's answer checker runs over timed traffic, here
on about 60 generated SQL strings, sent cold and then again as L1 hits.
"""

from __future__ import annotations

from repro.explainer.pipeline import RagExplainer
from repro.llm.simulated import SimulatedLLM
from repro.service import ExplanationService, ServiceConfig
from repro.workloads.generator import WorkloadGenerator


def _answer(explanation) -> tuple[str, tuple[str, ...]]:
    return explanation.text, tuple(hit.entry.entry_id for hit in explanation.retrieved)


def test_cold_and_l1_answers_equal_the_bare_explainer(system, trained_router, knowledge_base):
    sqls = list(dict.fromkeys(query.sql for query in WorkloadGenerator(seed=29).generate(70)))[:60]
    assert len(sqls) >= 55
    bare = RagExplainer(system, trained_router, knowledge_base, SimulatedLLM(seed=7))
    expected = [_answer(bare.explain_sql(sql)) for sql in sqls]
    config = ServiceConfig(max_workers=2, max_in_flight=len(sqls))
    with ExplanationService(
        system, trained_router, knowledge_base, SimulatedLLM(seed=7), config=config
    ) as service:
        cold = [future.result() for future in [service.submit(sql) for sql in sqls]]
        hot = [service.explain(sql) for sql in sqls]
    for sql, want, first, again in zip(sqls, expected, cold, hot):
        assert first.ok and not first.cache_hit, sql
        assert again.ok and again.cache_hit, sql
        assert _answer(first.explanation) == want, sql
        assert _answer(again.explanation) == want, sql
