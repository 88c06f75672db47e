"""What a cached cold request leaves in the two cache levels.

An L1 entry keeps the explanation's prompt as its attachments only: the
flat text is rendered when ``prompt.text`` is read, and must be exactly
the text the LLM received.  The L2 entry keeps the QUESTION's plans as
the EXPLAIN JSON text the prompt embeds.  Together they bound the heap a
stream of never-repeated SQL strings fills the caches with.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.llm.simulated import SimulatedLLM
from repro.service import ExplanationService, ServiceConfig
from repro.service.fingerprint import normalize_sql
from repro.workloads.generator import WorkloadGenerator

ONE_WORKER = ServiceConfig(max_workers=1)
#: Heap bound per request resident in both L1 and L2.
MAX_BYTES_PER_CACHED_REQUEST = 10 * 1024


class RecordingLLM(SimulatedLLM):
    """The simulator, keeping every prompt it was sent."""

    def __init__(self) -> None:
        super().__init__(seed=7)
        self.prompts: list[str] = []

    def generate(self, request):
        self.prompts.append(request.prompt)
        return super().generate(request)


def _distinct_sqls(count: int, seed: int = 5) -> list[str]:
    generator = WorkloadGenerator(seed=seed)
    by_key: dict[str, str] = {}
    while len(by_key) < count:
        sql = generator.generate_one().sql
        by_key.setdefault(normalize_sql(sql), sql)
    return list(by_key.values())


def test_l1_entry_renders_the_prompt_the_llm_received(service_stack):
    system, router, knowledge_base, _llm, sqls, _labeled = service_stack
    llm = RecordingLLM()
    with ExplanationService(system, router, knowledge_base, llm, config=ONE_WORKER) as service:
        notes = "An index exists on c_phone."
        miss = service.explain(sqls[0], user_notes=notes)
        hit = service.explain(sqls[0], user_notes=notes)
    assert miss.ok and not miss.cache_hit
    assert hit.ok and hit.cache_hit
    prompt = hit.explanation.prompt
    assert "text" not in vars(prompt)
    assert llm.prompts == [prompt.text]
    assert f"Additional user context: {notes}" in prompt.text


def test_cached_cold_request_heap_is_bounded(service_stack):
    """Heap freed by dropping both levels after 200 distinct cold requests,
    per request: the L1 explanation plus the L2 QUESTION and embedding."""
    system, router, knowledge_base, llm, _sqls, _labeled = service_stack
    sqls = _distinct_sqls(200)
    with ExplanationService(system, router, knowledge_base, llm, config=ONE_WORKER) as service:
        service.explain(sqls[0])
        service.cache.explanations.clear()
        service.cache.plans.clear()
        tracemalloc.start()
        try:
            for sql in sqls:
                assert service.explain(sql).ok
            assert len(service.cache.explanations) == len(service.cache.plans) == len(sqls)
            gc.collect()
            cached, _peak = tracemalloc.get_traced_memory()
            service.cache.explanations.clear()
            service.cache.plans.clear()
            gc.collect()
            dropped, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    per_request = (cached - dropped) / len(sqls)
    assert per_request < MAX_BYTES_PER_CACHED_REQUEST, f"{per_request:.0f} B per cached request"
