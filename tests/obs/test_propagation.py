"""Context propagation across thread hops — the regression tests for lost
span parentage.

The serving layer crosses threads twice: request work moves onto a
ThreadPoolExecutor worker, and encodes move onto the micro-batcher's
scheduler thread.  ``contextvars`` do not follow either hop on their own,
so each test pins the explicit re-parenting mechanism (``Tracer.attach``
for the pool, captured parent + ``Tracer.record_span`` for the batcher).
A regression that drops either mechanism turns nested stage spans into
orphans, and these tests fail.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.obs.tracing import NULL_SPAN, Tracer, traced
from repro.service import ExplanationService, ServiceConfig
from repro.service.batching import MicroBatcher


# ----------------------------------------------------------- synthetic hops
def test_worker_thread_span_is_orphaned_without_attach():
    tracer = Tracer(enabled=True)
    root = tracer.span("request", root=True)
    seen: list[object] = []

    def worker() -> None:
        # No attach: the pool thread has no ambient span, so a child-only
        # span must refuse to record rather than start a parentless trace.
        seen.append(tracer.span("stage"))

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    root.end()
    assert seen == [NULL_SPAN]
    assert tracer.store.recent(1)[0].span_names() == ["request"]


def test_attach_reparents_worker_thread_spans():
    tracer = Tracer(enabled=True)
    root = tracer.span("request", root=True)

    def worker() -> None:
        with tracer.attach(root):
            with tracer.span("stage"):
                pass

    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(worker).result()
    root.end()
    trace = tracer.store.recent(1)[0]
    stage = trace.find("stage")[0]
    assert stage.parent_id == root.span_id
    assert stage.trace_id == root.trace_id


def test_attach_does_not_leak_across_requests():
    """The ambient span must be reset when attach exits, so a reused pool
    thread does not parent the next request's spans under the old root."""
    tracer = Tracer(enabled=True)
    root = tracer.span("request", root=True)
    with ThreadPoolExecutor(max_workers=1) as pool:

        def first() -> None:
            with tracer.attach(root):
                pass

        def second() -> object:
            return tracer.span("stray")  # same thread, after attach exited

        pool.submit(first).result()
        assert pool.submit(second).result() is NULL_SPAN
    root.end()
    assert tracer.store.recent(1)[0].span_names() == ["request"]


# ------------------------------------------------------------- micro-batcher
def test_microbatch_flush_span_parents_under_submitting_request(
    trained_router, labeled_workload
):
    pair = labeled_workload[0].execution.plan_pair
    with traced() as tracer:
        with MicroBatcher(trained_router) as batcher:
            with tracer.span("request", root=True) as root:
                with tracer.span("pipeline.encode") as encode:
                    batcher.encode(pair)
    trace = tracer.store.recent(1)[0]
    embed_spans = trace.find("router.embed_batch")
    assert len(embed_spans) == 1
    # The flush ran on the scheduler thread, but its span must hang off the
    # span that was ambient on the *submitting* thread.
    assert embed_spans[0].parent_id == encode.span_id
    assert embed_spans[0].trace_id == root.trace_id
    assert embed_spans[0].attributes["batch_size"] == 1
    assert embed_spans[0].duration_seconds > 0.0


def test_coalesced_batch_reparents_each_request_separately(
    trained_router, labeled_workload
):
    pairs = [labeled.execution.plan_pair for labeled in labeled_workload[:6]]
    with traced() as tracer:
        with MicroBatcher(trained_router, max_batch_size=6, max_wait_seconds=0.05) as batcher:
            barrier = threading.Barrier(len(pairs))
            roots: list[object] = [None] * len(pairs)

            def request(position: int) -> None:
                root = tracer.span("request", root=True)
                roots[position] = root
                with tracer.attach(root):
                    barrier.wait()
                    batcher.encode(pairs[position])
                root.end()

            threads = [threading.Thread(target=request, args=(i,)) for i in range(len(pairs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    traces = tracer.store.recent()
    assert len(traces) == len(pairs)
    trace_ids = set()
    for trace in traces:
        embed_spans = trace.find("router.embed_batch")
        assert len(embed_spans) == 1, "each request gets exactly one embed span"
        assert embed_spans[0].parent_id == trace.root.span_id
        trace_ids.add(trace.trace_id)
    assert len(trace_ids) == len(pairs), "no cross-request trace bleed"


# --------------------------------------------------------- full served path
def test_served_request_trace_has_all_stages_parented(
    system, trained_router, knowledge_base, simulated_llm
):
    with traced() as tracer:
        service = ExplanationService(
            system, trained_router, knowledge_base, simulated_llm,
            config=ServiceConfig(max_workers=2),
        )
        try:
            result = service.explain("SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'p';")
            assert result.ok
        finally:
            service.shutdown()
    trace = tracer.store.recent(1)[0]
    assert trace.name == "service.explain"
    names = trace.span_names()
    for stage in (
        "htap.parse",
        "htap.optimize",
        "htap.execute",
        "pipeline.encode",
        "pipeline.retrieve",
        "pipeline.generate",
    ):
        assert stage in names, f"missing stage span {stage}"
    by_id = {span.span_id: span for span in trace.spans}
    for span in trace.spans:
        assert span.trace_id == trace.trace_id
        if span.parent_id is None:
            assert span is trace.root or span.name == "service.explain"
        else:
            assert span.parent_id in by_id, f"orphaned span {span.name}"
        assert span.duration_seconds > 0.0
    # The batcher hop: router.embed_batch must sit under pipeline.encode.
    embed = trace.find("router.embed_batch")[0]
    assert by_id[embed.parent_id].name == "pipeline.encode"
    assert trace.root.attributes["status"] == "ok"


def test_warm_request_trace_marks_l1_hit(
    system, trained_router, knowledge_base, simulated_llm
):
    sql = "SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'machinery';"
    with traced() as tracer:
        service = ExplanationService(
            system, trained_router, knowledge_base, simulated_llm,
            config=ServiceConfig(max_workers=2),
        )
        try:
            assert service.explain(sql).ok
            warm = service.explain(sql)
            assert warm.ok and warm.cache_hit
        finally:
            service.shutdown()
    warm_trace = tracer.store.recent(1)[0]
    assert warm_trace.root.attributes.get("cache") == "l1_hit"
    lookup = warm_trace.find("cache.l1_lookup")[0]
    assert lookup.attributes["hit"] is True
