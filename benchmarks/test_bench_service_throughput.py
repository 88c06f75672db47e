"""S1 — serving-layer throughput and cache-hit speedup.

Beyond the paper: the ROADMAP's north star is serving heavy concurrent
traffic, so this benchmark drives the new
:class:`~repro.service.server.ExplanationService` with a 32-way concurrent,
repeating workload and reports

* end-to-end throughput vs. the bare blocking :class:`RagExplainer`,
* the warm-cache / cold-request latency ratio (acceptance: >= 10x),
* micro-batch coalescing (mean batch size of the batched router path), and
* that ``SmartRouter.embed_batch`` reproduces per-pair embeddings
  (atol 1e-9).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from benchmarks.conftest import run_once
from repro.bench.reporting import format_table
from repro.service import ExplanationService, ServiceConfig

CONCURRENCY = 32
DISTINCT_QUERIES = 24
TOTAL_REQUESTS = 96


def _timed(function, argument) -> tuple[object, float]:
    start = time.perf_counter()
    result = function(argument)
    return result, time.perf_counter() - start


def _run_service_experiment(harness) -> dict:
    sqls = [labeled.sql for labeled in harness.dataset.test[:DISTINCT_QUERIES]]

    # Baseline: the bare blocking explainer, one query at a time.
    baseline_start = time.perf_counter()
    for sql in sqls[: DISTINCT_QUERIES // 2]:
        harness.explainer.explain_sql(sql)
    baseline_seconds_per_query = (time.perf_counter() - baseline_start) / (DISTINCT_QUERIES // 2)

    service = ExplanationService(
        harness.system,
        harness.router,
        harness.knowledge_base,
        harness.llm,
        config=ServiceConfig(
            top_k=harness.top_k, max_workers=8, max_in_flight=TOTAL_REQUESTS + CONCURRENCY
        ),
    )
    try:
        # Phase A — cold, sequential: per-request end-to-end cold latency.
        cold_seconds = []
        for sql in sqls[: DISTINCT_QUERIES // 2]:
            result, seconds = _timed(service.explain, sql)
            assert result.ok and not result.cache_hit
            cold_seconds.append(seconds)

        # Phase B — 32-way concurrent repeating workload over all queries:
        # half are warm from phase A, half arrive cold concurrently and
        # exercise the micro-batcher.
        workload = [sqls[i % len(sqls)] for i in range(TOTAL_REQUESTS)]
        service_start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=CONCURRENCY) as pool:
            results = list(pool.map(service.explain, workload))
        service_seconds = time.perf_counter() - service_start
        errors = [result for result in results if not result.ok]
        cache_hits = sum(result.cache_hit for result in results)

        # Phase C — warm, sequential: everything is cached now.
        warm_seconds = []
        for sql in sqls:
            result, seconds = _timed(service.explain, sql)
            assert result.ok and result.cache_hit
            warm_seconds.append(seconds)

        # Batched vs per-pair embedding equivalence on the same plans.
        pairs = [labeled.execution.plan_pair for labeled in harness.dataset.test[:16]]
        batched = harness.router.embed_batch(pairs)
        singles = np.stack([harness.router.embed_pair(pair) for pair in pairs])
        max_abs_diff = float(np.max(np.abs(batched - singles)))

        mean_cold = sum(cold_seconds) / len(cold_seconds)
        mean_warm = sum(warm_seconds) / len(warm_seconds)
        snapshot = service.metrics_snapshot()
        return {
            "requests": len(results),
            "errors": len(errors),
            "cache_hits": cache_hits,
            "service_throughput_qps": len(results) / service_seconds,
            "baseline_throughput_qps": 1.0 / baseline_seconds_per_query,
            "mean_cold_ms": 1e3 * mean_cold,
            "mean_warm_ms": 1e3 * mean_warm,
            "warm_speedup": mean_cold / mean_warm,
            "mean_batch_size": snapshot["batching"]["mean_batch_size"],
            "p99_cold_ms": 1e3 * snapshot["latency.cold_seconds"]["p99"],
            "p50_warm_ms": 1e3 * snapshot["latency.warm_seconds"]["p50"],
            "embed_batch_max_abs_diff": max_abs_diff,
            "explanation_hit_rate": snapshot["cache"]["explanations"]["hit_rate"],
        }
    finally:
        service.shutdown()


def test_bench_service_throughput(benchmark, harness):
    report = run_once(benchmark, _run_service_experiment, harness)
    rows = [
        {"metric": f"{CONCURRENCY}-way concurrent requests", "value": report["requests"]},
        {"metric": "errors", "value": report["errors"]},
        {"metric": "cache hits", "value": report["cache_hits"]},
        {"metric": "service throughput (req/s)", "value": round(report["service_throughput_qps"], 1)},
        {"metric": "bare RagExplainer (req/s)", "value": round(report["baseline_throughput_qps"], 1)},
        {"metric": "mean cold latency (ms)", "value": round(report["mean_cold_ms"], 3)},
        {"metric": "mean warm latency (ms)", "value": round(report["mean_warm_ms"], 4)},
        {"metric": "warm-cache speedup (x)", "value": round(report["warm_speedup"], 1)},
        {"metric": "p99 cold latency (ms)", "value": round(report["p99_cold_ms"], 3)},
        {"metric": "p50 warm latency (ms)", "value": round(report["p50_warm_ms"], 4)},
        {"metric": "mean encode batch size", "value": round(report["mean_batch_size"], 2)},
        {"metric": "embed_batch max |diff|", "value": f"{report['embed_batch_max_abs_diff']:.2e}"},
        {"metric": "explanation cache hit rate", "value": round(report["explanation_hit_rate"], 3)},
    ]
    print()
    print(format_table(rows, title="S1  ExplanationService throughput and caching"))

    # Acceptance criteria for the serving layer.
    assert report["errors"] == 0
    assert report["requests"] == TOTAL_REQUESTS
    assert report["cache_hits"] > 0
    assert report["warm_speedup"] >= 10.0
    assert report["embed_batch_max_abs_diff"] <= 1e-9
    # Concurrency + caching must beat the blocking baseline's throughput.
    assert report["service_throughput_qps"] > report["baseline_throughput_qps"]
