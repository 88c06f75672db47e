"""O1 — what tracing costs on the warm serve path, and what sampling saves.

Beyond the paper: each pass builds three fresh
:class:`~repro.service.server.ExplanationService` instances, one per mode,
and primes each so that every timed request hits the explanation cache
(the fast path, where fixed per-request overhead is proportionally
largest):

* ``off`` — tracing disabled (the default no-op tracer);
* ``traced`` — every request fully traced;
* ``sampled`` — 1 % head sampling, so almost every trace is dropped at the
  root and its children cost next to nothing.

The timed requests are interleaved, one per mode in turn, so a change in
host speed during a pass moves all three series alike and the ratios
measure the tracer rather than the host.

One warm-up pass, then three measured passes.  The bounds are five times
the medians of a reference run (reduced harness) for the latencies and the
pass time, and the reference ratio plus 2.0 for the tracing tax, so only a
blow-up where tracing dominates the warm path fails.  Each figure checked
is a median over the measured passes (nearest rank).
"""

from __future__ import annotations

import time

from benchmarks.conftest import measured_runs, median_of
from repro.bench.reporting import format_table
from repro.obs.sampling import Sampler
from repro.obs.store import TraceStore
from repro.obs.tracing import Tracer, get_tracer, set_tracer
from repro.service import ExplanationService, ServiceConfig

MODES = ("off", "traced", "sampled")
DISTINCT_QUERIES = 8
WARM_REQUESTS = 64
HEAD_PROBABILITY = 0.01
MEASURED_PASSES = 3

#: Warm p50 bounds in ms, by mode.
WARM_P50_MS_BOUNDS = {"off": 0.221, "sampled": 0.257, "traced": 0.304}
#: Bounds on each traced mode's warm p50 over the ``off`` warm p50.
RATIO_BOUNDS = {"traced": 3.25, "sampled": 3.09}
#: One off + traced + sampled pass, service builds and priming included.
PASS_SECONDS_BOUND = 0.987


def _service(harness) -> ExplanationService:
    return ExplanationService(
        harness.system,
        harness.router,
        harness.knowledge_base,
        harness.llm,
        config=ServiceConfig(top_k=harness.top_k),
    )


def _one_pass(harness, sqls: list[str]) -> tuple[dict[str, list[float]], Sampler, float]:
    start = time.perf_counter()
    previous = get_tracer()
    sampler = Sampler(head_probability=HEAD_PROBABILITY, slow_threshold_seconds=None)
    tracers = {
        "off": previous,
        "traced": Tracer(enabled=True, store=TraceStore(max_recent=WARM_REQUESTS + 16)),
        "sampled": Tracer(enabled=True, store=TraceStore(), sampler=sampler),
    }
    services = {mode: _service(harness) for mode in MODES}
    series: dict[str, list[float]] = {mode: [] for mode in MODES}
    try:
        for mode in MODES:  # prime each service cold, under its own tracer
            set_tracer(tracers[mode])
            for sql in sqls:
                assert services[mode].explain(sql).ok
        for i in range(WARM_REQUESTS):
            for mode in MODES:
                set_tracer(tracers[mode])
                begin = time.perf_counter()
                result = services[mode].explain(sqls[i % len(sqls)])
                series[mode].append(time.perf_counter() - begin)
                assert result.ok and result.cache_hit
    finally:
        set_tracer(previous)
        for service in services.values():
            service.shutdown()
    return series, sampler, time.perf_counter() - start


def test_bench_obs_overhead(benchmark, harness):
    sqls = [labeled.sql for labeled in harness.dataset.test[:DISTINCT_QUERIES]]
    passes = measured_runs(benchmark, _one_pass, harness, sqls, runs=MEASURED_PASSES)

    warm_p50_ms = {
        mode: median_of(value for series, _, _ in passes for value in series[mode]) * 1000.0
        for mode in MODES
    }
    ratios = {
        mode: median_of(median_of(series[mode]) / median_of(series["off"]) for series, _, _ in passes)
        for mode in RATIO_BOUNDS
    }
    pass_seconds = median_of(seconds for _, _, seconds in passes)
    print()
    print(
        format_table(
            [
                {
                    "mode": mode,
                    "warm p50 (ms)": round(warm_p50_ms[mode], 4),
                    "p50 / off": round(ratios[mode], 3) if mode in ratios else 1.0,
                }
                for mode in MODES
            ],
            title=f"O1  Tracing tax on the warm path ({MEASURED_PASSES} passes x {WARM_REQUESTS} requests)",
        )
    )
    print(f"one off + traced + sampled pass: {pass_seconds:.3f} s")

    # The sampler really drops what it claims to.
    for _, sampler, _ in passes:
        assert sampler.dropped > sampler.kept
    for mode, bound in WARM_P50_MS_BOUNDS.items():
        assert warm_p50_ms[mode] <= bound, mode
    for mode, bound in RATIO_BOUNDS.items():
        assert ratios[mode] <= bound, mode
    assert pass_seconds <= PASS_SECONDS_BOUND
