"""Concrete :class:`~repro.bench.runner.ExperimentStrategy` suites.

Each strategy wraps an existing experiment — one of the paper's, through
the harness methods the pytest benchmarks already exercise, or the
tracing tax on the serving layer — and reshapes its observations into
the runner's metric model so ``repro-bench run`` can export one
``BENCH_<suite>.json`` per suite:

* ``latency`` — per-stage explanation latency over a test-set sample
  (encode / search / LLM thinking / LLM generation / total);
* ``router`` — tree-CNN routing accuracy, inference latency series, and
  model footprint;
* ``kb_scaling`` — flat vs HNSW search latency across KB sizes (the
  scenario axis from the TPC-H exemplar: one workload shape per store ×
  size point);
* ``obs_overhead`` — the observability tax on the warm serve path:
  per-request latency with tracing off, fully traced, and 1%
  head-sampled, plus ``overhead_ratio.*`` scalars gating that the
  instrumentation stays cheap and sampling keeps it near-free.

Served-request latency, capacity and answer correctness are gated by
``perfbench`` (``BENCHMARK.json``), not here.  This module imports
:mod:`repro.service`; import it directly rather than through
``repro.bench``.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import Any

from repro.bench.harness import ExperimentHarness
from repro.bench.runner import (
    ExperimentConfig,
    ExperimentContext,
    ExperimentStrategy,
    RunResult,
)
from repro.service import ExplanationService, ServiceConfig

#: Harness scales the CLI can build.  ``quick`` mirrors the reduced harness
#: the unit tests use (same code paths, ~seconds to build) and is what CI
#: and the committed baselines run; ``paper`` is the full experimental
#: scale of the pytest benchmark suite.
PROFILES: dict[str, dict[str, Any]] = {
    "quick": {
        "knowledge_base_size": 12,
        "test_size": 40,
        "router_training_size": 60,
        "router_epochs": 8,
    },
    "paper": {},
}


def build_harness(profile: str) -> ExperimentHarness:
    try:
        overrides = PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}") from None
    return ExperimentHarness(**overrides)


def harness_config(harness: ExperimentHarness) -> dict[str, Any]:
    """The init parameters that define an experimental setup (for export)."""
    return {
        "scale_factor": harness.scale_factor,
        "knowledge_base_size": harness.knowledge_base_size,
        "test_size": harness.test_size,
        "router_training_size": harness.router_training_size,
        "router_epochs": harness.router_epochs,
        "top_k": harness.top_k,
        "seed": harness.seed,
    }


class LatencyBreakdownStrategy(ExperimentStrategy):
    """E7 as a suite: per-stage latency series over a test-set sample."""

    name = "latency"

    def __init__(self, sample_size: int = 24):
        self.sample_size = sample_size

    def default_config(self) -> ExperimentConfig:
        return ExperimentConfig(runs=3, warmup_runs=1)

    def setup(self, context: ExperimentContext) -> None:
        sample = context.harness.dataset.test[: self.sample_size]
        if not sample:
            raise ValueError("test set is empty; cannot measure latency")
        context.state["sample"] = sample

    def execute(self, context: ExperimentContext) -> RunResult:
        harness = context.harness
        profiles = [
            harness.explainer.explain_execution(labeled.execution).latency
            for labeled in context.state["sample"]
        ]
        return RunResult(
            metrics={
                "encode_seconds": [profile.encode_seconds for profile in profiles],
                "search_seconds": [profile.search_seconds for profile in profiles],
                "llm_thinking_seconds": [profile.llm_thinking_seconds for profile in profiles],
                "llm_generation_seconds": [profile.llm_generation_seconds for profile in profiles],
                "total_seconds": [profile.total_seconds for profile in profiles],
            },
            counters={"explanations": len(profiles)},
            operations=len(profiles),
        )


class RouterInferenceStrategy(ExperimentStrategy):
    """E10 as a suite: routing accuracy plus an inference-latency series."""

    name = "router"

    def __init__(self, sample_size: int = 40):
        self.sample_size = sample_size

    def default_config(self) -> ExperimentConfig:
        return ExperimentConfig(runs=3, warmup_runs=1)

    def setup(self, context: ExperimentContext) -> None:
        sample = context.harness.dataset.test[: self.sample_size]
        if not sample:
            raise ValueError("test set is empty; cannot benchmark the router")
        context.state["sample"] = sample

    def execute(self, context: ExperimentContext) -> RunResult:
        harness = context.harness
        sample = context.state["sample"]
        timings = [
            harness.router.route(labeled.execution.plan_pair).inference_seconds
            for labeled in sample
        ]
        return RunResult(
            metrics={
                "inference_seconds": timings,
                "routing_accuracy": harness.router.accuracy(sample),
                "model_size_bytes": float(harness.router.model_size_bytes()),
                "parameter_count": float(harness.router.parameter_count()),
            },
            counters={"routed": len(sample)},
            operations=len(sample),
        )


class KBScalingStrategy(ExperimentStrategy):
    """E11 as a suite: flat vs HNSW search latency per KB-size point."""

    name = "kb_scaling"

    def __init__(self, sizes: tuple[int, ...] = (20, 200, 1000), k: int = 2, queries_per_point: int = 20):
        self.sizes = sizes
        self.k = k
        # kb_scaling() averages over (up to) 20 test-set query vectors.
        self.queries_per_point = queries_per_point

    def default_config(self) -> ExperimentConfig:
        return ExperimentConfig(runs=2, warmup_runs=1)

    def execute(self, context: ExperimentContext) -> RunResult:
        rows = context.harness.kb_scaling(sizes=self.sizes, k=self.k)
        metrics: dict[str, float] = {
            f"search_ms.{row.store}.n{row.kb_size}": row.search_ms for row in rows
        }
        return RunResult(
            metrics=metrics,
            counters={"store_size_points": len(rows)},
            operations=len(rows) * self.queries_per_point,
        )


class ObsOverheadStrategy(ExperimentStrategy):
    """What tracing costs on the warm serve path — and what sampling saves.

    Three passes over the same warm workload, each against a fresh
    :class:`ExplanationService` primed so every measured request hits the
    explanation cache (the fast path, where fixed per-request overhead is
    proportionally largest):

    * ``off`` — tracing disabled (the default no-op tracer);
    * ``traced`` — every request fully traced at 100%;
    * ``sampled`` — 1% head sampling, so almost every trace is dropped at
      the root and children cost near-zero.

    The ``overhead_ratio.traced`` / ``overhead_ratio.sampled`` scalars are
    the p50 warm latency of each mode over the ``off`` mode; the committed
    baseline gates that full tracing stays cheap and that head sampling
    keeps the tax near 1.0×.  Sampler kept/dropped counters ride along so
    the baseline also proves the sampler actually dropped the traces it
    claims to.
    """

    name = "obs_overhead"

    MODES: tuple[str, ...] = ("off", "traced", "sampled")

    def __init__(
        self,
        distinct_queries: int = 8,
        warm_requests: int = 64,
        head_probability: float = 0.01,
        max_workers: int = 4,
    ):
        self.distinct_queries = distinct_queries
        self.warm_requests = warm_requests
        self.head_probability = head_probability
        self.max_workers = max_workers

    def default_config(self) -> ExperimentConfig:
        return ExperimentConfig(runs=2, warmup_runs=1)

    def setup(self, context: ExperimentContext) -> None:
        sqls = [labeled.sql for labeled in context.harness.dataset.test[: self.distinct_queries]]
        if not sqls:
            raise ValueError("test set is empty; cannot measure tracing overhead")
        context.state["sqls"] = sqls

    def _drive(self, context: ExperimentContext) -> list[float]:
        """Prime a fresh service cold, then time the warm workload."""
        harness = context.harness
        sqls: list[str] = context.state["sqls"]
        service = ExplanationService(
            harness.system,
            harness.router,
            harness.knowledge_base,
            harness.llm,
            config=ServiceConfig(top_k=harness.top_k, max_workers=self.max_workers),
        )
        try:
            for sql in sqls:
                result = service.explain(sql)
                if not result.ok:
                    raise RuntimeError(f"priming request failed: {result.error}")
            warm_seconds: list[float] = []
            for i in range(self.warm_requests):
                sql = sqls[i % len(sqls)]
                start = time.perf_counter()
                result = service.explain(sql)
                warm_seconds.append(time.perf_counter() - start)
                if not (result.ok and result.cache_hit):
                    raise RuntimeError("warm request missed the explanation cache")
            return warm_seconds
        finally:
            service.shutdown()

    def execute(self, context: ExperimentContext) -> RunResult:
        from statistics import median

        from repro.obs.sampling import Sampler
        from repro.obs.store import TraceStore
        from repro.obs.tracing import traced

        series: dict[str, list[float]] = {}
        series["off"] = self._drive(context)

        with traced(store=TraceStore(max_recent=self.warm_requests + 16)):
            series["traced"] = self._drive(context)

        sampler = Sampler(
            head_probability=self.head_probability,
            slow_threshold_seconds=None,
        )
        with traced(store=TraceStore(), sampler=sampler):
            series["sampled"] = self._drive(context)

        baseline = median(series["off"])
        if baseline <= 0:
            raise RuntimeError("warm baseline latency collapsed to zero")
        metrics: dict[str, Any] = {
            f"warm_seconds.{mode}": series[mode] for mode in self.MODES
        }
        metrics["overhead_ratio.traced"] = median(series["traced"]) / baseline
        metrics["overhead_ratio.sampled"] = median(series["sampled"]) / baseline
        operations = sum(len(values) for values in series.values())
        return RunResult(
            metrics=metrics,
            counters={
                "requests_per_mode": self.warm_requests,
                "sampler_kept": sampler.kept,
                "sampler_dropped": sampler.dropped,
            },
            operations=operations,
        )


def build_suites(
    only: tuple[str, ...] | None = None,
) -> dict[str, ExperimentStrategy]:
    """The suite registry, optionally filtered to the requested names."""
    strategies: tuple[ExperimentStrategy, ...] = (
        LatencyBreakdownStrategy(),
        RouterInferenceStrategy(),
        KBScalingStrategy(),
        ObsOverheadStrategy(),
    )
    registry = {strategy.name: strategy for strategy in strategies}
    if only is None:
        return registry
    unknown = sorted(set(only) - set(registry))
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}; available: {sorted(registry)}")
    return {name: registry[name] for name in registry if name in only}


def config_overrides(runs: int | None, warmup_runs: int | None, base: ExperimentConfig) -> ExperimentConfig:
    """Apply CLI ``--runs`` / ``--warmups`` overrides onto a default config."""
    merged = asdict(base)
    if runs is not None:
        merged["runs"] = runs
    if warmup_runs is not None:
        merged["warmup_runs"] = warmup_runs
    return ExperimentConfig(**merged)
