"""Strategy-pattern experiment runner (the machine-readable bench layer).

The :class:`~repro.bench.harness.ExperimentHarness` knows how to *compute*
every experiment; this module standardises how experiments are *run and
measured* so their results can be exported to ``BENCH_*.json`` and diffed
across PRs:

* :class:`ExperimentStrategy` — the lifecycle contract: ``setup`` once,
  ``execute`` per run (warm-up runs first, excluded from statistics),
  ``teardown`` exactly once even when a run fails;
* :class:`RunResult` — what one run reports: wall-clock duration, named
  metric observations (scalars or per-sample series), counters, and an
  operation count for throughput;
* :class:`StrategyRunner` — drives the lifecycle and pools the measured
  runs into one :class:`StrategyReport` of per-metric summaries
  (p50/p95/p99 via :mod:`repro.obs.stats`), summed counters, and
  aggregate throughput.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.obs.stats import summarize

if TYPE_CHECKING:  # pragma: no cover
    from repro.bench.harness import ExperimentHarness


@dataclass
class ExperimentConfig:
    """How many times a strategy executes and how many runs are warm-up."""

    runs: int = 3
    warmup_runs: int = 1

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.warmup_runs < 0:
            raise ValueError("warmup_runs must be >= 0")


@dataclass
class ExperimentContext:
    """Shared state handed to every lifecycle call.

    ``harness`` is the shared experimental setup; ``state`` is a scratch
    dict a strategy may use to pass artifacts from ``setup`` to ``execute``
    to ``teardown`` (prepared workloads, a running service, ...).
    """

    harness: "ExperimentHarness"
    state: dict[str, Any] = field(default_factory=dict)


@dataclass
class RunResult:
    """What a single :meth:`ExperimentStrategy.execute` call observed.

    ``metrics`` maps a metric name to either one scalar observation or a
    list of per-sample observations; the runner pools observations across
    measured runs, so both shapes end up as the same per-metric summary.
    ``counters`` are summed across measured runs.  ``operations`` is how
    many logical operations the run performed (queries explained, routes
    decided, ...) and feeds the aggregate throughput number.
    """

    metrics: Mapping[str, float | Sequence[float]] = field(default_factory=dict)
    counters: Mapping[str, float] = field(default_factory=dict)
    operations: int = 0


class ExperimentStrategy:
    """Base class for runnable experiments (the strategy interface).

    Subclasses set :attr:`name` (the ``BENCH_<name>.json`` suite name) and
    override :meth:`execute`; ``setup``/``teardown`` default to no-ops and
    :meth:`default_config` supplies the run counts used when the caller
    does not override them.
    """

    #: Suite name; becomes the ``BENCH_<name>.json`` file stem.
    name: str = "experiment"

    def default_config(self) -> ExperimentConfig:
        return ExperimentConfig()

    def setup(self, context: ExperimentContext) -> None:
        """One-time preparation before any run (including warm-ups)."""

    def execute(self, context: ExperimentContext) -> RunResult:
        """One measured (or warm-up) run; must return a :class:`RunResult`."""
        raise NotImplementedError

    def teardown(self, context: ExperimentContext) -> None:
        """One-time cleanup; runs even when setup/execute raised."""


@dataclass
class StrategyReport:
    """Pooled result of all measured runs of one strategy."""

    name: str
    config: ExperimentConfig
    metrics: dict[str, dict[str, float]]
    counters: dict[str, float]
    duration_seconds: dict[str, float]
    operations: int
    ops_per_second: float

    @property
    def throughput(self) -> dict[str, float]:
        return {
            "operations": float(self.operations),
            "ops_per_second": self.ops_per_second,
        }


class StrategyRunner:
    """Runs strategies through the full lifecycle and summarises the runs."""

    def __init__(self, harness: "ExperimentHarness"):
        self.harness = harness

    def run(self, strategy: ExperimentStrategy, config: ExperimentConfig | None = None) -> StrategyReport:
        config = strategy.default_config() if config is None else config
        context = ExperimentContext(harness=self.harness)
        measured: list[tuple[RunResult, float]] = []
        # Teardown must run exactly once no matter where a failure lands —
        # a strategy may hold real resources (a live ExplanationService).
        try:
            strategy.setup(context)
            for run_index in range(config.warmup_runs + config.runs):
                start = time.perf_counter()
                result = strategy.execute(context)
                elapsed = time.perf_counter() - start
                if run_index >= config.warmup_runs:
                    measured.append((result, elapsed))
        finally:
            strategy.teardown(context)
        return self._summarise(strategy.name, config, measured)

    @staticmethod
    def _summarise(
        name: str,
        config: ExperimentConfig,
        measured: list[tuple[RunResult, float]],
    ) -> StrategyReport:
        pooled: dict[str, list[float]] = {}
        counters: dict[str, float] = {}
        durations: list[float] = []
        operations = 0
        for result, elapsed in measured:
            durations.append(elapsed)
            operations += result.operations
            for metric, value in result.metrics.items():
                samples = pooled.setdefault(metric, [])
                if isinstance(value, (int, float)):
                    samples.append(float(value))
                else:
                    samples.extend(float(sample) for sample in value)
            for counter, value in result.counters.items():
                counters[counter] = counters.get(counter, 0.0) + float(value)
        total_seconds = sum(durations)
        return StrategyReport(
            name=name,
            config=config,
            metrics={metric: summarize(samples) for metric, samples in sorted(pooled.items())},
            counters=dict(sorted(counters.items())),
            duration_seconds=summarize(durations),
            operations=operations,
            ops_per_second=(operations / total_seconds) if total_seconds > 0 else 0.0,
        )
