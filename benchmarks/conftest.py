"""Shared fixtures for the benchmark suite.

Every benchmark reproduces one table or figure from the paper (the mapping
is the per-experiment index in DESIGN.md).  They all share one
:class:`~repro.bench.harness.ExperimentHarness` built at the paper's
experimental scale (SF=100 statistics, 20-entry knowledge base, 200-query
test set, K=2 retrieval).  Measured values are printed as aligned tables so
``pytest benchmarks/ --benchmark-only`` output can be compared against
EXPERIMENTS.md directly.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentHarness
from repro.obs.stats import percentile


@pytest.fixture(scope="session")
def harness() -> ExperimentHarness:
    return ExperimentHarness()


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The experiments are deterministic and some take seconds; a single round
    keeps the suite fast while still recording wall-clock time per experiment.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def measured_runs(benchmark, function, *args, runs: int, warmup_runs: int = 1):
    """``warmup_runs`` untimed calls, then ``runs`` calls timed as one round.

    Returns the measured results.  The regression bounds hold the median
    of these runs (:func:`median_of`), so one noisy run does not fail them.
    """
    for _ in range(warmup_runs):
        function(*args)
    return run_once(benchmark, lambda: [function(*args) for _ in range(runs)])


def median_of(values) -> float:
    """Nearest-rank median (of two values, the lower one)."""
    return percentile(list(values), 0.5)
