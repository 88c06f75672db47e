"""Diff a fresh bench run against the committed ``BENCH_*.json`` baselines.

This is the CI regression gate: ``repro-bench compare`` loads the baseline
files at the repo root and the just-written files from the run directory,
applies per-metric tolerances, and exits nonzero when any gated metric
regressed (exit 1) or a baseline/schema problem makes the diff impossible
(exit 2).

Tolerances are *directional* and deliberately asymmetric:

* timing metrics gate only on getting **slower**, with a generous relative
  margin (CI runners vary a lot; the gate exists to catch order-of-
  magnitude regressions — a lost cache, a broken batcher — not 20% noise);
* throughput / accuracy / hit-rate metrics gate only on getting **worse
  downward**, with tighter margins because they are workload-deterministic;
* error-shaped counters gate exactly: any increase over baseline fails;
* everything else is informational — reported, never gating.

Gating compares the **p50** of each metric summary (robust to one noisy
run); the full summaries stay in the JSON for human inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Iterable

from repro.bench.export import BenchSchemaError, bench_filename, load_bench

#: Exit codes for the ``compare`` subcommand.
EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_ERROR = 2


class Direction(Enum):
    LOWER_IS_BETTER = "lower"
    HIGHER_IS_BETTER = "higher"
    INFORMATIONAL = "info"


@dataclass(frozen=True)
class Tolerance:
    """Allowed slack before a directional change counts as a regression.

    The allowed slack is ``max(rel * |baseline|, abs)`` of whichever bounds
    are set; with neither set the metric is informational.
    """

    direction: Direction
    rel: float | None = None
    abs: float | None = None

    def slack(self, baseline: float) -> float:
        candidates = [0.0]
        if self.rel is not None:
            candidates.append(self.rel * abs(baseline))
        if self.abs is not None:
            candidates.append(self.abs)
        return max(candidates)

    def is_regression(self, baseline: float, current: float, scale: float = 1.0) -> bool:
        if self.direction is Direction.INFORMATIONAL:
            return False
        slack = self.slack(baseline) * scale
        if self.direction is Direction.LOWER_IS_BETTER:
            return current > baseline + slack
        return current < baseline - slack


#: First-match-wins (pattern, tolerance) pairs matched against the metric
#: path (e.g. ``metrics.inference_seconds``, ``counters.errors``).
DEFAULT_TOLERANCES: tuple[tuple[str, Tolerance], ...] = (
    ("counters.*error*", Tolerance(Direction.LOWER_IS_BETTER, abs=0.0)),
    ("counters.*failed*", Tolerance(Direction.LOWER_IS_BETTER, abs=0.0)),
    ("counters.*shed*", Tolerance(Direction.LOWER_IS_BETTER, abs=0.0)),
    ("counters.*deadline*", Tolerance(Direction.LOWER_IS_BETTER, abs=0.0)),
    ("*accuracy*", Tolerance(Direction.HIGHER_IS_BETTER, abs=0.10)),
    ("*ops_per_second*", Tolerance(Direction.HIGHER_IS_BETTER, rel=0.80)),
    # Observability-tax ratios sit near 1.0 but are measured over tens of
    # microseconds of warm-path latency, so they wobble hard with runner
    # load; gate only the order-of-magnitude blowups where tracing
    # suddenly dominates the warm path.
    ("*overhead_ratio*", Tolerance(Direction.LOWER_IS_BETTER, rel=1.0, abs=2.0)),
    ("*model_size*", Tolerance(Direction.LOWER_IS_BETTER, rel=0.25)),
    ("*parameter*", Tolerance(Direction.LOWER_IS_BETTER, rel=0.25)),
    ("duration_seconds", Tolerance(Direction.LOWER_IS_BETTER, rel=4.0)),
    ("*seconds*", Tolerance(Direction.LOWER_IS_BETTER, rel=4.0)),
    ("*_ms*", Tolerance(Direction.LOWER_IS_BETTER, rel=4.0)),
    ("*latency*", Tolerance(Direction.LOWER_IS_BETTER, rel=4.0)),
)

_INFORMATIONAL = Tolerance(Direction.INFORMATIONAL)


def tolerance_for(path: str, tolerances: Iterable[tuple[str, Tolerance]] = DEFAULT_TOLERANCES) -> Tolerance:
    for pattern, tolerance in tolerances:
        if fnmatch(path, pattern):
            return tolerance
    return _INFORMATIONAL


class Verdict(Enum):
    PASS = "pass"
    REGRESSION = "regression"
    INFO = "info"
    MISSING_BASELINE = "missing-baseline"
    MISSING_IN_CURRENT = "missing-in-current"
    NEW_METRIC = "new-metric"
    ERROR = "error"


@dataclass
class MetricVerdict:
    suite: str
    metric: str
    verdict: Verdict
    baseline: float | None = None
    current: float | None = None
    allowed_slack: float | None = None
    note: str = ""

    def as_row(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "metric": self.metric,
            "baseline": "-" if self.baseline is None else round(self.baseline, 6),
            "current": "-" if self.current is None else round(self.current, 6),
            "verdict": self.verdict.value,
            "note": self.note,
        }


@dataclass
class ComparisonReport:
    verdicts: list[MetricVerdict]

    @property
    def regressions(self) -> list[MetricVerdict]:
        return [v for v in self.verdicts if v.verdict is Verdict.REGRESSION]

    @property
    def errors(self) -> list[MetricVerdict]:
        return [
            v
            for v in self.verdicts
            if v.verdict in (Verdict.MISSING_BASELINE, Verdict.MISSING_IN_CURRENT, Verdict.ERROR)
        ]

    @property
    def exit_code(self) -> int:
        if self.errors:
            return EXIT_ERROR
        if self.regressions:
            return EXIT_REGRESSION
        return EXIT_OK


def _gatable_values(payload: dict[str, Any]) -> dict[str, float]:
    """Flatten a payload into ``path -> gate value`` (p50 for summaries)."""
    values: dict[str, float] = {"duration_seconds": float(payload["duration_seconds"]["p50"])}
    for name, summary in payload["metrics"].items():
        values[f"metrics.{name}"] = float(summary["p50"])
    for name, value in payload["counters"].items():
        values[f"counters.{name}"] = float(value)
    values["throughput.ops_per_second"] = float(payload["throughput"]["ops_per_second"])
    return values


def compare_payloads(
    current: dict[str, Any],
    baseline: dict[str, Any],
    *,
    tolerances: Iterable[tuple[str, Tolerance]] = DEFAULT_TOLERANCES,
    scale: float = 1.0,
) -> list[MetricVerdict]:
    """Per-metric verdicts for one suite; gates on the p50 of each summary."""
    suite = str(current.get("suite", "?"))
    tolerances = tuple(tolerances)
    if baseline.get("profile") != current.get("profile"):
        return [
            MetricVerdict(
                suite,
                "profile",
                Verdict.ERROR,
                note=(
                    f"profile mismatch: baseline {baseline.get('profile')!r} "
                    f"vs current {current.get('profile')!r}"
                ),
            )
        ]
    verdicts: list[MetricVerdict] = []
    baseline_values = _gatable_values(baseline)
    current_values = _gatable_values(current)
    for path, baseline_value in baseline_values.items():
        if path not in current_values:
            verdicts.append(
                MetricVerdict(
                    suite,
                    path,
                    Verdict.MISSING_IN_CURRENT,
                    baseline=baseline_value,
                    note="metric present in baseline but absent from this run",
                )
            )
            continue
        current_value = current_values[path]
        tolerance = tolerance_for(path, tolerances)
        if tolerance.direction is Direction.INFORMATIONAL:
            verdicts.append(
                MetricVerdict(suite, path, Verdict.INFO, baseline=baseline_value, current=current_value)
            )
            continue
        slack = tolerance.slack(baseline_value) * scale
        if tolerance.is_regression(baseline_value, current_value, scale):
            worse = "slower" if tolerance.direction is Direction.LOWER_IS_BETTER else "lower"
            verdicts.append(
                MetricVerdict(
                    suite,
                    path,
                    Verdict.REGRESSION,
                    baseline=baseline_value,
                    current=current_value,
                    allowed_slack=slack,
                    note=f"{worse} than baseline beyond allowed slack {slack:.6g}",
                )
            )
        else:
            verdicts.append(
                MetricVerdict(
                    suite,
                    path,
                    Verdict.PASS,
                    baseline=baseline_value,
                    current=current_value,
                    allowed_slack=slack,
                )
            )
    for path, current_value in current_values.items():
        if path not in baseline_values:
            verdicts.append(
                MetricVerdict(
                    suite,
                    path,
                    Verdict.NEW_METRIC,
                    current=current_value,
                    note="not in baseline; commit a refreshed baseline to start gating it",
                )
            )
    return verdicts


def compare_directories(
    current_dir: str | Path,
    baseline_dir: str | Path,
    suites: Iterable[str],
    *,
    tolerances: Iterable[tuple[str, Tolerance]] = DEFAULT_TOLERANCES,
    scale: float = 1.0,
) -> ComparisonReport:
    """Compare every suite's ``BENCH_*.json`` between two directories."""
    verdicts: list[MetricVerdict] = []
    for suite in suites:
        baseline_path = Path(baseline_dir) / bench_filename(suite)
        current_path = Path(current_dir) / bench_filename(suite)
        if not baseline_path.exists():
            verdicts.append(
                MetricVerdict(
                    suite,
                    "-",
                    Verdict.MISSING_BASELINE,
                    note=f"no committed baseline at {baseline_path}",
                )
            )
            continue
        if not current_path.exists():
            verdicts.append(
                MetricVerdict(
                    suite,
                    "-",
                    Verdict.MISSING_IN_CURRENT,
                    note=f"run did not produce {current_path}",
                )
            )
            continue
        try:
            baseline = load_bench(baseline_path)
            current = load_bench(current_path)
        except BenchSchemaError as exc:
            verdicts.append(MetricVerdict(suite, "-", Verdict.ERROR, note=str(exc)))
            continue
        verdicts.extend(compare_payloads(current, baseline, tolerances=tolerances, scale=scale))
    return ComparisonReport(verdicts)
