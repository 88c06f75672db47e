"""``BENCH_<suite>.json`` export — the machine-readable perf trajectory.

One file per suite, written at the repo root and committed, so every PR's
perf numbers are diffable and :mod:`repro.bench.compare` can gate CI on
them.  The schema is versioned and deliberately flat:

.. code-block:: json

    {
      "schema_version": 1,
      "suite": "router",
      "profile": "quick",
      "harness": {"scale_factor": 100.0, "...": "..."},
      "config": {"runs": 3, "warmup_runs": 1},
      "duration_seconds": {"count": 3, "mean": 0.1, "p50": 0.1, "...": 0.1},
      "metrics": {"inference_seconds": {"count": 120, "p50": 0.0004, "...": 0.1}},
      "counters": {"routed": 120},
      "throughput": {"operations": 120, "ops_per_second": 2900.0}
    }

Every ``metrics`` entry is the :func:`repro.obs.stats.summarize` shape
(count / mean / min / p50 / p95 / p99 / max), so percentile semantics are
identical across suites and across the serving-layer histograms.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any

from repro.bench.runner import StrategyReport

#: Bump on any breaking change to the payload shape; ``compare`` refuses to
#: diff across versions.
SCHEMA_VERSION = 1

#: Keys every exported payload must carry, in the order they are written.
REQUIRED_KEYS = (
    "schema_version",
    "suite",
    "profile",
    "harness",
    "config",
    "duration_seconds",
    "metrics",
    "counters",
    "throughput",
)

#: Keys every per-metric summary must carry (the `summarize` shape).
SUMMARY_KEYS = ("count", "mean", "min", "p50", "p95", "p99", "max")


class BenchSchemaError(ValueError):
    """A payload does not conform to the ``BENCH_*.json`` schema."""


def bench_filename(suite: str) -> str:
    """``BENCH_<suite>.json`` — the committed artifact name for a suite."""
    return f"BENCH_{suite}.json"


def bench_path(directory: str | Path, suite: str) -> Path:
    return Path(directory) / bench_filename(suite)


def report_to_payload(
    report: StrategyReport,
    *,
    profile: str,
    harness_config: dict[str, Any],
) -> dict[str, Any]:
    """Convert a :class:`StrategyReport` into the versioned export shape."""
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": report.name,
        "profile": profile,
        "harness": dict(harness_config),
        "config": asdict(report.config),
        "duration_seconds": dict(report.duration_seconds),
        "metrics": {name: dict(summary) for name, summary in report.metrics.items()},
        "counters": dict(report.counters),
        "throughput": report.throughput,
    }


def validate_payload(payload: dict[str, Any]) -> None:
    """Raise :class:`BenchSchemaError` if ``payload`` is not schema v1."""
    if not isinstance(payload, dict):
        raise BenchSchemaError("payload must be a JSON object")
    missing = [key for key in REQUIRED_KEYS if key not in payload]
    if missing:
        raise BenchSchemaError(f"payload is missing keys: {', '.join(missing)}")
    version = payload["schema_version"]
    if version != SCHEMA_VERSION:
        raise BenchSchemaError(
            f"unsupported schema_version {version!r} (this build reads {SCHEMA_VERSION})"
        )
    if not isinstance(payload["metrics"], dict):
        raise BenchSchemaError("'metrics' must be an object")
    for name, summary in payload["metrics"].items():
        if not isinstance(summary, dict):
            raise BenchSchemaError(f"metric {name!r} must be a summary object")
        absent = [key for key in SUMMARY_KEYS if key not in summary]
        if absent:
            raise BenchSchemaError(f"metric {name!r} is missing {', '.join(absent)}")
    if not isinstance(payload["counters"], dict):
        raise BenchSchemaError("'counters' must be an object")
    throughput = payload["throughput"]
    if not isinstance(throughput, dict) or "ops_per_second" not in throughput:
        raise BenchSchemaError("'throughput' must be an object with 'ops_per_second'")


def write_bench(
    report: StrategyReport,
    directory: str | Path,
    *,
    profile: str,
    harness_config: dict[str, Any],
) -> Path:
    """Write ``BENCH_<suite>.json`` for ``report`` and return its path."""
    payload = report_to_payload(report, profile=profile, harness_config=harness_config)
    validate_payload(payload)
    path = bench_path(directory, report.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


def load_bench(path: str | Path) -> dict[str, Any]:
    """Read and validate one ``BENCH_*.json`` file."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise BenchSchemaError(f"{path}: not valid JSON ({exc})") from exc
    validate_payload(payload)
    return payload
