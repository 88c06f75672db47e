"""BENCH_*.json schema tests: round-trip, versioning, validation errors."""

from __future__ import annotations

import json

import pytest

from repro.bench.export import (
    REQUIRED_KEYS,
    SCHEMA_VERSION,
    BenchSchemaError,
    bench_filename,
    bench_path,
    load_bench,
    report_to_payload,
    validate_payload,
    write_bench,
)
from repro.bench.runner import (
    ExperimentConfig,
    ExperimentStrategy,
    RunResult,
    StrategyRunner,
)
from repro.obs.stats import percentile, summarize


class TinyStrategy(ExperimentStrategy):
    name = "tiny"

    def execute(self, context):
        return RunResult(
            metrics={"latency_seconds": [0.1, 0.2, 0.3], "accuracy": 0.9},
            counters={"errors": 0, "requests": 3},
            operations=3,
        )


@pytest.fixture
def report():
    runner = StrategyRunner(harness=object())
    return runner.run(TinyStrategy(), ExperimentConfig(runs=2, warmup_runs=1))


HARNESS_CONFIG = {"scale_factor": 100.0, "seed": 2024}


def test_payload_shape_and_summary_convention(report):
    payload = report_to_payload(report, profile="quick", harness_config=HARNESS_CONFIG)
    validate_payload(payload)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["suite"] == "tiny"
    assert payload["profile"] == "quick"
    assert payload["harness"] == HARNESS_CONFIG
    assert payload["config"] == {"runs": 2, "warmup_runs": 1}
    # Two measured runs pool 3 samples each.
    latency = payload["metrics"]["latency_seconds"]
    assert latency["count"] == 6
    expected = summarize([0.1, 0.2, 0.3, 0.1, 0.2, 0.3])
    assert latency == expected
    assert latency["p95"] == percentile([0.1, 0.2, 0.3] * 2, 0.95)
    assert payload["counters"] == {"errors": 0.0, "requests": 6.0}
    assert payload["throughput"]["operations"] == 6.0


def test_write_and_load_round_trip(report, tmp_path):
    path = write_bench(report, tmp_path, profile="quick", harness_config=HARNESS_CONFIG)
    assert path == bench_path(tmp_path, "tiny")
    assert path.name == bench_filename("tiny") == "BENCH_tiny.json"
    loaded = load_bench(path)
    assert loaded == report_to_payload(report, profile="quick", harness_config=HARNESS_CONFIG)


def test_unsupported_schema_version_rejected(report, tmp_path):
    path = write_bench(report, tmp_path, profile="quick", harness_config=HARNESS_CONFIG)
    payload = json.loads(path.read_text())
    payload["schema_version"] = SCHEMA_VERSION + 1
    path.write_text(json.dumps(payload))
    with pytest.raises(BenchSchemaError, match="schema_version"):
        load_bench(path)


def test_missing_keys_rejected(report):
    payload = report_to_payload(report, profile="quick", harness_config=HARNESS_CONFIG)
    for key in REQUIRED_KEYS:
        broken = dict(payload)
        del broken[key]
        with pytest.raises(BenchSchemaError):
            validate_payload(broken)


def test_malformed_metric_summary_rejected(report):
    payload = report_to_payload(report, profile="quick", harness_config=HARNESS_CONFIG)
    payload["metrics"]["latency_seconds"] = {"p50": 0.1}  # missing the rest
    with pytest.raises(BenchSchemaError, match="latency_seconds"):
        validate_payload(payload)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "BENCH_broken.json"
    path.write_text("{not json")
    with pytest.raises(BenchSchemaError, match="not valid JSON"):
        load_bench(path)
