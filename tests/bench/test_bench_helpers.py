"""Tests for the reporting helpers and a reduced-size experiment harness."""

import pytest

from repro.bench.harness import EXAMPLE1_SQL, ExperimentHarness
from repro.bench.reporting import format_percent, format_table
from repro.htap.engines.base import EngineKind


# --------------------------------------------------------------- reporting
def test_format_percent():
    assert format_percent(0.905) == "90.5%"
    assert format_percent(1.0, digits=0) == "100%"


def test_format_table_alignment_and_missing_cells():
    rows = [
        {"name": "flat", "ms": 0.01},
        {"name": "hnsw", "ms": 0.02, "extra": "yes"},
    ]
    text = format_table(rows, title="stores")
    lines = text.splitlines()
    assert lines[0] == "stores"
    assert "name" in lines[1] and "ms" in lines[1] and "extra" in lines[1]
    assert len(lines) == 5
    assert format_table([], title="empty").endswith("(no rows)")


# ----------------------------------------------------------------- harness
@pytest.fixture(scope="module")
def small_harness():
    """A reduced harness: same code paths, smaller workloads, fewer epochs."""
    return ExperimentHarness(
        knowledge_base_size=12,
        test_size=40,
        router_training_size=60,
        router_epochs=8,
    )


def test_harness_builds_all_components(small_harness):
    assert len(small_harness.knowledge_base) == 12
    assert len(small_harness.dataset.test) == 40
    assert small_harness.router.training_report is not None
    assert small_harness.build_seconds > 0


def test_framework_paths_smoke(small_harness):
    paths = small_harness.framework_paths()
    assert paths["knowledge_base_size"] == 12
    assert paths["embedding_size"] == 16
    assert paths["new_query_retrieved"] >= 1


def test_example1_artifacts(small_harness):
    example = small_harness.example1()
    assert example.sql == EXAMPLE1_SQL
    assert example.execution.faster_engine is EngineKind.AP
    assert example.tp_plan_dict["Node Type"] == "Group aggregate"
    assert example.ap_plan_dict["Node Type"] == "Aggregate"
    assert "nested loop join" in example.expert_explanation
    assert example.our_explanation.text
    assert example.dbgpt_explanation_text
    # Cached: second call returns the same object without recomputing.
    assert small_harness.example1() is example


def test_accuracy_experiment_and_sweep(small_harness):
    report = small_harness.accuracy_experiment()
    assert report.total == 40
    assert report.accurate_rate >= 0.65
    sweep = small_harness.topk_sweep(ks=(1, 2))
    assert set(sweep) == {1, 2}
    counts = small_harness.grade_counts(report)
    assert sum(counts.values()) == 40


def test_latency_breakdown_magnitudes(small_harness):
    breakdown = small_harness.latency_breakdown(sample_size=8)
    assert breakdown["samples"] == 8
    assert breakdown["encode_ms"] < 10.0
    assert breakdown["search_ms"] < 10.0
    assert breakdown["llm_thinking_s"] <= 2.5
    assert 3.0 < breakdown["llm_generation_s"] < 30.0


def test_router_benchmark_claims(small_harness):
    result = small_harness.router_benchmark(sample_size=20)
    assert result["routing_accuracy"] >= 0.8
    assert result["model_size_bytes"] < 1_000_000
    assert result["mean_inference_ms"] < 10.0


def test_dbgpt_comparison_orders_methods(small_harness):
    comparison = small_harness.dbgpt_comparison(sample_size=25)
    assert set(comparison) == {"ours", "dbgpt", "norag"}
    assert comparison["ours"]["accurate"] > comparison["dbgpt"]["accurate"]
    assert comparison["ours"]["winner_correct"] >= comparison["dbgpt"]["winner_correct"]
    assert comparison["dbgpt"]["cost_comparison"] > 0.0


def test_participant_study_rows(small_harness):
    report = small_harness.participant_study(participants=12)
    rows = report.as_rows()
    assert len(rows) == 2
    assert rows[0]["avg_minutes"] > rows[1]["avg_minutes"]


def test_kb_scaling_rows(small_harness):
    rows = small_harness.kb_scaling(sizes=(20, 200), k=2)
    assert len(rows) == 4
    assert {row.store for row in rows} == {"flat", "hnsw"}
    assert all(row.search_ms >= 0.0 for row in rows)
    # Rows are properly typed now: sizes are ints, not floats in disguise.
    assert all(isinstance(row.kb_size, int) for row in rows)
    assert rows[0].as_dict() == {
        "kb_size": rows[0].kb_size,
        "store": rows[0].store,
        "search_ms": rows[0].search_ms,
    }


def test_curation_experiment(small_harness):
    result = small_harness.curation_experiment(candidate_pool=40, budget=10)
    assert result["kb_size_after_expiry"] == 10
    assert result["representative_factor_coverage"] >= result["random_factor_coverage"] - 1e-9


def test_prompt_assembly_checks(small_harness):
    result = small_harness.prompt_assembly()
    assert result["contains_cost_guard"]
    assert result["contains_question"]
    assert result["knowledge_blocks"] >= 1
    assert set(result["table_i"]) == {"Background information", "Task description", "Additional user context"}
