"""Tests for the execution-latency model and the HTAPSystem facade."""

import pytest

from repro.htap.engines.base import EngineKind
from repro.htap.engines.execution import ExecutionSimulator, HardwareProfile, LatencyBreakdown
from repro.htap.plan.serialize import plan_to_dict
from repro.htap.system import HTAPSystem
from repro.workloads.generator import WorkloadGenerator


# ------------------------------------------------------------- EngineKind
def test_engine_kind_properties():
    assert EngineKind.TP.other() is EngineKind.AP
    assert EngineKind.AP.other() is EngineKind.TP
    assert EngineKind.TP.storage_format == "row-oriented"
    assert EngineKind.AP.storage_format == "column-oriented"
    assert str(EngineKind.AP) == "AP"


# -------------------------------------------------------- LatencyBreakdown
def test_breakdown_accumulates_and_finds_dominant():
    breakdown = LatencyBreakdown()
    breakdown.add("scan", 2.0)
    breakdown.add("scan", 1.0)
    breakdown.add("join", 0.5)
    assert breakdown.total_seconds == pytest.approx(3.5)
    assert breakdown.dominant_component() == "scan"
    assert breakdown.as_dict() == {"scan": 3.0, "join": 0.5}


def test_empty_breakdown_dominant_is_startup():
    assert LatencyBreakdown().dominant_component() == "startup"


# ------------------------------------------------------- Example 1 shapes
def test_example1_ap_wins_by_paper_magnitude(system, example1_sql):
    """Example 1: TP ≈ seconds, AP ≈ hundreds of ms, AP wins by ~10-40x."""
    execution = system.run_both(example1_sql)
    assert execution.faster_engine is EngineKind.AP
    assert 2.0 < execution.tp_result.latency_seconds < 15.0
    assert 0.1 < execution.ap_result.latency_seconds < 1.0
    assert 8.0 < execution.speedup < 60.0


def test_example1_tp_bottleneck_is_the_scan(system, example1_sql):
    execution = system.run_both(example1_sql)
    assert execution.tp_result.breakdown.dominant_component() == "scan"


def test_point_lookup_tp_wins(system):
    execution = system.run_both("SELECT o_totalprice FROM orders WHERE o_orderkey = 12345;")
    assert execution.faster_engine is EngineKind.TP
    assert execution.tp_result.latency_seconds < 0.01
    assert execution.ap_result.breakdown.dominant_component() in ("startup", "scan")


def test_indexed_topn_tp_wins(system):
    execution = system.run_both("SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_orderkey LIMIT 10;")
    assert execution.faster_engine is EngineKind.TP
    assert execution.speedup > 5.0


def test_unindexed_topn_ap_wins(system):
    execution = system.run_both(
        "SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 10;"
    )
    assert execution.faster_engine is EngineKind.AP


def test_large_aggregation_ap_wins(system):
    execution = system.run_both(
        "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag;"
    )
    assert execution.faster_engine is EngineKind.AP
    assert execution.speedup > 10.0


def test_small_table_query_tp_wins(system):
    execution = system.run_both("SELECT n_name FROM nation WHERE n_regionkey = 1;")
    assert execution.faster_engine is EngineKind.TP


def test_latencies_are_deterministic(system, example1_sql):
    first = system.run_both(example1_sql)
    second = system.run_both(example1_sql)
    assert first.tp_result.latency_seconds == pytest.approx(second.tp_result.latency_seconds)
    assert first.ap_result.latency_seconds == pytest.approx(second.ap_result.latency_seconds)


def test_hardware_profile_changes_latency(example1_sql):
    fast_ap = HTAPSystem(scale_factor=100, hardware=HardwareProfile(ap_parallelism=64))
    slow_ap = HTAPSystem(scale_factor=100, hardware=HardwareProfile(ap_parallelism=4))
    fast = fast_ap.run_both(example1_sql).ap_result.latency_seconds
    slow = slow_ap.run_both(example1_sql).ap_result.latency_seconds
    assert fast < slow


def test_scale_factor_changes_latency(example1_sql):
    small = HTAPSystem(scale_factor=1).run_both(example1_sql)
    large = HTAPSystem(scale_factor=100).run_both(example1_sql)
    assert small.tp_result.latency_seconds < large.tp_result.latency_seconds


# ------------------------------------------------------------- HTAPSystem
def test_explain_pair_returns_both_plans(system, example1_sql):
    pair = system.explain_pair(example1_sql)
    explained = pair.explain_dicts()
    assert explained["TP"]["Node Type"] == "Group aggregate"
    assert explained["AP"]["Node Type"] == "Aggregate"
    assert pair.plan_for(EngineKind.TP) is pair.tp_plan
    assert pair.plan_for(EngineKind.AP) is pair.ap_plan


def test_execution_summary_mentions_both_latencies(system, example1_sql):
    execution = system.run_both(example1_sql)
    summary = execution.summary()
    assert "TP=" in summary and "AP=" in summary
    assert execution.slower_engine is EngineKind.TP


def test_create_index_changes_tp_plan(example1_sql):
    system = HTAPSystem(scale_factor=100)
    before = system.explain_pair("SELECT c_name FROM customer WHERE c_phone = '30-123';")
    system.create_index("customer", "c_phone")
    after = system.explain_pair("SELECT c_name FROM customer WHERE c_phone = '30-123';")
    assert not before.tp_plan.uses_index()
    assert after.tp_plan.uses_index()


def test_execute_plan_directly(system, example1_sql):
    pair = system.explain_pair(example1_sql)
    simulator = ExecutionSimulator(system.catalog)
    result = simulator.execute(EngineKind.AP, pair.ap_plan)
    assert result.latency_seconds > 0
    assert result.latency_ms == pytest.approx(result.latency_seconds * 1000)


def test_explain_pair_shares_one_analysis_without_changing_plans(system):
    """Both engines plan from one analysis; the plans equal per-engine optimize()."""
    for query in WorkloadGenerator(seed=29).generate(120):
        parsed = system.parse(query.sql)
        pair = system.explain_pair(parsed)
        assert plan_to_dict(pair.tp_plan) == plan_to_dict(system.tp_optimizer.optimize(parsed))
        assert plan_to_dict(pair.ap_plan) == plan_to_dict(system.ap_optimizer.optimize(parsed))
