"""Tests for plan nodes, serialization, derived properties, and diffing."""

import json
import sys
import threading

import pytest

from repro.htap.plan.diff import diff_plans
from repro.htap.plan.nodes import NodeType, PlanNode
from repro.htap.plan.properties import analyze_plan, compare_properties
from repro.htap.plan.serialize import (
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
)
from repro.workloads.generator import WorkloadGenerator


def _small_tp_plan() -> PlanNode:
    scan_nation = PlanNode(NodeType.TABLE_SCAN, total_cost=2.75, plan_rows=25, relation="nation")
    filter_nation = PlanNode(
        NodeType.FILTER, total_cost=2.75, plan_rows=2, predicate="n_name = 'egypt'", children=[scan_nation]
    )
    scan_customer = PlanNode(NodeType.TABLE_SCAN, total_cost=290.0, plan_rows=1142, relation="customer")
    filter_customer = PlanNode(
        NodeType.FILTER, total_cost=290.0, plan_rows=114, predicate="c_mktsegment = 'machinery'",
        children=[scan_customer],
    )
    join = PlanNode(
        NodeType.NESTED_LOOP_JOIN, total_cost=1002.0, plan_rows=285, children=[filter_nation, filter_customer]
    )
    return PlanNode(NodeType.GROUP_AGGREGATE, total_cost=5213.0, plan_rows=1, children=[join])


def _small_ap_plan() -> PlanNode:
    scan = PlanNode(
        NodeType.TABLE_SCAN,
        total_cost=0.5,
        plan_rows=135_000_000,
        relation="orders",
        output_columns=("o_custkey", "o_orderstatus"),
        extra={"Storage": "column-oriented"},
    )
    filtered = PlanNode(NodeType.FILTER, total_cost=13.5e6, plan_rows=13_500_000, children=[scan])
    hash_node = PlanNode(NodeType.HASH, total_cost=3.0, plan_rows=2, children=[
        PlanNode(NodeType.TABLE_SCAN, total_cost=0.5, plan_rows=25, relation="nation")
    ])
    join = PlanNode(NodeType.HASH_JOIN, total_cost=16.5e6, plan_rows=134_933, children=[filtered, hash_node])
    return PlanNode(NodeType.AGGREGATE, total_cost=16.5e6, plan_rows=1, children=[join])


# ------------------------------------------------------------------- nodes
def test_walk_is_preorder_and_counts():
    plan = _small_tp_plan()
    node_types = [node.node_type for node in plan.walk()]
    assert node_types[0] == NodeType.GROUP_AGGREGATE
    assert plan.node_count() == 6
    assert plan.depth() == 4


def test_scanned_tables_and_joins():
    plan = _small_tp_plan()
    assert plan.scanned_tables() == ["nation", "customer"]
    assert len(plan.join_nodes()) == 1
    assert len(plan.aggregate_nodes()) == 1
    assert not plan.uses_index()


def test_structural_signature_ignores_costs():
    first = _small_tp_plan()
    second = _small_tp_plan()
    for node in second.walk():
        node.total_cost *= 10
    assert first.structural_signature() == second.structural_signature()


def test_pretty_output_contains_node_names():
    text = _small_tp_plan().pretty()
    assert "Group aggregate" in text
    assert "Nested loop inner join" in text
    assert "Table Scan on customer" in text


def test_node_type_from_display_name_roundtrip():
    for node_type in NodeType:
        assert NodeType.from_display_name(node_type.value) is node_type
    with pytest.raises(ValueError):
        NodeType.from_display_name("Quantum Join")


# --------------------------------------------------------------- serialize
def test_plan_to_dict_matches_paper_format():
    data = plan_to_dict(_small_tp_plan())
    assert data["Node Type"] == "Group aggregate"
    assert data["Total Cost"] == 5213.0
    assert data["Plan Rows"] == 1
    child = data["Plans"][0]
    assert child["Node Type"] == "Nested loop inner join"
    leaf = child["Plans"][0]["Plans"][0]
    assert leaf["Relation Name"] == "nation"


def test_plan_roundtrip_through_dict():
    original = _small_ap_plan()
    rebuilt = plan_from_dict(plan_to_dict(original))
    assert rebuilt.structural_signature() == original.structural_signature()
    assert rebuilt.node_count() == original.node_count()
    orders_scan = next(node for node in rebuilt.walk() if node.relation == "orders")
    assert orders_scan.output_columns == ("o_custkey", "o_orderstatus")
    assert orders_scan.extra["Storage"] == "column-oriented"


def test_plan_to_json_is_valid_json():
    payload = json.loads(plan_to_json(_small_tp_plan()))
    assert payload["Node Type"] == "Group aggregate"


def test_plan_from_dict_requires_node_type():
    with pytest.raises(ValueError):
        plan_from_dict({"Total Cost": 1.0})


def test_plan_from_json_matches_plan_from_dict_on_generated_plans(system):
    generator = WorkloadGenerator(seed=3)
    for query in generator.generate(500):
        pair = system.explain_pair(query.sql)
        for plan in (pair.tp_plan, pair.ap_plan):
            explain = plan_to_dict(plan)
            from_json = plan_from_json(json.dumps(explain))
            from_dict = plan_from_dict(explain)
            assert plan_to_dict(from_json) == plan_to_dict(from_dict) == explain
            assert from_json == from_dict


def test_plan_from_json_is_safe_across_threads(system):
    """Service workers share one decoder; its hook runs Python code, so
    threads can switch in the middle of a parse."""
    generator = WorkloadGenerator(seed=4)
    pairs = [system.explain_pair(query.sql) for query in generator.generate(40)]
    texts = [plan_to_json(plan) for pair in pairs for plan in (pair.tp_plan, pair.ap_plan)]
    expected = [plan_from_dict(json.loads(text)) for text in texts]
    mismatches: list[int] = []

    def parse_all() -> None:
        for _ in range(5):
            for index, text in enumerate(texts):
                if plan_from_json(text) != expected[index]:
                    mismatches.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse_all) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_plan_from_json_requires_node_type():
    with pytest.raises(ValueError):
        plan_from_json('{"Total Cost": 1.0}')
    with pytest.raises(ValueError):
        plan_from_json('{"Node Type": "Filter", "Plans": [{"Total Cost": 1.0}]}')


# -------------------------------------------------------------- properties
def test_analyze_plan_extracts_join_and_scan_info():
    properties = analyze_plan(_small_tp_plan())
    assert properties.join_count == 1
    assert properties.uses_nested_loop
    assert not properties.uses_hash_join
    assert properties.scanned_tables == ["nation", "customer"]
    assert properties.largest_scan_rows == 1142
    assert properties.dominant_join_method == "Nested loop inner join"


def test_analyze_plan_ap_side():
    properties = analyze_plan(_small_ap_plan())
    assert properties.uses_hash_join
    assert properties.storage_format == "column-oriented"
    assert properties.aggregate_methods == ["Aggregate"]


def test_compare_properties_mentions_both_engines():
    comparison = compare_properties(analyze_plan(_small_tp_plan()), analyze_plan(_small_ap_plan()))
    assert "TP joins" in comparison["join_methods"]
    assert "AP joins" in comparison["join_methods"]
    assert "storage" in comparison


# -------------------------------------------------------------------- diff
def test_diff_detects_join_strategy_difference():
    diff = diff_plans(_small_tp_plan(), _small_ap_plan())
    assert diff.join_strategy_differs
    assert "Nested loop inner join" in diff.tp_join_methods
    assert "Inner hash join" in diff.ap_join_methods
    assert diff.cost_ratio > 100  # AP cost is numerically much larger
    lines = diff.summary_lines()
    assert any("Join strategies differ" in line for line in lines)
    assert any("different cost units" in line for line in lines)


def test_diff_scan_differences_cover_all_tables():
    diff = diff_plans(_small_tp_plan(), _small_ap_plan())
    tables = {difference.table for difference in diff.scan_differences}
    assert tables == {"nation", "customer", "orders"}
    orders_diff = next(d for d in diff.scan_differences if d.table == "orders")
    assert orders_diff.tp_access is None
    assert orders_diff.ap_access == "Table Scan"
    assert orders_diff.differs
