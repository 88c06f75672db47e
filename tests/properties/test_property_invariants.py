"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.htap.plan.nodes import NodeType, PlanNode
from repro.htap.plan.serialize import plan_from_dict, plan_to_dict
from repro.htap.sql import ast
from repro.htap.sql.parser import parse_query
from repro.htap.statistics import StatisticsCatalog
from repro.htap.catalog import Catalog
from repro.knowledge.vector_store import FlatVectorStore, HNSWVectorStore

_CATALOG = Catalog(scale_factor=100)
_STATISTICS = StatisticsCatalog(_CATALOG)


# ------------------------------------------------------------ vector store
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=1_000))
def test_flat_store_top1_is_true_nearest(count, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(count, 8))
    store = FlatVectorStore(metric="euclidean")
    for index in range(count):
        store.add(f"v{index}", vectors[index])
    query = rng.normal(size=8)
    result = store.search(query, k=1)[0]
    true_best = min(range(count), key=lambda i: float(np.linalg.norm(vectors[i] - query)))
    assert result.key == f"v{true_best}"


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=5, max_value=80), st.integers(min_value=0, max_value=100))
def test_hnsw_returns_valid_keys_and_sorted_distances(count, seed):
    rng = np.random.default_rng(seed)
    store = HNSWVectorStore(seed=seed)
    for index in range(count):
        store.add(f"v{index}", rng.normal(size=8))
    results = store.search(rng.normal(size=8), k=5)
    assert 1 <= len(results) <= 5
    distances = [result.distance for result in results]
    assert distances == sorted(distances)
    assert all(result.key.startswith("v") for result in results)


# ------------------------------------------------------------ plan roundtrip
_node_types = st.sampled_from(
    [NodeType.TABLE_SCAN, NodeType.FILTER, NodeType.HASH_JOIN, NodeType.NESTED_LOOP_JOIN, NodeType.SORT]
)


def _plans(depth: int = 3):
    base = st.builds(
        PlanNode,
        node_type=_node_types,
        total_cost=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        plan_rows=st.floats(min_value=1, max_value=1e9, allow_nan=False),
        relation=st.sampled_from([None, "orders", "customer", "nation"]),
    )
    return st.recursive(
        base,
        lambda children: st.builds(
            PlanNode,
            node_type=_node_types,
            total_cost=st.floats(min_value=0, max_value=1e9, allow_nan=False),
            plan_rows=st.floats(min_value=1, max_value=1e9, allow_nan=False),
            children=st.lists(children, min_size=1, max_size=2),
        ),
        max_leaves=6,
    )


@settings(max_examples=50, deadline=None)
@given(_plans())
def test_plan_serialisation_roundtrip_preserves_structure(plan):
    rebuilt = plan_from_dict(plan_to_dict(plan))
    assert rebuilt.structural_signature() == plan.structural_signature()
    assert rebuilt.node_count() == plan.node_count()
    assert rebuilt.depth() == plan.depth()


# ----------------------------------------------------------------- parser
_segments = st.sampled_from(["machinery", "building", "furniture", "household", "automobile"])
_limits = st.integers(min_value=1, max_value=1000)


@settings(max_examples=50, deadline=None)
@given(_segments, _limits, st.booleans())
def test_parser_handles_generated_topn_queries(segment, limit, descending):
    direction = "DESC" if descending else "ASC"
    sql = (
        f"SELECT c_custkey, c_acctbal FROM customer WHERE c_mktsegment = '{segment}' "
        f"ORDER BY c_acctbal {direction} LIMIT {limit};"
    )
    query = parse_query(sql)
    assert query.is_top_n
    assert query.limit == limit
    assert query.order_by[0].descending is descending
    assert query.raw_sql == sql.strip()


@settings(max_examples=50, deadline=None)
@given(st.lists(_segments, min_size=1, max_size=5, unique=True))
def test_in_list_selectivity_monotone_in_list_size(segments):
    values = ", ".join(f"'{segment}'" for segment in segments)
    query = parse_query(f"SELECT COUNT(*) FROM customer WHERE c_mktsegment IN ({values});")
    estimate = _STATISTICS.estimate_predicate("customer", query.where)
    assert 0.0 < estimate.selectivity <= 1.0
    smaller = parse_query("SELECT COUNT(*) FROM customer WHERE c_mktsegment IN ('machinery');")
    single = _STATISTICS.estimate_predicate("customer", smaller.where)
    assert estimate.selectivity >= single.selectivity - 1e-12


# ----------------------------------------------------------- expressions
@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000_000), st.integers(min_value=0, max_value=10_000_000))
def test_between_selectivity_within_bounds_and_monotone(a, b):
    low, high = min(a, b), max(a, b)
    sql = f"SELECT COUNT(*) FROM customer WHERE c_custkey BETWEEN {low} AND {high};"
    estimate = _STATISTICS.estimate_predicate("customer", parse_query(sql).where)
    assert 0.0 < estimate.selectivity <= 1.0
    wider = _STATISTICS.estimate_predicate(
        "customer",
        parse_query(f"SELECT COUNT(*) FROM customer WHERE c_custkey BETWEEN {low} AND {high + 1000};").where,
    )
    assert wider.selectivity >= estimate.selectivity - 1e-12


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["orders", "customer", "lineitem", "nation"]))
def test_conjuncts_combine_roundtrip_for_simple_filters(table):
    column = {"orders": "o_orderstatus", "customer": "c_mktsegment", "lineitem": "l_shipmode", "nation": "n_name"}[table]
    sql = f"SELECT COUNT(*) FROM {table} WHERE {column} = 'x' AND {column} <> 'y';"
    where = parse_query(sql).where
    parts = ast.conjuncts(where)
    assert len(parts) == 2
    assert ast.conjuncts(ast.combine_conjuncts(parts)) == parts
