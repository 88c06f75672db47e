"""Plan-node featurisation for the tree-CNN.

Each plan node becomes a fixed-width feature vector:

* a one-hot encoding of the physical operator type,
* log-scaled cardinality and cost estimates,
* boolean structural flags (index use, scan/join/aggregate role),
* a log-scaled size of the scanned relation (zero for non-scan nodes).

The encoding intentionally contains only information available at EXPLAIN
time — no execution feedback — because the router must route *before* the
query runs.

:meth:`PlanFeaturizer.features_for_nodes` builds the feature matrix of many
nodes at once: one pass over the nodes extracts plain python scalars, then
the whole matrix is filled with a handful of array operations (one-hot by
index assignment, ``np.log1p`` over the stacked numeric columns, flag
columns gathered from per-operator lookup tables).  This is what
:class:`~repro.router.tensors.PlanTensor` builds from.  The tests check it
against a one-node-at-a-time scalar reference kept with them.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.htap.catalog import Catalog
from repro.htap.plan.nodes import (
    AGGREGATE_NODE_TYPES,
    JOIN_NODE_TYPES,
    SCAN_NODE_TYPES,
    NodeType,
    PlanNode,
)

#: Stable operator ordering for the one-hot encoding.
_NODE_TYPE_ORDER: list[NodeType] = list(NodeType)
_NODE_TYPE_INDEX = {node_type: index for index, node_type in enumerate(_NODE_TYPE_ORDER)}

#: Operator types that imply index use regardless of ``index_name``.
_INDEX_NODE_TYPES = (NodeType.INDEX_SCAN, NodeType.INDEX_LOOKUP, NodeType.INDEX_NESTED_LOOP_JOIN)

#: Per-operator flag lookup tables, indexed by the one-hot type index, so the
#: batched path derives the structural flags with pure array gathers.
_TYPE_IS_INDEX = np.array(
    [1.0 if node_type in _INDEX_NODE_TYPES else 0.0 for node_type in _NODE_TYPE_ORDER]
)
_TYPE_IS_SCAN = np.array(
    [1.0 if node_type in SCAN_NODE_TYPES else 0.0 for node_type in _NODE_TYPE_ORDER]
)
_TYPE_IS_JOIN = np.array(
    [1.0 if node_type in JOIN_NODE_TYPES else 0.0 for node_type in _NODE_TYPE_ORDER]
)
_TYPE_IS_AGGREGATE = np.array(
    [1.0 if node_type in AGGREGATE_NODE_TYPES else 0.0 for node_type in _NODE_TYPE_ORDER]
)

#: Normalisation constants for the log-scaled numeric features.
_LOG_ROWS_SCALE = 20.0
_LOG_COST_SCALE = 25.0
_LOG_TABLE_SCALE = 22.0

#: Memo sentinel: the relation is unknown to the catalog, fall back to the
#: node's own row estimate (which is per-node, hence not memoizable).
_UNKNOWN_RELATION = -1.0


class PlanFeaturizer:
    """Converts plan nodes into numeric feature vectors.

    Parameters
    ----------
    catalog:
        Optional catalog used to look up the size of scanned relations; when
        omitted the relation-size feature falls back to the node's estimated
        row count.

    Catalog row counts are memoized per relation, so a workload that scans
    the same eight TPC-H tables over and over resolves each one exactly
    once.  The serving layer clears the memo through its DDL-listener hook
    (see :meth:`invalidate_catalog_cache`), keeping it correct if a future
    catalog mutation ever changes cardinalities.
    """

    def __init__(self, catalog: Catalog | None = None):
        self.catalog = catalog
        self._row_count_cache: dict[str, float] = {}

    @property
    def feature_size(self) -> int:
        """Width of one node's feature vector."""
        return len(_NODE_TYPE_ORDER) + 7

    # ------------------------------------------------------------- catalog memo
    def invalidate_catalog_cache(self) -> None:
        """Drop the memoized relation row counts (wired to DDL listeners)."""
        self._row_count_cache.clear()

    def _table_rows(self, relation: str, plan_rows: float) -> float:
        """Memoized catalog cardinality, falling back to the node estimate."""
        if self.catalog is None:
            return max(0.0, plan_rows)
        cached = self._row_count_cache.get(relation)
        if cached is None:
            cached = (
                float(self.catalog.row_count(relation))
                if self.catalog.has_table(relation)
                else _UNKNOWN_RELATION
            )
            self._row_count_cache[relation] = cached
        return max(0.0, plan_rows) if cached == _UNKNOWN_RELATION else cached

    # --------------------------------------------------------------- batched
    def features_for_nodes(self, nodes: Sequence[PlanNode]) -> np.ndarray:
        """Feature matrix ``(len(nodes), F)`` built with array operations.

        Row ``i`` is the feature vector of ``nodes[i]``: one python pass
        extracts the raw per-node scalars, then the one-hot block is filled
        by index assignment and the numeric block by vectorized
        ``np.log1p`` / lookup-table gathers over the whole batch.
        """
        count = len(nodes)
        width = self.feature_size
        features = np.zeros((count, width), dtype=np.float64)
        if count == 0:
            return features
        type_index = np.fromiter(
            (_NODE_TYPE_INDEX[node.node_type] for node in nodes), dtype=np.int64, count=count
        )
        plan_rows = np.fromiter(
            (node.plan_rows for node in nodes), dtype=np.float64, count=count
        )
        total_cost = np.fromiter(
            (node.total_cost for node in nodes), dtype=np.float64, count=count
        )
        has_index_name = np.fromiter(
            (node.index_name is not None for node in nodes), dtype=np.float64, count=count
        )
        table_rows = np.zeros(count, dtype=np.float64)
        for position, node in enumerate(nodes):
            if node.relation is not None:
                table_rows[position] = self._table_rows(node.relation, node.plan_rows)

        features[np.arange(count), type_index] = 1.0
        base = len(_NODE_TYPE_ORDER)
        features[:, base] = np.log1p(np.maximum(plan_rows, 0.0)) / _LOG_ROWS_SCALE
        features[:, base + 1] = np.log1p(np.maximum(total_cost, 0.0)) / _LOG_COST_SCALE
        features[:, base + 2] = np.maximum(has_index_name, _TYPE_IS_INDEX[type_index])
        features[:, base + 3] = _TYPE_IS_SCAN[type_index]
        features[:, base + 4] = _TYPE_IS_JOIN[type_index]
        features[:, base + 5] = _TYPE_IS_AGGREGATE[type_index]
        features[:, base + 6] = np.log1p(table_rows) / _LOG_TABLE_SCALE
        return features

    def plan_features(self, plan: PlanNode) -> np.ndarray:
        """Feature matrix (pre-order node order) for a whole plan tree."""
        return self.features_for_nodes(list(plan.walk()))


def structural_embedding(plan: PlanNode, dimensions: int = 16) -> np.ndarray:
    """A non-learned baseline embedding for the plan-embedding ablation.

    Buckets operator counts and coarse size statistics into a fixed-width
    vector.  It intentionally ignores the routing task, so retrieval quality
    with it shows how much the task-specific tree-CNN embedding matters.
    """
    vector = np.zeros(dimensions, dtype=np.float64)
    for node in plan.walk():
        bucket = _NODE_TYPE_INDEX[node.node_type] % dimensions
        vector[bucket] += 1.0
    vector[0] += math.log1p(plan.plan_rows)
    vector[1] += math.log1p(plan.total_cost)
    vector[2] += plan.depth()
    norm = np.linalg.norm(vector)
    if norm > 0:
        vector = vector / norm
    return vector
