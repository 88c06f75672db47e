"""Structural plan-pair reasoning used by the simulated LLM.

A language model asked to explain a TP/AP performance difference reasons
over what it can see: the SQL text, the two plan trees, and (when provided)
retrieved historical knowledge.  This module implements the *structural*
part of that reasoning — extracting signals from the plan pair, deciding
whether a candidate explanation factor is consistent with those signals, and
producing a best-effort hypothesis when no grounded knowledge applies.

The same signals are used two ways:

* the grounded path checks each retrieved expert explanation's factors
  against the question's signals before adopting them (so irrelevant
  retrievals are rejected rather than parroted);
* the un-grounded path (no-RAG ablation, DBG-PT baseline) has only these
  signals plus its characteristic biases.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.htap.engines.base import EngineKind
from repro.htap.plan.nodes import NodeType, PlanNode
from repro.htap.plan.properties import PlanProperties, analyze_plan
from repro.htap.plan.serialize import plan_from_json
from repro.workloads.labeling import ExplanationFactor

#: SQL functions that, applied to a column, defeat a B+-tree index on it.
_INDEX_DEFEATING_FUNCTIONS = ("substring(", "upper(", "lower(", "abs(", "cast(")

#: Scanned-row threshold separating "small" from "large" queries in the
#: structural signals (mirrors the labeler's threshold).
_SMALL_ROWS = 100_000


@dataclass
class StructuralSignals:
    """What the plan pair and SQL text reveal without historical knowledge."""

    tp_properties: PlanProperties
    ap_properties: PlanProperties
    tp_uses_nested_loop: bool
    tp_uses_index: bool
    tp_index_ordered: bool
    ap_uses_hash_join: bool
    has_aggregation: bool
    has_top_n: bool
    offset_rows: int
    limit_rows: int | None
    sql_wraps_column_in_function: bool
    tp_scanned_rows: float
    ap_scanned_rows: float
    #: Root cost estimates; ``None`` unless :func:`extract_signals_with_costs`
    #: was asked for them.
    tp_total_cost: float | None = None
    ap_total_cost: float | None = None

    @property
    def is_small_query(self) -> bool:
        return self.tp_scanned_rows <= _SMALL_ROWS

    @property
    def is_large_scan(self) -> bool:
        return self.tp_scanned_rows > 10 * _SMALL_ROWS


def extract_signals(sql: str, tp_plan_json: str, ap_plan_json: str) -> StructuralSignals:
    """Compute :class:`StructuralSignals` from the QUESTION attachment's
    SQL and EXPLAIN-JSON plans."""
    return _signals(sql, plan_from_json(tp_plan_json), plan_from_json(ap_plan_json))


def extract_signals_with_costs(sql: str, tp_plan_json: str, ap_plan_json: str) -> StructuralSignals:
    """Like :func:`extract_signals` but also records the root cost estimates.

    Kept separate so the cost figures are only available to reasoning paths
    that are *allowed* to look at them (the cost-comparison bias of the
    un-grounded baseline).
    """
    tp_plan = plan_from_json(tp_plan_json)
    ap_plan = plan_from_json(ap_plan_json)
    signals = _signals(sql, tp_plan, ap_plan)
    signals.tp_total_cost = tp_plan.total_cost
    signals.ap_total_cost = ap_plan.total_cost
    return signals


def _signals(sql: str, tp_plan: PlanNode, ap_plan: PlanNode) -> StructuralSignals:
    tp_properties = analyze_plan(tp_plan)
    ap_properties = analyze_plan(ap_plan)

    offset_rows = 0
    limit_rows: int | None = None
    for plan in (tp_plan, ap_plan):
        for node in plan.walk():
            if node.node_type in (NodeType.TOP_N_SORT, NodeType.LIMIT):
                if "Offset" in node.extra:
                    offset_rows = max(offset_rows, int(float(node.extra["Offset"])))
                if "Limit" in node.extra:
                    limit_rows = int(float(node.extra["Limit"]))
                if node.node_type == NodeType.LIMIT and node.predicate:
                    # "LIMIT 10 OFFSET 1000" formatted predicates
                    parts = node.predicate.replace("LIMIT", "").replace("OFFSET", "").split()
                    if parts and limit_rows is None:
                        limit_rows = int(parts[0])
                    if len(parts) > 1:
                        offset_rows = max(offset_rows, int(parts[1]))

    lowered_sql = sql.lower()
    wraps_function = any(function in lowered_sql for function in _INDEX_DEFEATING_FUNCTIONS)
    tp_index_ordered = any(node.extra.get("Ordered") for node in tp_plan.walk())

    return StructuralSignals(
        tp_properties=tp_properties,
        ap_properties=ap_properties,
        tp_uses_nested_loop=tp_properties.uses_nested_loop,
        tp_uses_index=tp_properties.uses_index,
        tp_index_ordered=tp_index_ordered,
        ap_uses_hash_join=ap_properties.uses_hash_join,
        has_aggregation=bool(tp_properties.aggregate_methods or ap_properties.aggregate_methods),
        has_top_n=tp_properties.has_top_n or ap_properties.has_top_n or tp_properties.has_limit,
        offset_rows=offset_rows,
        limit_rows=limit_rows,
        sql_wraps_column_in_function=wraps_function,
        tp_scanned_rows=tp_properties.total_scanned_rows,
        ap_scanned_rows=ap_properties.total_scanned_rows,
    )


def factor_applies(factor_value: str, signals: StructuralSignals) -> bool:
    """Is ``factor_value`` structurally consistent with the question's plans?

    Used by the grounded path to decide whether a retrieved expert
    explanation transfers to the new query.
    """
    try:
        factor = ExplanationFactor(factor_value)
    except ValueError:
        return False
    if factor is ExplanationFactor.HASH_JOIN_VS_NESTED_LOOP:
        return signals.tp_uses_nested_loop and signals.ap_uses_hash_join
    if factor is ExplanationFactor.NO_USABLE_INDEX:
        return not signals.tp_uses_index
    if factor is ExplanationFactor.INDEX_DEFEATED_BY_FUNCTION:
        return signals.sql_wraps_column_in_function
    if factor is ExplanationFactor.COLUMNAR_PARALLEL_SCAN:
        return signals.is_large_scan and not signals.tp_uses_index
    if factor is ExplanationFactor.AGGREGATION_EFFICIENCY:
        return signals.has_aggregation and signals.is_large_scan
    if factor is ExplanationFactor.FULL_SORT_REQUIRED:
        return signals.has_top_n and not signals.tp_index_ordered
    if factor is ExplanationFactor.LARGE_OFFSET_PENALTY:
        return signals.offset_rows >= 1_000
    if factor is ExplanationFactor.SELECTIVE_INDEX_ACCESS:
        return signals.tp_uses_index and signals.is_small_query
    if factor is ExplanationFactor.INDEX_PROVIDES_ORDER:
        return signals.tp_index_ordered and signals.has_top_n
    if factor is ExplanationFactor.SMALL_QUERY_OVERHEAD:
        return signals.is_small_query or signals.tp_uses_index
    if factor is ExplanationFactor.SMALL_DATA_VOLUME:
        return signals.is_small_query
    return False


def hypothesize_factors(signals: StructuralSignals, winner: EngineKind) -> list[str]:
    """Best-effort factor hypothesis from structure alone (no retrieval).

    Returns factor values ordered by how strongly the signals support them,
    restricted to factors that argue for ``winner``.
    """
    candidates: list[tuple[float, ExplanationFactor]] = []
    if winner is EngineKind.AP:
        if signals.tp_uses_nested_loop and signals.ap_uses_hash_join:
            candidates.append((0.9, ExplanationFactor.HASH_JOIN_VS_NESTED_LOOP))
            if not signals.tp_uses_index:
                candidates.append((0.7, ExplanationFactor.NO_USABLE_INDEX))
        if signals.sql_wraps_column_in_function:
            candidates.append((0.6, ExplanationFactor.INDEX_DEFEATED_BY_FUNCTION))
        if signals.has_top_n and not signals.tp_index_ordered:
            candidates.append((0.75, ExplanationFactor.FULL_SORT_REQUIRED))
        if signals.offset_rows >= 1_000:
            candidates.append((0.5, ExplanationFactor.LARGE_OFFSET_PENALTY))
        if signals.has_aggregation and signals.is_large_scan:
            candidates.append((0.65, ExplanationFactor.AGGREGATION_EFFICIENCY))
        if signals.is_large_scan and not signals.tp_uses_index:
            candidates.append((0.55, ExplanationFactor.COLUMNAR_PARALLEL_SCAN))
    else:
        if signals.tp_index_ordered and signals.has_top_n:
            candidates.append((0.9, ExplanationFactor.INDEX_PROVIDES_ORDER))
        if signals.tp_uses_index and signals.is_small_query:
            candidates.append((0.85, ExplanationFactor.SELECTIVE_INDEX_ACCESS))
        if signals.is_small_query:
            candidates.append((0.6, ExplanationFactor.SMALL_QUERY_OVERHEAD))
            candidates.append((0.4, ExplanationFactor.SMALL_DATA_VOLUME))
        if signals.tp_uses_index:
            candidates.append((0.5, ExplanationFactor.SMALL_QUERY_OVERHEAD))
    candidates.sort(key=lambda item: item[0], reverse=True)
    ordered: list[str] = []
    for _score, factor in candidates:
        if factor.value not in ordered:
            ordered.append(factor.value)
    return ordered
