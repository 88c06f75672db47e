"""Serialisation of plan trees to the EXPLAIN dictionary format of the paper.

Table II of the paper shows plans as nested dictionaries with the keys
``'Node Type'``, ``'Total Cost'``, ``'Plan Rows'``, ``'Relation Name'`` and
``'Plans'``.  This module converts :class:`~repro.htap.plan.nodes.PlanNode`
trees to and from that format so that prompts, the knowledge base, and the
benchmark that regenerates Table II all use the exact same representation.
"""

from __future__ import annotations

import json
from typing import Any

from repro.htap.plan.nodes import NodeType, PlanNode


def plan_to_dict(plan: PlanNode, *, include_extra: bool = True) -> dict[str, Any]:
    """Convert a plan tree to the paper's EXPLAIN dictionary format."""
    node: dict[str, Any] = {
        "Node Type": plan.node_type.value,
        "Total Cost": round(float(plan.total_cost), 2),
        "Plan Rows": int(round(plan.plan_rows)),
    }
    if plan.relation is not None:
        node["Relation Name"] = plan.relation
    if plan.index_name is not None:
        node["Index Name"] = plan.index_name
    if plan.predicate is not None:
        node["Filter"] = plan.predicate
    if plan.output_columns:
        node["Output"] = list(plan.output_columns)
    if include_extra and plan.extra:
        node.update(plan.extra)
    if plan.children:
        node["Plans"] = [plan_to_dict(child, include_extra=include_extra) for child in plan.children]
    return node


def plan_to_json(plan: PlanNode, *, indent: int | None = None) -> str:
    """JSON rendering of :func:`plan_to_dict` (used in prompts and storage)."""
    return json.dumps(plan_to_dict(plan), indent=indent)


_KNOWN_KEYS = {
    "Node Type",
    "Total Cost",
    "Plan Rows",
    "Relation Name",
    "Index Name",
    "Filter",
    "Output",
    "Plans",
}


def _node(data: dict[str, Any], children: list[PlanNode]) -> PlanNode:
    """One :class:`PlanNode` from its EXPLAIN dictionary, given its rebuilt children."""
    if "Node Type" not in data:
        raise ValueError("plan dictionary is missing 'Node Type'")
    return PlanNode(
        node_type=NodeType.from_display_name(data["Node Type"]),
        total_cost=float(data.get("Total Cost", 0.0)),
        plan_rows=float(data.get("Plan Rows", 1.0)),
        relation=data.get("Relation Name"),
        index_name=data.get("Index Name"),
        predicate=data.get("Filter"),
        output_columns=tuple(data.get("Output", ())),
        children=children,
        extra={key: value for key, value in data.items() if key not in _KNOWN_KEYS},
    )


def plan_from_dict(data: dict[str, Any]) -> PlanNode:
    """Rebuild a plan tree from the EXPLAIN dictionary format.

    Unknown keys are preserved in ``extra`` so a round trip is lossless for
    engine-specific annotations.
    """
    return _node(data, [plan_from_dict(child) for child in data.get("Plans", [])])


def plan_from_json(text: str) -> PlanNode:
    """Rebuild a plan tree from its :func:`plan_to_json` text.

    The decoder hands each node's dictionary to its hook after its
    ``"Plans"`` are already nodes, so the tree is built bottom-up in the
    same pass that parses it, without an intermediate dictionary tree.
    """
    return _PLAN_DECODER.decode(text)


def _node_with_parsed_children(data: dict[str, Any]) -> PlanNode:
    return _node(data, data.get("Plans", []))


#: Built once: ``json.loads`` with a hook builds a new decoder on every
#: call, about a fifth of the parse time of one plan pair.
_PLAN_DECODER = json.JSONDecoder(object_hook=_node_with_parsed_children)
