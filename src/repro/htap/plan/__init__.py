"""Query plan representation shared by the TP and AP engines."""

from repro.htap.plan.nodes import NodeType, PlanNode
from repro.htap.plan.serialize import plan_to_dict, plan_to_json, plan_from_dict, plan_from_json
from repro.htap.plan.properties import PlanProperties, analyze_plan
from repro.htap.plan.diff import PlanDiff, diff_plans

__all__ = [
    "NodeType",
    "PlanNode",
    "plan_to_dict",
    "plan_to_json",
    "plan_from_dict",
    "plan_from_json",
    "PlanProperties",
    "analyze_plan",
    "PlanDiff",
    "diff_plans",
]
