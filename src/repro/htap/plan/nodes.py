"""Plan tree nodes.

Both engines produce plans as trees of :class:`PlanNode`.  Node-type names
follow the paper's Table II exactly ("Nested loop inner join", "Inner hash
join", "Group aggregate", "Table Scan", ...) so the EXPLAIN output, the
tree-CNN featuriser, and the LLM prompts all speak the same vocabulary as the
paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator


class NodeType(enum.Enum):
    """Physical operator types across both engines.

    The string values are the display names used in EXPLAIN output
    (paper Table II format).
    """

    TABLE_SCAN = "Table Scan"
    INDEX_SCAN = "Index Scan"
    INDEX_LOOKUP = "Index Lookup"
    FILTER = "Filter"
    NESTED_LOOP_JOIN = "Nested loop inner join"
    INDEX_NESTED_LOOP_JOIN = "Index nested loop join"
    HASH_JOIN = "Inner hash join"
    HASH = "Hash"
    MERGE_JOIN = "Merge join"
    SORT = "Sort"
    TOP_N_SORT = "Top-N sort"
    LIMIT = "Limit"
    AGGREGATE = "Aggregate"
    GROUP_AGGREGATE = "Group aggregate"
    HASH_AGGREGATE = "Hash aggregate"
    PROJECT = "Project"
    EXCHANGE = "Exchange"

    @classmethod
    def from_display_name(cls, name: str) -> "NodeType":
        try:
            return _NODE_TYPES[name]
        except KeyError:
            raise ValueError(f"unknown plan node type {name!r}") from None


#: Display name -> node type, for parsing EXPLAIN output.
_NODE_TYPES = {member.value: member for member in NodeType}


#: Node types that implement a join.
JOIN_NODE_TYPES = frozenset(
    {
        NodeType.NESTED_LOOP_JOIN,
        NodeType.INDEX_NESTED_LOOP_JOIN,
        NodeType.HASH_JOIN,
        NodeType.MERGE_JOIN,
    }
)

#: Node types that implement an aggregation.
AGGREGATE_NODE_TYPES = frozenset(
    {NodeType.AGGREGATE, NodeType.GROUP_AGGREGATE, NodeType.HASH_AGGREGATE}
)

#: Node types that read base data.
SCAN_NODE_TYPES = frozenset({NodeType.TABLE_SCAN, NodeType.INDEX_SCAN, NodeType.INDEX_LOOKUP})


@dataclass
class PlanNode:
    """A node in a physical query plan tree.

    Attributes
    ----------
    node_type:
        Physical operator type.
    total_cost:
        The engine's own cost estimate for the subtree rooted here.  Costs are
        *not comparable across engines* — the paper stresses this repeatedly —
        so the AP optimizer uses a different cost unit scale than TP.
    plan_rows:
        Estimated output cardinality.
    relation:
        Base table name for scan nodes.
    index_name:
        Index used by index scans / index nested-loop joins.
    predicate:
        Human-readable predicate applied at this node (filter or join
        condition).
    output_columns:
        Columns produced by this node (used by column-store scans to show
        column pruning).
    children:
        Child plan nodes (left/outer first).
    extra:
        Engine-specific annotations (e.g. ``{"Storage": "column-oriented"}``).
    """

    node_type: NodeType
    total_cost: float = 0.0
    plan_rows: float = 1.0
    relation: str | None = None
    index_name: str | None = None
    predicate: str | None = None
    output_columns: tuple[str, ...] = ()
    children: list["PlanNode"] = field(default_factory=list)
    extra: dict[str, str] = field(default_factory=dict)

    # -------------------------------------------------------------- traversal
    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the subtree rooted at this node."""
        yield self
        for child in self.children:
            yield from child.walk()

    def depth(self) -> int:
        """Height of the subtree (a single node has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    def find_all(self, node_type: NodeType) -> list["PlanNode"]:
        return [node for node in self.walk() if node.node_type == node_type]

    def scan_nodes(self) -> list["PlanNode"]:
        return [node for node in self.walk() if node.node_type in SCAN_NODE_TYPES]

    def join_nodes(self) -> list["PlanNode"]:
        return [node for node in self.walk() if node.node_type in JOIN_NODE_TYPES]

    def aggregate_nodes(self) -> list["PlanNode"]:
        return [node for node in self.walk() if node.node_type in AGGREGATE_NODE_TYPES]

    def scanned_tables(self) -> list[str]:
        """Base tables read by this plan, in traversal order."""
        return [node.relation for node in self.scan_nodes() if node.relation is not None]

    def uses_index(self) -> bool:
        """True when any node in the subtree uses an index."""
        return any(
            node.index_name is not None
            or node.node_type in (NodeType.INDEX_SCAN, NodeType.INDEX_LOOKUP, NodeType.INDEX_NESTED_LOOP_JOIN)
            for node in self.walk()
        )

    # ------------------------------------------------------------- structural
    def structural_signature(self) -> tuple:
        """Hashable structure-only signature (node types + relations).

        Two plans with identical operator trees over the same tables share a
        signature regardless of costs and cardinalities; used for plan caching
        and deduplication in the workload generator.
        """
        return (
            self.node_type.value,
            self.relation,
            tuple(child.structural_signature() for child in self.children),
        )

    def pretty(self, indent: int = 0) -> str:
        """Indented single-string rendering, useful in logs and tests."""
        parts = [self.node_type.value]
        if self.relation:
            parts.append(f"on {self.relation}")
        if self.index_name:
            parts.append(f"using {self.index_name}")
        parts.append(f"(cost={self.total_cost:.2f}, rows={self.plan_rows:.0f})")
        if self.predicate:
            parts.append(f"[{self.predicate}]")
        line = "  " * indent + " ".join(parts)
        lines = [line]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.pretty()
