"""HTAPSystem — the facade that plays the role of ByteHTAP in the paper.

A single object owns the catalog, statistics, both optimizers and the
execution simulator, and exposes the operations the rest of the framework
needs:

* ``parse`` / ``explain_pair`` — obtain TP and AP plans for a SQL query
  (the equivalent of running ``EXPLAIN`` on both engines);
* ``run_both`` — execute the query on both engines (simulated) and report
  which engine is faster, by how much, and where the time went;
* ``create_index`` — DDL hook used by workloads that exercise the "index
  available" regime and by the paper's "additional index on ``c_phone``"
  user-context example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.htap.catalog import Catalog, Index
from repro.htap.engines.ap_optimizer import APOptimizer
from repro.htap.engines.base import EngineKind
from repro.htap.engines.execution import ExecutionResult, ExecutionSimulator, HardwareProfile
from repro.htap.engines.query_analysis import QueryAnalysis, analyze_query
from repro.htap.engines.tp_optimizer import TPOptimizer
from repro.htap.plan.nodes import PlanNode
from repro.htap.plan.serialize import plan_to_dict
from repro.htap.sql import ast, parse_query
from repro.htap.statistics import StatisticsCatalog
from repro.obs.tracing import get_tracer


@dataclass
class PlanPair:
    """The TP and AP plans produced for one query."""

    query: ast.Query
    tp_plan: PlanNode
    ap_plan: PlanNode

    def plan_for(self, engine: EngineKind) -> PlanNode:
        return self.tp_plan if engine is EngineKind.TP else self.ap_plan

    def explain_dicts(self) -> dict[str, dict]:
        """EXPLAIN output for both engines in the paper's Table II format."""
        return {"TP": plan_to_dict(self.tp_plan), "AP": plan_to_dict(self.ap_plan)}


@dataclass
class QueryExecution:
    """Full record of running one query on both engines."""

    query: ast.Query
    plan_pair: PlanPair
    tp_result: ExecutionResult
    ap_result: ExecutionResult

    @property
    def faster_engine(self) -> EngineKind:
        if self.tp_result.latency_seconds <= self.ap_result.latency_seconds:
            return EngineKind.TP
        return EngineKind.AP

    @property
    def slower_engine(self) -> EngineKind:
        return self.faster_engine.other()

    @property
    def speedup(self) -> float:
        """Latency of the slower engine divided by the faster engine's."""
        fast = self.result_for(self.faster_engine).latency_seconds
        slow = self.result_for(self.slower_engine).latency_seconds
        if fast <= 0:
            return float("inf")
        return slow / fast

    def result_for(self, engine: EngineKind) -> ExecutionResult:
        return self.tp_result if engine is EngineKind.TP else self.ap_result

    def summary(self) -> str:
        return (
            f"{self.faster_engine} is faster: TP={self.tp_result.latency_seconds:.3f}s, "
            f"AP={self.ap_result.latency_seconds:.3f}s (speedup {self.speedup:.1f}x)"
        )


class HTAPSystem:
    """The simulated HTAP DBMS with a TP and an AP engine.

    Parameters
    ----------
    scale_factor:
        TPC-H scale factor; the paper uses 100.
    include_fk_indexes:
        Whether foreign-key indexes exist on the TP engine (see
        :class:`repro.htap.catalog.Catalog`).
    hardware:
        Hardware profile used by the execution-latency model.
    """

    def __init__(
        self,
        scale_factor: float = 100.0,
        *,
        include_fk_indexes: bool = False,
        hardware: HardwareProfile | None = None,
    ):
        self.catalog = Catalog(scale_factor, include_fk_indexes=include_fk_indexes)
        self.statistics = StatisticsCatalog(self.catalog)
        self.tp_optimizer = TPOptimizer(self.catalog, self.statistics)
        self.ap_optimizer = APOptimizer(self.catalog, self.statistics)
        self.simulator = ExecutionSimulator(self.catalog, hardware)
        self._ddl_listeners: list[Callable[[str, str], None]] = []

    # ------------------------------------------------------------------- DDL
    def add_ddl_listener(self, listener: Callable[[str, str], None]) -> None:
        """Register a ``(event, index_name)`` callback fired after every DDL.

        Events are ``"create_index"`` and ``"drop_index"``.  The serving
        layer subscribes to invalidate its plan and explanation caches —
        a new or dropped index changes the plans the optimizers produce.
        """
        self._ddl_listeners.append(listener)

    def remove_ddl_listener(self, listener: Callable[[str, str], None]) -> None:
        self._ddl_listeners.remove(listener)

    def _notify_ddl(self, event: str, index_name: str) -> None:
        for listener in list(self._ddl_listeners):
            listener(event, index_name)

    def create_index(self, table_name: str, column_name: str) -> Index:
        """Create a secondary index on the TP engine (AP ignores indexes)."""
        index = self.catalog.create_index(table_name, column_name)
        self._notify_ddl("create_index", index.name)
        return index

    def drop_index(self, index_name: str) -> None:
        self.catalog.drop_index(index_name)
        self._notify_ddl("drop_index", index_name)

    # ------------------------------------------------------------------ query
    def parse(self, sql: str) -> ast.Query:
        """Parse SQL into the shared AST."""
        with get_tracer().span("htap.parse"):
            return parse_query(sql)

    def analyze(self, query: ast.Query | str) -> QueryAnalysis:
        """Engine-agnostic logical analysis of a query."""
        parsed = self.parse(query) if isinstance(query, str) else query
        return analyze_query(parsed, self.catalog, self.statistics)

    def explain_pair(self, query: ast.Query | str) -> PlanPair:
        """Plan the query on both engines (the EXPLAIN step of the paper)."""
        parsed = self.parse(query) if isinstance(query, str) else query
        with get_tracer().span("htap.optimize", engines="tp+ap"):
            # One logical analysis feeds both optimizers; neither mutates it.
            analysis = analyze_query(parsed, self.catalog, self.statistics)
            tp_plan = self.tp_optimizer.optimize_analysis(analysis)
            ap_plan = self.ap_optimizer.optimize_analysis(analysis)
        return PlanPair(query=parsed, tp_plan=tp_plan, ap_plan=ap_plan)

    def run_both(self, query: ast.Query | str) -> QueryExecution:
        """Plan and execute the query on both engines, as the paper's setup does."""
        plan_pair = self.explain_pair(query)
        with get_tracer().span("htap.execute", engines="tp+ap"):
            tp_result = self.simulator.execute(EngineKind.TP, plan_pair.tp_plan)
            ap_result = self.simulator.execute(EngineKind.AP, plan_pair.ap_plan)
        return QueryExecution(
            query=plan_pair.query,
            plan_pair=plan_pair,
            tp_result=tp_result,
            ap_result=ap_result,
        )
