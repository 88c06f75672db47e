"""Knowledge-base entries.

The paper stores, for each historical query:
``<plan pair encoding, plan details, execution result, expert explanation>``.
:class:`KnowledgeEntry` is exactly that record, with a little metadata used
by the curation policies (insert time, correction history, ground-truth
factors for evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.htap.engines.base import EngineKind


@dataclass
class KnowledgeEntry:
    """One historical query stored in the knowledge base."""

    entry_id: str
    #: The plan-pair encoding produced by the smart router (the retrieval key).
    embedding: np.ndarray
    #: Original SQL of the historical query.
    sql: str
    #: Plan details for both engines as EXPLAIN JSON text, ``{"TP": ..., "AP": ...}``,
    #: rendered once, exactly as the KNOWLEDGE block shows it.
    plan_details_json: str
    #: Which engine executed the query faster.
    faster_engine: EngineKind
    #: Measured latencies in seconds.
    tp_latency_seconds: float
    ap_latency_seconds: float
    #: Expert-curated explanation of the performance difference.
    expert_explanation: str
    #: Ground-truth causal factors (factor enum values) behind the difference.
    factors: tuple[str, ...] = ()
    #: Logical insert time (a counter, not a wall clock) used by expiry policies.
    inserted_at: int = 0
    #: Number of expert corrections applied to this entry.
    correction_count: int = 0
    #: Free-form metadata (pattern name, generator parameters, ...).
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.embedding = np.asarray(self.embedding, dtype=np.float64)
        if self.embedding.ndim != 1:
            raise ValueError("embedding must be a 1-D vector")

    @property
    def execution_result_text(self) -> str:
        """The "execution result" field as prose, used inside prompts."""
        return (
            f"{self.faster_engine.value} was faster "
            f"(TP {self.tp_latency_seconds:.3f}s vs AP {self.ap_latency_seconds:.3f}s)"
        )

    @property
    def speedup(self) -> float:
        slow = max(self.tp_latency_seconds, self.ap_latency_seconds)
        fast = min(self.tp_latency_seconds, self.ap_latency_seconds)
        if fast <= 0:
            return float("inf")
        return slow / fast

    def apply_correction(self, corrected_explanation: str, factors: tuple[str, ...] | None = None) -> None:
        """Replace the explanation with an expert correction."""
        self.expert_explanation = corrected_explanation
        if factors is not None:
            self.factors = factors
        self.correction_count += 1
