"""SmartRouter — the user-facing facade over the tree-CNN.

Responsibilities (paper Section III-A):

* **Routing**: given the TP and AP plans for a query, predict which engine
  will be faster (used by the HTAP system to pick an engine).
* **Plan-pair encoding**: expose the model's 16-dim penultimate activations
  as the embedding stored in, and used to query, the RAG knowledge base.
* **Operational claims**: the model is tiny (< 1 MB) and inference is
  sub-millisecond; :meth:`model_size_bytes` and :meth:`timed_embed` exist so
  the benchmarks can verify both.

The router is trained on labeled query executions
(:class:`repro.workloads.labeling.LabeledQuery`), i.e. on plan pairs whose
faster engine is known from (simulated) execution.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.htap.catalog import Catalog
from repro.htap.engines.base import EngineKind
from repro.htap.system import PlanPair
from repro.obs.tracing import get_tracer
from repro.router.features import PlanFeaturizer
from repro.router.tensors import PlanTensor
from repro.router.training import RouterTrainer, TrainingReport, TrainingSample
from repro.router.treecnn import CLASS_AP, CLASS_TP, TreeCNNClassifier, TreeCNNConfig
from repro.workloads.labeling import LabeledQuery


@dataclass
class RoutingDecision:
    """Outcome of routing one plan pair."""

    engine: EngineKind
    confidence: float
    probabilities: tuple[float, float]
    inference_seconds: float


class SmartRouter:
    """Tree-CNN router and plan-pair encoder."""

    def __init__(
        self,
        catalog: Catalog | None = None,
        *,
        embedding_size: int = 16,
        seed: int = 13,
    ):
        self.featurizer = PlanFeaturizer(catalog)
        self.config = TreeCNNConfig(
            feature_size=self.featurizer.feature_size,
            embedding_size=embedding_size,
            seed=seed,
        )
        self.model = TreeCNNClassifier(self.config)
        self.training_report: TrainingReport | None = None

    # ------------------------------------------------------------------ train
    def _tensor_pairs(self, plan_pairs: Sequence[PlanPair]) -> list[tuple[PlanTensor, PlanTensor]]:
        """``(tp, ap)`` tensors for many plan pairs, featurized in two batched calls."""
        tp_tensors = PlanTensor.from_plans([pair.tp_plan for pair in plan_pairs], self.featurizer)
        ap_tensors = PlanTensor.from_plans([pair.ap_plan for pair in plan_pairs], self.featurizer)
        return list(zip(tp_tensors, ap_tensors))

    def _samples(self, labeled_queries: list[LabeledQuery]) -> list[TrainingSample]:
        pairs = self._tensor_pairs([labeled.execution.plan_pair for labeled in labeled_queries])
        return [
            (tp, ap, CLASS_TP if labeled.faster_engine is EngineKind.TP else CLASS_AP)
            for (tp, ap), labeled in zip(pairs, labeled_queries)
        ]

    def fit(
        self,
        labeled_queries: list[LabeledQuery],
        *,
        epochs: int = 40,
        learning_rate: float = 1e-3,
        validation_fraction: float = 0.2,
    ) -> TrainingReport:
        """Train the router on labeled executions."""
        samples = self._samples(labeled_queries)
        trainer = RouterTrainer(self.model, learning_rate=learning_rate)
        self.training_report = trainer.train(
            samples, epochs=epochs, validation_fraction=validation_fraction
        )
        return self.training_report

    def accuracy(self, labeled_queries: list[LabeledQuery]) -> float:
        """Routing accuracy on a labeled set, in one packed forward pass."""
        return RouterTrainer(self.model).evaluate(self._samples(labeled_queries))

    # ------------------------------------------------------------------ route
    def route(self, plan_pair: PlanPair) -> RoutingDecision:
        """Predict the faster engine for a plan pair."""
        with get_tracer().span("router.route") as span:
            tp_tensor = PlanTensor.from_plan(plan_pair.tp_plan, self.featurizer)
            ap_tensor = PlanTensor.from_plan(plan_pair.ap_plan, self.featurizer)
            start = time.perf_counter()
            probabilities = self.model.predict_proba(tp_tensor, ap_tensor)
            elapsed = time.perf_counter() - start
            winner = EngineKind.TP if probabilities[CLASS_TP] >= probabilities[CLASS_AP] else EngineKind.AP
            confidence = float(np.max(probabilities))
            span.set_attributes(engine=winner.value, confidence=round(confidence, 4))
            return RoutingDecision(
                engine=winner,
                confidence=confidence,
                probabilities=(float(probabilities[CLASS_TP]), float(probabilities[CLASS_AP])),
                inference_seconds=elapsed,
            )

    # ------------------------------------------------------------------ embed
    def embed_pair(self, plan_pair: PlanPair) -> np.ndarray:
        """The 16-dim plan-pair embedding used as the knowledge-base key."""
        tp_tensor = PlanTensor.from_plan(plan_pair.tp_plan, self.featurizer)
        ap_tensor = PlanTensor.from_plan(plan_pair.ap_plan, self.featurizer)
        return self.model.embed_pair(tp_tensor, ap_tensor)

    def timed_embed(self, plan_pair: PlanPair) -> tuple[np.ndarray, float]:
        """Embedding plus wall-clock encoding time (for the latency benchmark)."""
        start = time.perf_counter()
        embedding = self.embed_pair(plan_pair)
        return embedding, time.perf_counter() - start

    def embed_batch(
        self,
        plan_pairs: Sequence[PlanPair],
        *,
        timings: dict[str, float] | None = None,
    ) -> np.ndarray:
        """Embed many plan pairs in one vectorized pipeline.

        Returns a ``(len(plan_pairs), embedding_size)`` array whose rows match
        per-pair :meth:`embed_pair` output.  This is the path the serving
        layer's micro-batcher drives: the TP and the AP plans are each
        featurized in one :meth:`PlanTensor.from_plans` call, and the
        convolutions and the dense head each run as a single matmul over
        the whole packed batch.

        When ``timings`` is given, ``featurize_seconds`` and
        ``forward_seconds`` are written into it — the micro-batcher uses
        this to stamp the same split onto its replayed request spans.
        """
        with get_tracer().span("router.embed_batch", batch_size=len(plan_pairs)) as span:
            featurize_start = time.perf_counter()
            tensor_pairs = self._tensor_pairs(plan_pairs)
            forward_start = time.perf_counter()
            embeddings = self.model.embed_pairs(tensor_pairs)
            forward_end = time.perf_counter()
            featurize_seconds = forward_start - featurize_start
            forward_seconds = forward_end - forward_start
            span.set_attributes(
                featurize_seconds=round(featurize_seconds, 6),
                forward_seconds=round(forward_seconds, 6),
            )
            if timings is not None:
                timings["featurize_seconds"] = featurize_seconds
                timings["forward_seconds"] = forward_seconds
            return embeddings

    def timed_embed_batch(self, plan_pairs: Sequence[PlanPair]) -> tuple[np.ndarray, float]:
        """Batched embeddings plus total wall-clock encoding time."""
        start = time.perf_counter()
        embeddings = self.embed_batch(plan_pairs)
        return embeddings, time.perf_counter() - start

    # --------------------------------------------------------------- metadata
    @property
    def embedding_size(self) -> int:
        return self.config.embedding_size

    def model_size_bytes(self) -> int:
        return self.model.model_size_bytes()

    def parameter_count(self) -> int:
        return self.model.parameter_count()

    # ------------------------------------------------------------ persistence
    def save(self, path: str | Path) -> None:
        """Persist the trained parameters (and config) to ``path``."""
        payload = {
            "config": self.config,
            "state": self.model.state_dict(),
        }
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)

    @classmethod
    def load(cls, path: str | Path, catalog: Catalog | None = None) -> "SmartRouter":
        """Load a router previously stored with :meth:`save`."""
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        config: TreeCNNConfig = payload["config"]
        router = cls(catalog, embedding_size=config.embedding_size, seed=config.seed)
        if router.config.feature_size != config.feature_size:
            raise ValueError(
                "featurizer width changed since the model was saved "
                f"({config.feature_size} vs {router.config.feature_size})"
            )
        router.model.load_state_dict(payload["state"])
        return router
