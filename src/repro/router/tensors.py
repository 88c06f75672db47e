"""Tree-to-tensor conversion for the tree convolution.

A plan tree is flattened into three aligned arrays:

* ``features`` — an ``(N + 1, F)`` matrix whose row 0 is an all-zero padding
  node and rows ``1..N`` are the real nodes in pre-order;
* ``left`` / ``right`` — integer arrays of length ``N`` giving, for each real
  node, the row index of its left/right child (0 when absent).

The tree convolution then computes, for every real node, a function of the
triple ``(node, left child, right child)``, exactly as in Bao/Neo.  Plans in
this system are at most binary (joins have two children, every other
operator has at most one), so no binarisation tricks are needed; a defensive
check raises if that invariant is ever violated.

Featurization goes through :meth:`PlanFeaturizer.features_for_nodes`, so
one tensor costs one array-op pipeline over all its nodes rather than ~F
small allocations per node; :meth:`PlanTensor.from_plans` extends that to a
whole batch of plans — every node of every plan is featurized in a single
call, which is what ``SmartRouter.embed_batch`` drives.

:meth:`PlanTensor.pack` joins many tensors into one forest that shares a
single padding row, so the tree-CNN convolves a whole batch of plans with
one matmul per layer, for training and inference alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.htap.plan.nodes import PlanNode
from repro.router.features import PlanFeaturizer


def _child_indices(nodes: list[PlanNode]) -> tuple[np.ndarray, np.ndarray]:
    """Left/right child row indices (1-based, 0 = absent) for pre-order nodes."""
    index_of = {id(node): position + 1 for position, node in enumerate(nodes)}
    left = np.zeros(len(nodes), dtype=np.int64)
    right = np.zeros(len(nodes), dtype=np.int64)
    for position, node in enumerate(nodes):
        if len(node.children) > 2:
            raise ValueError(
                f"plan node {node.node_type.value!r} has {len(node.children)} children; "
                "the tree convolution expects at most binary trees"
            )
        if len(node.children) >= 1:
            left[position] = index_of[id(node.children[0])]
        if len(node.children) == 2:
            right[position] = index_of[id(node.children[1])]
    return left, right


@dataclass
class PlanTensor:
    """Tensor form of one plan tree (see module docstring)."""

    features: np.ndarray  # (N + 1, F), row 0 is the zero padding node
    left: np.ndarray      # (N,) int, child row index or 0
    right: np.ndarray     # (N,) int, child row index or 0

    @property
    def node_count(self) -> int:
        return self.features.shape[0] - 1

    @property
    def feature_size(self) -> int:
        return self.features.shape[1]

    @classmethod
    def from_plan(cls, plan: PlanNode, featurizer: PlanFeaturizer) -> "PlanTensor":
        """Convert ``plan`` into tensor form using ``featurizer``."""
        nodes = list(plan.walk())
        features = np.zeros((len(nodes) + 1, featurizer.feature_size), dtype=np.float64)
        features[1:] = featurizer.features_for_nodes(nodes)
        left, right = _child_indices(nodes)
        return cls(features=features, left=left, right=right)

    @classmethod
    def from_plans(
        cls, plans: Sequence[PlanNode], featurizer: PlanFeaturizer
    ) -> list["PlanTensor"]:
        """Tensor forms for many plans, featurized in one batched call.

        All plans' nodes are concatenated and pushed through
        :meth:`PlanFeaturizer.features_for_nodes` once, then split back
        into per-plan feature matrices; each result matches
        :meth:`from_plan` exactly.
        """
        if not plans:
            return []
        node_lists = [list(plan.walk()) for plan in plans]
        all_nodes = [node for nodes in node_lists for node in nodes]
        all_features = featurizer.features_for_nodes(all_nodes)
        tensors: list[PlanTensor] = []
        cursor = 0
        for nodes in node_lists:
            count = len(nodes)
            features = np.zeros((count + 1, featurizer.feature_size), dtype=np.float64)
            features[1:] = all_features[cursor : cursor + count]
            cursor += count
            left, right = _child_indices(nodes)
            tensors.append(cls(features=features, left=left, right=right))
        return tensors

    @classmethod
    def pack(cls, tensors: Sequence["PlanTensor"]) -> tuple["PlanTensor", np.ndarray]:
        """All ``tensors`` as one forest, plus each plan's first node row.

        The forest's rows ``1..N`` are every plan's real nodes in order and
        its ``left`` / ``right`` indices are global; local child index
        ``j >= 1`` of a plan starting at node row ``s`` becomes ``s + j``,
        and the absent-child index 0 stays the shared padding row.  The
        returned ``starts`` are 0-based offsets into the ``N`` node rows
        (the segments for ``np.ufunc.reduceat``).  A lone tensor is
        returned as it is, without a copy.
        """
        if len(tensors) == 1:
            return tensors[0], np.zeros(1, dtype=np.int64)
        counts = np.fromiter(
            (tensor.node_count for tensor in tensors), dtype=np.int64, count=len(tensors)
        )
        starts = np.zeros(len(tensors), dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        features = np.zeros((int(counts.sum()) + 1, tensors[0].feature_size))
        np.concatenate([tensor.features[1:] for tensor in tensors], out=features[1:])
        offsets = np.repeat(starts, counts)
        left = np.concatenate([tensor.left for tensor in tensors])
        right = np.concatenate([tensor.right for tensor in tensors])
        forest = cls(
            features=features,
            left=np.where(left > 0, left + offsets, 0),
            right=np.where(right > 0, right + offsets, 0),
        )
        return forest, starts

    def triples(self) -> np.ndarray:
        """The ``(N, 3F)`` matrix of concatenated (node, left, right) features."""
        node_rows = self.features[1:]
        left_rows = self.features[self.left]
        right_rows = self.features[self.right]
        return np.concatenate([node_rows, left_rows, right_rows], axis=1)
