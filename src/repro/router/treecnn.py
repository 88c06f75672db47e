"""Tree-CNN plan-pair classifier with manual backpropagation.

Architecture (numpy only, no deep-learning framework):

.. code-block:: text

    per plan:   node features --tree conv (C1)--> --tree conv (C2)--> max pool
    per pair:   [pool(TP) ; pool(AP)] --dense (H, relu)--> dense (E, relu)
                --dense (2)--> softmax over {TP faster, AP faster}

The output of the ``E``-dimensional layer (16 by default, as in the paper) is
the **plan-pair embedding** stored in the knowledge base and used as the
retrieval key.  The model is a few thousand parameters — well under the
paper's "< 1 MB" footprint — and a single forward pass is far below 1 ms.

Training and inference run the same packed pass.  All plans of a batch (the
TP plans, then the AP plans) are joined into one forest with
:meth:`PlanTensor.pack`, so each tree convolution is one matmul over every
node of the batch, max pooling is one ``np.maximum.reduceat`` over the
plans' row segments, and the dense head is one matmul over the stacked pair
vectors.  A training step runs that pass once per mini-batch and
backpropagates through it once; the per-sample gradients are never formed.

All parameters are views into one flat float64 buffer (:attr:`flat`), so the
Adam trainer updates the whole model with a handful of vector operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.router.tensors import PlanTensor

#: Class index convention: 0 = TP is faster, 1 = AP is faster.
CLASS_TP = 0
CLASS_AP = 1

TensorPair = tuple[PlanTensor, PlanTensor]


@dataclass(frozen=True)
class TreeCNNConfig:
    """Hyper-parameters of the tree-CNN."""

    feature_size: int
    conv1_channels: int = 64
    conv2_channels: int = 32
    head_hidden: int = 32
    embedding_size: int = 16
    seed: int = 13


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a ``(B, 2)`` logit matrix."""
    exp = np.exp(logits - np.max(logits, axis=1, keepdims=True))
    return exp / np.sum(exp, axis=1, keepdims=True)


def _segment_argmax(values: np.ndarray, starts: np.ndarray, maxima: np.ndarray) -> np.ndarray:
    """Row of each segment's per-column maximum, as ``np.argmax`` picks it.

    ``maxima`` is ``np.maximum.reduceat(values, starts)``; on ties the first
    row of the segment wins, so the result is exactly a per-segment argmax.
    """
    rows = values.shape[0]
    segment = np.repeat(np.arange(len(starts)), np.diff(starts, append=rows))
    hits = np.where(values == maxima[segment], np.arange(rows)[:, None], rows)
    return np.minimum.reduceat(hits, starts, axis=0)


def _plans(pairs: Sequence[tuple]) -> list[PlanTensor]:
    """The TP plans of ``pairs``, then their AP plans (the packed row order)."""
    return [pair[0] for pair in pairs] + [pair[1] for pair in pairs]


class TreeCNNClassifier:
    """The smart router's model: classify which engine is faster.

    :attr:`parameters` maps each name to an array that is a view into
    :attr:`flat`; writing a parameter in place writes the buffer, and
    :meth:`views` lays any vector of the same length out the same way.
    """

    def __init__(self, config: TreeCNNConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        feature_size = config.feature_size
        c1, c2 = config.conv1_channels, config.conv2_channels
        hidden, embedding = config.head_hidden, config.embedding_size
        initial = {
            "conv1_w": _glorot(rng, 3 * feature_size, c1),
            "conv1_b": np.zeros(c1),
            "conv2_w": _glorot(rng, 3 * c1, c2),
            "conv2_b": np.zeros(c2),
            "head_w": _glorot(rng, 2 * c2, hidden),
            "head_b": np.zeros(hidden),
            "embed_w": _glorot(rng, hidden, embedding),
            "embed_b": np.zeros(embedding),
            "out_w": _glorot(rng, embedding, 2),
            "out_b": np.zeros(2),
        }
        self._layout: list[tuple[str, slice, tuple[int, ...]]] = []
        offset = 0
        for name, array in initial.items():
            self._layout.append((name, slice(offset, offset + array.size), array.shape))
            offset += array.size
        self.flat = np.concatenate([array.ravel() for array in initial.values()])
        self.parameters: dict[str, np.ndarray] = self.views(self.flat)

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """``name -> array`` views into ``vector``, laid out like :attr:`flat`."""
        return {name: vector[span].reshape(shape) for name, span, shape in self._layout}

    # --------------------------------------------------------------- forward
    def _convolve(self, tensors: Sequence[PlanTensor]):
        """Both tree convolutions over ``tensors`` packed into one forest.

        Returns ``(a2, starts, forest, triples1, a1, triples2)``; inference
        only pools ``a2`` over the ``starts`` segments, training
        backpropagates through all of it.
        """
        parameters = self.parameters
        forest, starts = PlanTensor.pack(tensors)
        triples1 = forest.triples()
        a1 = _relu(triples1 @ parameters["conv1_w"] + parameters["conv1_b"])
        padded1 = np.zeros((forest.node_count + 1, self.config.conv1_channels))
        padded1[1:] = a1
        triples2 = np.concatenate([a1, padded1[forest.left], padded1[forest.right]], axis=1)
        a2 = _relu(triples2 @ parameters["conv2_w"] + parameters["conv2_b"])
        return a2, starts, forest, triples1, a1, triples2

    def _head(self, pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(pair_vectors, hidden, embedding)`` for pooled TP rows then AP rows."""
        parameters = self.parameters
        count = pooled.shape[0] // 2
        pair_vectors = np.concatenate([pooled[:count], pooled[count:]], axis=1)
        hidden = _relu(pair_vectors @ parameters["head_w"] + parameters["head_b"])
        embedding = _relu(hidden @ parameters["embed_w"] + parameters["embed_b"])
        return pair_vectors, hidden, embedding

    # ------------------------------------------------------------- inference
    def embed_pairs(self, pairs: Sequence[TensorPair]) -> np.ndarray:
        """``(B, E)`` plan-pair embeddings (penultimate layer) in one packed pass."""
        if not pairs:
            return np.zeros((0, self.config.embedding_size))
        a2, starts, *_ = self._convolve(_plans(pairs))
        return self._head(np.maximum.reduceat(a2, starts, axis=0))[2]

    def embed_pair(self, tp_tensor: PlanTensor, ap_tensor: PlanTensor) -> np.ndarray:
        """The 16-dim plan-pair embedding of one pair."""
        return self.embed_pairs([(tp_tensor, ap_tensor)])[0]

    def predict_probas(self, pairs: Sequence[TensorPair]) -> np.ndarray:
        """``(B, 2)`` probabilities ``[P(TP faster), P(AP faster)]`` per pair."""
        parameters = self.parameters
        return _softmax(self.embed_pairs(pairs) @ parameters["out_w"] + parameters["out_b"])

    def predict_proba(self, tp_tensor: PlanTensor, ap_tensor: PlanTensor) -> np.ndarray:
        """Probabilities ``[P(TP faster), P(AP faster)]`` of one pair."""
        return self.predict_probas([(tp_tensor, ap_tensor)])[0]

    # -------------------------------------------------------------- training
    def loss_and_gradients(
        self, samples: Sequence[tuple[PlanTensor, PlanTensor, int]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cross-entropy of a mini-batch of ``(tp, ap, label)`` triples.

        Returns ``(losses, probabilities, gradient)``: the ``(B,)``
        per-sample losses, the ``(B, 2)`` probabilities, and the gradient
        of the *summed* loss as one vector laid out like :attr:`flat`.
        """
        bad = [label for _tp, _ap, label in samples if label not in (CLASS_TP, CLASS_AP)]
        if bad:
            raise ValueError(f"label must be {CLASS_TP} or {CLASS_AP}, got {bad[0]}")
        parameters = self.parameters
        batch = np.arange(len(samples))
        labels = np.array([label for _tp, _ap, label in samples], dtype=np.int64)

        a2, starts, forest, triples1, a1, triples2 = self._convolve(_plans(samples))
        pooled = np.maximum.reduceat(a2, starts, axis=0)
        argmax = _segment_argmax(a2, starts, pooled)
        pair_vectors, hidden, embedding = self._head(pooled)
        probabilities = _softmax(embedding @ parameters["out_w"] + parameters["out_b"])
        losses = -np.log(np.maximum(probabilities[batch, labels], 1e-12))

        gradient = np.empty_like(self.flat)
        grads = self.views(gradient)
        d_logits = probabilities.copy()
        d_logits[batch, labels] -= 1.0
        np.matmul(embedding.T, d_logits, out=grads["out_w"])
        d_logits.sum(axis=0, out=grads["out_b"])
        d_z_embedding = (d_logits @ parameters["out_w"].T) * (embedding > 0.0)
        np.matmul(hidden.T, d_z_embedding, out=grads["embed_w"])
        d_z_embedding.sum(axis=0, out=grads["embed_b"])
        d_z_hidden = (d_z_embedding @ parameters["embed_w"].T) * (hidden > 0.0)
        np.matmul(pair_vectors.T, d_z_hidden, out=grads["head_w"])
        d_z_hidden.sum(axis=0, out=grads["head_b"])
        d_pair = d_z_hidden @ parameters["head_w"].T

        c1, c2 = self.config.conv1_channels, self.config.conv2_channels
        d_z2 = np.zeros_like(a2)
        d_z2[argmax, np.arange(c2)] = np.concatenate([d_pair[:, :c2], d_pair[:, c2:]], axis=0)
        d_z2 *= a2 > 0.0
        np.matmul(triples2.T, d_z2, out=grads["conv2_w"])
        d_z2.sum(axis=0, out=grads["conv2_b"])
        d_triples2 = d_z2 @ parameters["conv2_w"].T

        d_z1 = d_triples2[:, :c1].copy()
        # Every node has at most one parent, so the non-zero child indices
        # are unique and a fancy-indexed += is exact (no np.add.at needed).
        for slot, children in ((1, forest.left), (2, forest.right)):
            has_child = children > 0
            d_z1[children[has_child] - 1] += d_triples2[has_child, slot * c1 : (slot + 1) * c1]
        d_z1 *= a1 > 0.0
        np.matmul(triples1.T, d_z1, out=grads["conv1_w"])
        d_z1.sum(axis=0, out=grads["conv1_b"])
        return losses, probabilities, gradient

    # ----------------------------------------------------------- persistence
    def parameter_count(self) -> int:
        return int(self.flat.size)

    def model_size_bytes(self) -> int:
        """Serialised size of the parameters (float64), for the <1 MB claim."""
        return int(self.flat.nbytes)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: array.copy() for name, array in self.parameters.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for name, array in state.items():
            if name not in self.parameters:
                raise KeyError(f"unexpected parameter {name!r}")
            if self.parameters[name].shape != array.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"{self.parameters[name].shape} vs {array.shape}"
                )
            self.parameters[name][...] = array


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))
