"""Scalar reference implementations of the router, kept as test oracles.

The production router featurizes, convolves and backpropagates whole
batches at once.  These are the straightforward one-at-a-time versions the
batched paths are checked against:

* :func:`scalar_node_features` — one plan node's feature vector;
* :func:`reference_loss_and_gradients` — one plan pair's forward and
  backward pass, plan by plan, with ``np.argmax`` pooling and an
  ``np.add.at`` child scatter;
* :func:`reference_fit` — the mini-batch loop that sums those per-sample
  gradients and applies Adam array by array.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.htap.plan.nodes import AGGREGATE_NODE_TYPES, JOIN_NODE_TYPES, SCAN_NODE_TYPES, PlanNode
from repro.router.features import (
    _INDEX_NODE_TYPES,
    _LOG_COST_SCALE,
    _LOG_ROWS_SCALE,
    _LOG_TABLE_SCALE,
    _NODE_TYPE_INDEX,
    PlanFeaturizer,
)
from repro.router.tensors import PlanTensor
from repro.router.treecnn import TreeCNNClassifier


# ------------------------------------------------------------------ features
def scalar_node_features(featurizer: PlanFeaturizer, node: PlanNode) -> np.ndarray:
    """Feature vector of a single plan node, built one value at a time."""
    one_hot = np.zeros(len(_NODE_TYPE_INDEX), dtype=np.float64)
    one_hot[_NODE_TYPE_INDEX[node.node_type]] = 1.0

    log_rows = math.log1p(max(0.0, node.plan_rows)) / _LOG_ROWS_SCALE
    log_cost = math.log1p(max(0.0, node.total_cost)) / _LOG_COST_SCALE
    uses_index = 1.0 if (
        node.index_name is not None or node.node_type in _INDEX_NODE_TYPES
    ) else 0.0
    is_scan = 1.0 if node.node_type in SCAN_NODE_TYPES else 0.0
    is_join = 1.0 if node.node_type in JOIN_NODE_TYPES else 0.0
    is_aggregate = 1.0 if node.node_type in AGGREGATE_NODE_TYPES else 0.0

    table_rows = 0.0
    if node.relation is not None:
        table_rows = featurizer._table_rows(node.relation, node.plan_rows)
    log_table = math.log1p(table_rows) / _LOG_TABLE_SCALE

    numeric = np.array(
        [log_rows, log_cost, uses_index, is_scan, is_join, is_aggregate, log_table],
        dtype=np.float64,
    )
    return np.concatenate([one_hot, numeric])


# ------------------------------------------------------------------ tree-CNN
def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _relu_grad(z: np.ndarray) -> np.ndarray:
    return (z > 0.0).astype(np.float64)


def _forward_plan(model: TreeCNNClassifier, tensor: PlanTensor) -> dict:
    parameters = model.parameters
    triples1 = tensor.triples()
    z1 = triples1 @ parameters["conv1_w"] + parameters["conv1_b"]
    a1 = _relu(z1)
    padded1 = np.zeros((tensor.node_count + 1, model.config.conv1_channels))
    padded1[1:] = a1
    triples2 = np.concatenate(
        [padded1[1:], padded1[tensor.left], padded1[tensor.right]], axis=1
    )
    z2 = triples2 @ parameters["conv2_w"] + parameters["conv2_b"]
    a2 = _relu(z2)
    argmax = np.argmax(a2, axis=0)
    pooled = a2[argmax, np.arange(a2.shape[1])]
    return dict(
        tensor=tensor, triples1=triples1, z1=z1, padded1=padded1,
        triples2=triples2, z2=z2, a2=a2, argmax=argmax, pooled=pooled,
    )


def _add(gradients: dict[str, np.ndarray], name: str, gradient: np.ndarray) -> None:
    if name in gradients:
        gradients[name] += gradient
    else:
        gradients[name] = gradient.copy()


def _backward_plan(
    model: TreeCNNClassifier, cache: dict, d_pooled: np.ndarray, gradients: dict
) -> None:
    parameters = model.parameters
    d_a2 = np.zeros_like(cache["a2"])
    d_a2[cache["argmax"], np.arange(cache["a2"].shape[1])] = d_pooled
    d_z2 = d_a2 * _relu_grad(cache["z2"])
    _add(gradients, "conv2_w", cache["triples2"].T @ d_z2)
    _add(gradients, "conv2_b", d_z2.sum(axis=0))
    d_triples2 = d_z2 @ parameters["conv2_w"].T

    c1 = model.config.conv1_channels
    d_padded1 = np.zeros_like(cache["padded1"])
    d_padded1[1:] += d_triples2[:, :c1]
    np.add.at(d_padded1, cache["tensor"].left, d_triples2[:, c1 : 2 * c1])
    np.add.at(d_padded1, cache["tensor"].right, d_triples2[:, 2 * c1 :])
    d_z1 = d_padded1[1:] * _relu_grad(cache["z1"])
    _add(gradients, "conv1_w", cache["triples1"].T @ d_z1)
    _add(gradients, "conv1_b", d_z1.sum(axis=0))


def reference_loss_and_gradients(
    model: TreeCNNClassifier,
    tp_tensor: PlanTensor,
    ap_tensor: PlanTensor,
    label: int,
    gradients: dict[str, np.ndarray],
) -> tuple[float, np.ndarray]:
    """One pair's ``(loss, probabilities)``; adds its gradients into ``gradients``."""
    parameters = model.parameters
    tp, ap = _forward_plan(model, tp_tensor), _forward_plan(model, ap_tensor)
    pair_vector = np.concatenate([tp["pooled"], ap["pooled"]])
    z_hidden = pair_vector @ parameters["head_w"] + parameters["head_b"]
    hidden = _relu(z_hidden)
    z_embedding = hidden @ parameters["embed_w"] + parameters["embed_b"]
    embedding = _relu(z_embedding)
    logits = embedding @ parameters["out_w"] + parameters["out_b"]
    exp = np.exp(logits - np.max(logits))
    probabilities = exp / np.sum(exp)
    loss = -float(np.log(max(probabilities[label], 1e-12)))

    d_logits = probabilities.copy()
    d_logits[label] -= 1.0
    _add(gradients, "out_w", np.outer(embedding, d_logits))
    _add(gradients, "out_b", d_logits)
    d_z_embedding = (d_logits @ parameters["out_w"].T) * _relu_grad(z_embedding)
    _add(gradients, "embed_w", np.outer(hidden, d_z_embedding))
    _add(gradients, "embed_b", d_z_embedding)
    d_z_hidden = (d_z_embedding @ parameters["embed_w"].T) * _relu_grad(z_hidden)
    _add(gradients, "head_w", np.outer(pair_vector, d_z_hidden))
    _add(gradients, "head_b", d_z_hidden)
    d_pair = d_z_hidden @ parameters["head_w"].T

    c2 = model.config.conv2_channels
    _backward_plan(model, tp, d_pair[:c2], gradients)
    _backward_plan(model, ap, d_pair[c2:], gradients)
    return loss, probabilities


def reference_fit(
    model: TreeCNNClassifier,
    samples: list[tuple[PlanTensor, PlanTensor, int]],
    *,
    epochs: int,
    learning_rate: float = 1e-3,
    validation_fraction: float = 0.2,
    batch_size: int = 16,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
    weight_decay: float = 1e-5,
    seed: int = 17,
) -> None:
    """``RouterTrainer.train`` with per-sample gradients and per-array Adam."""
    validation_count = int(len(samples) * validation_fraction)
    training = samples[: len(samples) - validation_count] or samples
    shuffler = random.Random(seed)
    first_moment: dict[str, np.ndarray] = {}
    second_moment: dict[str, np.ndarray] = {}
    step = 0
    order = list(range(len(training)))
    for _epoch in range(epochs):
        shuffler.shuffle(order)
        for start in range(0, len(order), batch_size):
            batch = [training[index] for index in order[start : start + batch_size]]
            gradients: dict[str, np.ndarray] = {}
            for tp_tensor, ap_tensor, label in batch:
                reference_loss_and_gradients(model, tp_tensor, ap_tensor, label, gradients)
            step += 1
            for name, gradient in gradients.items():
                gradient *= 1.0 / len(batch)
                parameter = model.parameters[name]
                if weight_decay and parameter.ndim > 1:
                    gradient = gradient + weight_decay * parameter
                first = first_moment.get(name, np.zeros_like(parameter))
                second = second_moment.get(name, np.zeros_like(parameter))
                first_moment[name] = beta1 * first + (1.0 - beta1) * gradient
                second_moment[name] = beta2 * second + (1.0 - beta2) * gradient**2
                corrected_first = first_moment[name] / (1.0 - beta1**step)
                corrected_second = second_moment[name] / (1.0 - beta2**step)
                parameter -= learning_rate * corrected_first / (np.sqrt(corrected_second) + epsilon)
