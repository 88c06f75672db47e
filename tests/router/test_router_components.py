"""Tests for plan featurisation, tree tensors, and the tree-CNN internals."""

import numpy as np
import pytest

from repro.htap.plan.nodes import NodeType, PlanNode
from repro.router.features import PlanFeaturizer, structural_embedding
from repro.router.tensors import PlanTensor
from repro.router.treecnn import CLASS_AP, CLASS_TP, TreeCNNClassifier, TreeCNNConfig
from router_reference import scalar_node_features


def _plan() -> PlanNode:
    scan = PlanNode(NodeType.TABLE_SCAN, total_cost=10.0, plan_rows=1000.0, relation="orders")
    filtered = PlanNode(NodeType.FILTER, total_cost=12.0, plan_rows=100.0, children=[scan])
    other = PlanNode(NodeType.INDEX_SCAN, total_cost=1.0, plan_rows=5.0, relation="customer", index_name="pk_customer")
    join = PlanNode(NodeType.HASH_JOIN, total_cost=20.0, plan_rows=80.0, children=[filtered, other])
    return PlanNode(NodeType.AGGREGATE, total_cost=25.0, plan_rows=1.0, children=[join])


def _sized_plans() -> list[PlanNode]:
    """Three plans with 5, 3 and 1 nodes."""
    scan = PlanNode(NodeType.TABLE_SCAN, total_cost=3.0, plan_rows=500.0, relation="lineitem")
    sort = PlanNode(
        NodeType.SORT, total_cost=9.0, plan_rows=50.0,
        children=[PlanNode(NodeType.FILTER, total_cost=6.0, plan_rows=50.0, children=[scan])],
    )
    lone = PlanNode(NodeType.INDEX_SCAN, total_cost=0.5, plan_rows=2.0, relation="nation", index_name="pk_nation")
    return [_plan(), sort, lone]


# ---------------------------------------------------------------- features
def _node_vector(featurizer: PlanFeaturizer, node: PlanNode) -> np.ndarray:
    """The featurizer's row for ``node``, checked against the scalar oracle."""
    vector = featurizer.features_for_nodes([node])[0]
    np.testing.assert_allclose(vector, scalar_node_features(featurizer, node), rtol=0.0, atol=1e-12)
    return vector


def test_feature_vector_width_and_onehot(catalog):
    featurizer = PlanFeaturizer(catalog)
    vector = _node_vector(featurizer, _plan())
    assert vector.shape == (featurizer.feature_size,)
    one_hot = vector[: len(list(NodeType))]
    assert one_hot.sum() == pytest.approx(1.0)


def test_index_and_role_flags(catalog):
    featurizer = PlanFeaturizer(catalog)
    plan = _plan()
    index_scan = plan.find_all(NodeType.INDEX_SCAN)[0]
    vector = _node_vector(featurizer, index_scan)
    # Last 7 features: log_rows, log_cost, uses_index, is_scan, is_join, is_agg, log_table.
    tail = vector[-7:]
    assert tail[2] == 1.0  # uses_index
    assert tail[3] == 1.0  # is_scan
    assert tail[4] == 0.0  # is_join
    join_vector = _node_vector(featurizer, plan.find_all(NodeType.HASH_JOIN)[0])
    assert join_vector[-7:][4] == 1.0


def test_features_bounded(catalog):
    featurizer = PlanFeaturizer(catalog)
    matrix = featurizer.plan_features(_plan())
    assert matrix.shape[0] == _plan().node_count()
    assert np.all(matrix >= 0.0)
    assert np.all(matrix <= 2.0)


def test_featurizer_without_catalog_falls_back_to_plan_rows():
    featurizer = PlanFeaturizer(None)
    vector = _node_vector(featurizer, _plan().find_all(NodeType.TABLE_SCAN)[0])
    assert vector[-1] > 0.0


def test_structural_embedding_is_normalised():
    embedding = structural_embedding(_plan(), dimensions=16)
    assert embedding.shape == (16,)
    assert np.linalg.norm(embedding) == pytest.approx(1.0)


# ----------------------------------------------------------------- tensors
def test_plan_tensor_indices_consistent(catalog):
    featurizer = PlanFeaturizer(catalog)
    tensor = PlanTensor.from_plan(_plan(), featurizer)
    assert tensor.node_count == _plan().node_count()
    assert tensor.features.shape == (tensor.node_count + 1, featurizer.feature_size)
    assert np.all(tensor.features[0] == 0.0)  # padding row
    # Aggregate (node 1) has the join (node 2) as left child and no right child.
    assert tensor.left[0] == 2
    assert tensor.right[0] == 0
    triples = tensor.triples()
    assert triples.shape == (tensor.node_count, 3 * featurizer.feature_size)


def test_plan_tensor_rejects_ternary_nodes(catalog):
    featurizer = PlanFeaturizer(catalog)
    bad = PlanNode(
        NodeType.HASH_JOIN,
        children=[PlanNode(NodeType.TABLE_SCAN), PlanNode(NodeType.TABLE_SCAN), PlanNode(NodeType.TABLE_SCAN)],
    )
    with pytest.raises(ValueError):
        PlanTensor.from_plan(bad, featurizer)


# ---------------------------------------------------------------- tree-CNN
@pytest.fixture()
def small_model(catalog):
    featurizer = PlanFeaturizer(catalog)
    config = TreeCNNConfig(feature_size=featurizer.feature_size, conv1_channels=8, conv2_channels=8, head_hidden=8, embedding_size=4)
    return featurizer, TreeCNNClassifier(config)


def test_forward_pair_produces_probabilities(small_model):
    featurizer, model = small_model
    tensor = PlanTensor.from_plan(_plan(), featurizer)
    probabilities = model.predict_proba(tensor, tensor)
    assert probabilities.shape == (2,)
    assert probabilities.sum() == pytest.approx(1.0)
    assert np.all(probabilities >= 0.0)


def test_embedding_shape_and_nonnegativity(small_model):
    featurizer, model = small_model
    tensor = PlanTensor.from_plan(_plan(), featurizer)
    embedding = model.embed_pair(tensor, tensor)
    assert embedding.shape == (4,)
    assert np.all(embedding >= 0.0)  # relu output


def test_loss_decreases_with_gradient_steps(small_model):
    featurizer, model = small_model
    tensor = PlanTensor.from_plan(_plan(), featurizer)
    sample = [(tensor, tensor, CLASS_AP)]
    first_loss = None
    for _step in range(30):
        losses, _, gradient = model.loss_and_gradients(sample)
        if first_loss is None:
            first_loss = losses[0]
        model.flat -= 0.05 * gradient
    final_losses, _, _ = model.loss_and_gradients(sample)
    assert final_losses[0] < first_loss


def test_numerical_gradient_check(small_model):
    """Backprop gradients match finite differences in every parameter array.

    The batch mixes three pair shapes, so the check covers the packed
    forest's index shifting, segment pooling and child scatter.
    """
    featurizer, model = small_model
    tensors = [PlanTensor.from_plan(plan, featurizer) for plan in _sized_plans()]
    batch = [
        (tensors[0], tensors[1], CLASS_TP),
        (tensors[2], tensors[0], CLASS_AP),
        (tensors[1], tensors[2], CLASS_AP),
    ]
    _, _, gradient = model.loss_and_gradients(batch)
    gradients = model.views(gradient)
    rng = np.random.default_rng(0)
    epsilon = 1e-6
    for name, parameter in model.parameters.items():
        for flat_index in rng.choice(parameter.size, size=min(3, parameter.size), replace=False):
            index = np.unravel_index(flat_index, parameter.shape)
            original = parameter[index]
            parameter[index] = original + epsilon
            loss_plus = model.loss_and_gradients(batch)[0].sum()
            parameter[index] = original - epsilon
            loss_minus = model.loss_and_gradients(batch)[0].sum()
            parameter[index] = original
            numeric = (loss_plus - loss_minus) / (2 * epsilon)
            assert gradients[name][index] == pytest.approx(numeric, rel=0.05, abs=1e-6), name


def test_invalid_label_rejected(small_model):
    featurizer, model = small_model
    tensor = PlanTensor.from_plan(_plan(), featurizer)
    with pytest.raises(ValueError):
        model.loss_and_gradients([(tensor, tensor, 5)])
    with pytest.raises(ValueError, match="got -1"):
        model.loss_and_gradients([(tensor, tensor, CLASS_TP), (tensor, tensor, -1)])


def test_state_dict_roundtrip(small_model):
    featurizer, model = small_model
    state = model.state_dict()
    clone = TreeCNNClassifier(model.config)
    clone.load_state_dict(state)
    tensor = PlanTensor.from_plan(_plan(), featurizer)
    assert np.allclose(clone.predict_proba(tensor, tensor), model.predict_proba(tensor, tensor))
    with pytest.raises(KeyError):
        clone.load_state_dict({"bogus": np.zeros(3)})


def test_model_size_well_under_one_megabyte(small_model):
    _featurizer, model = small_model
    assert model.model_size_bytes() < 1_000_000
    assert model.parameter_count() == sum(p.size for p in model.parameters.values())
