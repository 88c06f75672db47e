"""The packed training and evaluation paths against per-sample references.

Training runs one forward and one backward pass per mini-batch over all of
the batch's plans packed into a single forest.  These tests pin it to the
plan-by-plan loop in :mod:`router_reference`: same gradients, same trained
parameters, the same max-pool tie rule, and the same accuracy.
"""

import numpy as np

from repro.htap.engines.base import EngineKind
from repro.htap.plan.nodes import NodeType, PlanNode
from repro.router.features import PlanFeaturizer
from repro.router.router import SmartRouter
from repro.router.tensors import PlanTensor
from repro.router.treecnn import (
    CLASS_AP,
    CLASS_TP,
    TreeCNNClassifier,
    TreeCNNConfig,
    _segment_argmax,
)
from router_reference import reference_fit, reference_loss_and_gradients


def _samples(router: SmartRouter, labeled_queries) -> list:
    """Training triples built one plan at a time, independent of ``fit``."""
    samples = []
    for labeled in labeled_queries:
        pair = labeled.execution.plan_pair
        samples.append((
            PlanTensor.from_plan(pair.tp_plan, router.featurizer),
            PlanTensor.from_plan(pair.ap_plan, router.featurizer),
            CLASS_TP if labeled.faster_engine is EngineKind.TP else CLASS_AP,
        ))
    return samples


def _assert_same_parameters(actual: TreeCNNClassifier, expected: TreeCNNClassifier) -> None:
    for name, array in expected.parameters.items():
        np.testing.assert_allclose(actual.parameters[name], array, rtol=0.0, atol=1e-12, err_msg=name)


def _assert_views_of_flat(model: TreeCNNClassifier) -> None:
    for name, view in model.parameters.items():
        assert np.shares_memory(view, model.flat), name


def test_fit_matches_per_sample_reference(system, labeled_workload):
    router = SmartRouter(system.catalog, seed=13)
    router.fit(labeled_workload, epochs=8)
    reference = SmartRouter(system.catalog, seed=13)
    reference_fit(reference.model, _samples(reference, labeled_workload), epochs=8)
    _assert_same_parameters(router.model, reference.model)
    _assert_views_of_flat(router.model)


def test_batch_gradients_are_sum_of_single_pair_gradients(trained_router, labeled_workload):
    model = trained_router.model
    samples = _samples(trained_router, labeled_workload)
    batch, sizes = [], set()
    for sample in samples:
        size = sample[0].node_count + sample[1].node_count
        if size not in sizes:
            sizes.add(size)
            batch.append(sample)
        if len(batch) == 3:
            break
    assert len(sizes) == 3

    losses, probabilities, gradient = model.loss_and_gradients(batch)
    singles = [model.loss_and_gradients([sample]) for sample in batch]
    np.testing.assert_allclose(losses, [single[0][0] for single in singles], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(
        probabilities, np.stack([single[1][0] for single in singles]), rtol=0.0, atol=1e-12
    )
    np.testing.assert_allclose(
        gradient, sum(single[2] for single in singles), rtol=0.0, atol=1e-12
    )

    expected: dict[str, np.ndarray] = {}
    for index, (tp, ap, label) in enumerate(batch):
        loss, reference_probabilities = reference_loss_and_gradients(model, tp, ap, label, expected)
        assert abs(losses[index] - loss) < 1e-12
        np.testing.assert_allclose(probabilities[index], reference_probabilities, rtol=0.0, atol=1e-12)
    for name, array in model.views(gradient).items():
        np.testing.assert_allclose(array, expected[name], rtol=0.0, atol=1e-12, err_msg=name)


def _branch() -> PlanNode:
    scan = PlanNode(NodeType.TABLE_SCAN, total_cost=40.0, plan_rows=9000.0, relation="orders")
    return PlanNode(NodeType.FILTER, total_cost=55.0, plan_rows=700.0, children=[scan])


def test_max_pool_tie_routes_gradient_to_first_row(catalog):
    """Identical sibling subtrees tie in max pooling; the first row wins, as with np.argmax."""
    featurizer = PlanFeaturizer(catalog)
    model = TreeCNNClassifier(TreeCNNConfig(feature_size=featurizer.feature_size))
    twin = PlanNode(NodeType.HASH_JOIN, total_cost=5.0, plan_rows=10.0, children=[_branch(), _branch()])
    lead = PlanNode(NodeType.SORT, total_cost=3.0, plan_rows=8.0, children=[_branch()])
    tensors = [PlanTensor.from_plan(plan, featurizer) for plan in (lead, twin)]

    a2, starts, *_ = model._convolve(tensors)
    pooled = np.maximum.reduceat(a2, starts, axis=0)
    argmax = _segment_argmax(a2, starts, pooled)
    bounds = list(starts) + [a2.shape[0]]
    expected = np.stack([start + np.argmax(a2[start:end], axis=0) for start, end in zip(bounds, bounds[1:])])
    np.testing.assert_array_equal(argmax, expected)

    # Pre-order twin rows: join, filter, scan, filter, scan.
    twin_rows = a2[starts[1] :]
    np.testing.assert_array_equal(twin_rows[1], twin_rows[3])
    np.testing.assert_array_equal(twin_rows[2], twin_rows[4])
    tied = (pooled[1] > 0.0) & ((twin_rows == pooled[1]).sum(axis=0) >= 2)
    assert tied.any()
    first = np.argmax(twin_rows == pooled[1], axis=0)
    np.testing.assert_array_equal(argmax[1, tied], starts[1] + first[tied])
    assert np.all(first[tied] < 3)  # the left branch, never its twin

    # The gradient follows that row: the packed backward equals the
    # plan-by-plan reference, which pools with np.argmax.
    batch = [(tensors[0], tensors[1], CLASS_AP), (tensors[1], tensors[1], CLASS_TP)]
    _, _, gradient = model.loss_and_gradients(batch)
    expected_gradients: dict[str, np.ndarray] = {}
    for tp, ap, label in batch:
        reference_loss_and_gradients(model, tp, ap, label, expected_gradients)
    for name, array in model.views(gradient).items():
        np.testing.assert_allclose(array, expected_gradients[name], rtol=0.0, atol=1e-12, err_msg=name)


def test_save_load_then_fit_trains_through_flat_buffer(tmp_path, trained_router, labeled_workload, system):
    path = tmp_path / "router.pkl"
    trained_router.save(path)
    restored = SmartRouter.load(path, system.catalog)
    reference = SmartRouter.load(path, system.catalog)
    _assert_views_of_flat(restored.model)
    np.testing.assert_array_equal(restored.model.flat, trained_router.model.flat)

    restored.fit(labeled_workload, epochs=1)
    assert not np.array_equal(restored.model.flat, trained_router.model.flat)
    _assert_views_of_flat(restored.model)
    reference_fit(reference.model, _samples(reference, labeled_workload), epochs=1)
    _assert_same_parameters(restored.model, reference.model)


def test_pack_shifts_child_indices_and_keeps_lone_tensor(trained_router, labeled_workload):
    tensors = [
        PlanTensor.from_plan(plan, trained_router.featurizer)
        for labeled in labeled_workload[:6]
        for plan in (labeled.execution.plan_pair.tp_plan, labeled.execution.plan_pair.ap_plan)
    ]
    lone, lone_starts = PlanTensor.pack(tensors[:1])
    assert lone is tensors[0]
    np.testing.assert_array_equal(lone_starts, [0])

    forest, starts = PlanTensor.pack(tensors)
    assert forest.node_count == sum(tensor.node_count for tensor in tensors)
    assert np.all(forest.features[0] == 0.0)
    triples = forest.triples()
    for tensor, start in zip(tensors, starts):
        np.testing.assert_array_equal(triples[start : start + tensor.node_count], tensor.triples())


def test_accuracy_matches_per_pair_routing(trained_router, labeled_workload):
    routed = sum(
        trained_router.route(labeled.execution.plan_pair).engine is labeled.faster_engine
        for labeled in labeled_workload
    )
    assert trained_router.accuracy(labeled_workload) == routed / len(labeled_workload)

    samples = _samples(trained_router, labeled_workload)
    batched = trained_router.model.predict_probas(samples)
    single = np.stack([trained_router.model.predict_proba(tp, ap) for tp, ap, _label in samples])
    np.testing.assert_allclose(batched, single, rtol=0.0, atol=1e-12)
