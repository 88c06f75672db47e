"""Equivalence tests for the batched distance kernels.

``pairwise_distances`` is checked row-by-row against the scalar distance
functions, the flat store's swap-with-last ``remove`` is checked for
key→row consistency under interleaved mutation, and the HNSW store's
batched frontier scoring is checked for exact result parity against
:class:`ScalarHNSWVectorStore`, a test-only subclass that scores one node
at a time.  The scalar store searches the *same* graph (it shares the
batched store's state), so any divergence is the kernel's fault and not an
artifact of two independently built graphs.
"""

import numpy as np
import pytest

from repro.knowledge.vector_store import (
    FlatVectorStore,
    HNSWVectorStore,
    cosine_distance,
    euclidean_distance,
)


def _random_vectors(count: int, dimensions: int = 16, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=dimensions) for _ in range(count)]


class ScalarHNSWVectorStore(HNSWVectorStore):
    """Scalar reference: one python-level distance call per node id."""

    def _frontier_distances(self, query, ids, counters=None):
        distance = cosine_distance if self.metric == "cosine" else euclidean_distance
        return np.array([distance(query, self._matrix[node_id]) for node_id in ids])

    @classmethod
    def sharing_graph_of(cls, store: HNSWVectorStore) -> "ScalarHNSWVectorStore":
        """A scalar store over ``store``'s graph and row buffer (searches only)."""
        scalar = cls.__new__(cls)
        scalar.__dict__.update(vars(store))
        return scalar


# -------------------------------------------------------------- kernel math
@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_pairwise_distances_match_scalar_loop(metric):
    store = FlatVectorStore(metric=metric)
    scalar = cosine_distance if metric == "cosine" else euclidean_distance
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(64, 16))
    query = rng.normal(size=16)
    batched = store.pairwise_distances(query, matrix)
    expected = np.array([scalar(query, row) for row in matrix])
    np.testing.assert_allclose(batched, expected, atol=1e-9)


def test_pairwise_distances_accepts_cached_norms():
    store = FlatVectorStore(metric="euclidean")
    rng = np.random.default_rng(4)
    matrix = rng.normal(size=(32, 8))
    query = rng.normal(size=8)
    plain = store.pairwise_distances(query, matrix)
    cached = store.pairwise_distances(
        query,
        matrix,
        row_norms=np.linalg.norm(matrix, axis=1),
        row_sq_norms=np.einsum("ij,ij->i", matrix, matrix),
    )
    np.testing.assert_allclose(plain, cached, atol=1e-12)


def test_pairwise_cosine_zero_vectors_maximally_distant():
    store = FlatVectorStore(metric="cosine")
    matrix = np.vstack([np.zeros(4), np.ones(4)])
    assert store.pairwise_distances(np.ones(4), matrix)[0] == pytest.approx(1.0)
    # A zero query is maximally distant from everything, like cosine_distance.
    np.testing.assert_allclose(
        store.pairwise_distances(np.zeros(4), matrix), [1.0, 1.0], atol=1e-12
    )


def test_pairwise_euclidean_identity_never_goes_negative():
    """Catastrophic cancellation in ‖a‖²+‖b‖²−2a·b must clamp to 0, not NaN."""
    store = FlatVectorStore(metric="euclidean")
    vector = np.full(16, 1e8)
    distances = store.pairwise_distances(vector, np.vstack([vector, vector]))
    assert np.all(np.isfinite(distances))
    np.testing.assert_allclose(distances, [0.0, 0.0], atol=1e-3)


# ------------------------------------------------- flat store cache + remove
def test_flat_search_matches_bruteforce_after_interleaved_mutation():
    store = FlatVectorStore()
    # 70 entries: more than the buffer's first 64 rows, so it grows once.
    vectors = {f"v{i}": v for i, v in enumerate(_random_vectors(70, seed=11))}
    alive = dict(vectors)
    for key, vector in vectors.items():
        store.add(key, vector)
    # Interleave removes and adds so the swap-with-last row move and the
    # row writes both run repeatedly against a live buffer.
    rng = np.random.default_rng(12)
    for round_index in range(12):
        victim = sorted(alive)[int(rng.integers(len(alive)))]
        store.remove(victim)
        del alive[victim]
        if round_index % 3 == 0:
            key = f"new{round_index}"
            vector = rng.normal(size=16)
            store.add(key, vector)
            alive[key] = vector
        # key→row map stays consistent with the key list after every swap,
        # and each live row still holds its key's vector.
        assert store._index_of == {key: i for i, key in enumerate(store._keys)}
        for row, key in enumerate(store._keys):
            np.testing.assert_array_equal(store._matrix[row], alive[key])
        query = rng.normal(size=16)
        results = store.search(query, k=5)
        expected = sorted(alive, key=lambda k: cosine_distance(query, alive[k]))[:5]
        assert [result.key for result in results] == expected
    assert len(store) == len(alive)
    assert set(store.keys()) == set(alive)


def test_flat_remove_last_key_no_swap():
    store = FlatVectorStore()
    for index, vector in enumerate(_random_vectors(3, seed=1)):
        store.add(f"v{index}", vector)
    store.remove("v2")  # last slot: pop without swapping
    assert store.keys() == ["v0", "v1"]
    assert store._index_of == {"v0": 0, "v1": 1}


# --------------------------------------------------- HNSW batched == scalar
def test_hnsw_batched_and_scalar_paths_identical_with_tombstones():
    """Same 1k-entry graph, both kernel paths, identical results.

    The store is built once (graph construction is part of the store's
    state), then searched by itself and by a scalar store sharing its graph,
    so the comparison isolates the search kernels themselves.  Tombstones
    are included because deletion changes the ef inflation and the layer-0
    candidate filtering.
    """
    store = HNSWVectorStore(seed=17)
    vectors = _random_vectors(1000, seed=19)
    for index, vector in enumerate(vectors):
        store.add(f"v{index}", vector)
    for index in range(0, 1000, 7):
        store.remove(f"v{index}")
    scalar_store = ScalarHNSWVectorStore.sharing_graph_of(store)
    queries = _random_vectors(20, seed=23)
    for query in queries:
        batched = store.search(query, k=5)
        scalar = scalar_store.search(query, k=5)
        assert [r.key for r in batched] == [r.key for r in scalar]
        np.testing.assert_allclose(
            [r.distance for r in batched], [r.distance for r in scalar], atol=1e-9
        )


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_hnsw_batched_and_scalar_paths_identical_small(metric):
    store = HNSWVectorStore(metric=metric, seed=5)
    for index, vector in enumerate(_random_vectors(120, seed=6)):
        store.add(f"v{index}", vector)
    scalar_store = ScalarHNSWVectorStore.sharing_graph_of(store)
    for query in _random_vectors(10, seed=7):
        batched = store.search(query, k=4)
        scalar = scalar_store.search(query, k=4)
        assert [r.key for r in batched] == [r.key for r in scalar]
        np.testing.assert_allclose(
            [r.distance for r in batched], [r.distance for r in scalar], atol=1e-9
        )


def test_hnsw_scalar_construction_builds_searchable_graph():
    """The scalar path must stay usable end-to-end, not just for search."""
    store = ScalarHNSWVectorStore(seed=2)
    vectors = _random_vectors(80, seed=3)
    for index, vector in enumerate(vectors):
        store.add(f"v{index}", vector)
    results = store.search(vectors[10] + 1e-8, k=3)
    assert results[0].key == "v10"


@pytest.mark.parametrize("store_class", [FlatVectorStore, HNSWVectorStore], ids=["flat", "hnsw"])
def test_dimension_mismatch_rejected(store_class):
    store = store_class()
    store.add("a", np.ones(8))
    with pytest.raises(ValueError):
        store.add("b", np.ones(4))
    assert "b" not in store and len(store) == 1
    assert [result.key for result in store.search(np.ones(8), k=2)] == ["a"]


def test_search_spans_report_kernel_accounting():
    from repro.obs.store import TraceStore
    from repro.obs.tracing import get_tracer, traced

    flat = FlatVectorStore()
    hnsw = HNSWVectorStore(seed=9)
    for index, vector in enumerate(_random_vectors(50, seed=8)):
        flat.add(f"v{index}", vector)
        hnsw.add(f"v{index}", vector)
    store = TraceStore()
    with traced(store=store):
        tracer = get_tracer()
        with tracer.span("test.root", root=True):
            flat.search(np.ones(16), k=3)
            hnsw.search(np.ones(16), k=3)
    spans = [span for trace in store.traces() for span in trace.find("kb.search")]
    by_store = {span.attributes["store"]: span.attributes for span in spans}
    assert by_store["flat"]["kernel_batches"] == 1
    assert by_store["flat"]["vectors_scored"] == 50
    assert by_store["hnsw"]["kernel_batches"] >= 1
    assert by_store["hnsw"]["vectors_scored"] >= by_store["hnsw"]["kernel_batches"]
