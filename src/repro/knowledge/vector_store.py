"""Vector stores for the knowledge base.

Two interchangeable implementations:

* :class:`FlatVectorStore` — exact brute-force search.  With the paper's 20
  entries this is already well under 0.1 ms per query, which is all the paper
  needs.
* :class:`HNSWVectorStore` — a from-scratch Hierarchical Navigable Small
  World graph (Malkov & Yashunin), the index the paper cites as the reason
  retrieval will not become a bottleneck as the knowledge base grows.  Used
  by the KB-scaling ablation benchmark.

Both support cosine and Euclidean distances and deletion by id (needed for
the stale-entry expiry policies).

Both keep their vectors in one row buffer owned by :class:`VectorStore`: a
contiguous matrix that doubles when full, with each row's norm and squared
norm computed when the row is written.  Distance math runs through one
shared matrix kernel, :meth:`VectorStore.pairwise_distances`: cosine is a
single matvec against the cached row norms, Euclidean uses the
``‖a‖² + ‖b‖² − 2a·b`` identity.  The flat store scores its first ``len``
rows in one call; the HNSW store scores each candidate frontier with one
call instead of per-neighbour python distance calls — that is what makes
its promised scaling hold in practice.  A search never writes store state.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.obs.tracing import get_tracer


@dataclass(frozen=True)
class SearchResult:
    """One nearest-neighbour hit."""

    key: str
    distance: float


def _as_matrix(vector: np.ndarray) -> np.ndarray:
    array = np.asarray(vector, dtype=np.float64)
    if array.ndim != 1:
        raise ValueError("vectors must be 1-D")
    return array


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cosine similarity, with zero vectors treated as maximally distant."""
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 1.0
    return 1.0 - float(np.dot(a, b) / (norm_a * norm_b))


def euclidean_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b))


_METRICS = ("cosine", "euclidean")


class VectorStore:
    """Interface shared by the flat and HNSW stores, plus their row buffer."""

    def __init__(self, metric: str = "cosine"):
        if metric not in _METRICS:
            raise ValueError(f"unknown metric {metric!r}; choose from {sorted(_METRICS)}")
        self.metric = metric
        # Row buffer, allocated on the first write: one vector per row, grown
        # by doubling, with norms cached when the row is written.
        self._matrix: np.ndarray | None = None
        self._norms: np.ndarray | None = None
        self._sq_norms: np.ndarray | None = None

    # -- implemented by subclasses ------------------------------------------
    def add(self, key: str, vector: np.ndarray) -> None:
        raise NotImplementedError

    def remove(self, key: str) -> None:
        raise NotImplementedError

    def search(self, vector: np.ndarray, k: int) -> list[SearchResult]:
        raise NotImplementedError

    def keys(self) -> list[str]:
        raise NotImplementedError

    def __contains__(self, key: str) -> bool:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    # -- row buffer -----------------------------------------------------------
    def _write_row(self, row: int, vector: np.ndarray) -> None:
        """Store ``vector`` at ``row``, growing the buffer if it is full.

        Raises ``ValueError`` before touching any state when the vector's
        dimension differs from the vectors already stored.
        """
        if self._matrix is None:
            capacity = 64
            self._matrix = np.zeros((capacity, vector.shape[0]), dtype=np.float64)
            self._norms = np.zeros(capacity, dtype=np.float64)
            self._sq_norms = np.zeros(capacity, dtype=np.float64)
        elif vector.shape[0] != self._matrix.shape[1]:
            raise ValueError(
                f"vector has {vector.shape[0]} dimensions; store holds "
                f"{self._matrix.shape[1]}-dimensional vectors"
            )
        if row >= self._matrix.shape[0]:
            capacity = self._matrix.shape[0] * 2
            self._matrix = np.resize(self._matrix, (capacity, self._matrix.shape[1]))
            self._norms = np.resize(self._norms, capacity)
            self._sq_norms = np.resize(self._sq_norms, capacity)
        self._matrix[row] = vector
        sq = float(vector @ vector)
        self._sq_norms[row] = sq
        self._norms[row] = math.sqrt(sq)

    def _row_distances(self, query: np.ndarray, rows: slice | np.ndarray) -> np.ndarray:
        """Distances from ``query`` to the selected buffer rows, one kernel call."""
        return self.pairwise_distances(
            query,
            self._matrix[rows],
            row_norms=self._norms[rows],
            row_sq_norms=self._sq_norms[rows],
        )

    # -- shared matrix distance kernel ----------------------------------------
    def pairwise_distances(
        self,
        query: np.ndarray,
        matrix: np.ndarray,
        *,
        row_norms: np.ndarray | None = None,
        row_sq_norms: np.ndarray | None = None,
    ) -> np.ndarray:
        """Distances from ``query`` to every row of ``matrix``, one kernel call.

        Cosine runs as one matvec over precomputed row norms (zero vectors
        stay maximally distant, matching :func:`cosine_distance`); Euclidean
        uses the ``‖a‖² + ‖b‖² − 2a·b`` identity so the only O(n·d) work is
        the same single matvec.  Pass ``row_norms`` / ``row_sq_norms`` when
        the caller caches them; otherwise they are derived on the fly.
        """
        products = matrix @ query
        if self.metric == "cosine":
            if row_norms is None:
                row_norms = np.linalg.norm(matrix, axis=1)
            denominator = row_norms * (float(np.linalg.norm(query)) or 1.0)
            # Zero-norm rows produce a 0/denominator similarity of 0, i.e.
            # a distance of 1.0 — but guard against 0 denominators anyway.
            safe = np.where(denominator == 0.0, 1.0, denominator)
            return 1.0 - products / safe
        if row_sq_norms is None:
            row_sq_norms = np.einsum("ij,ij->i", matrix, matrix)
        squared = row_sq_norms + float(query @ query) - 2.0 * products
        return np.sqrt(np.maximum(squared, 0.0))

    # -- shared helpers -------------------------------------------------------
    def add_many(self, items: Iterable[tuple[str, np.ndarray]]) -> None:
        for key, vector in items:
            self.add(key, vector)


class FlatVectorStore(VectorStore):
    """Exact nearest-neighbour search by scanning all vectors.

    Row ``i`` of the buffer holds ``keys()[i]``, so ``add`` writes one row
    and each query is one kernel call over the first ``len`` rows.
    ``remove`` is O(1): the last row (and its norms) moves into the vacated
    slot, which is safe because result order comes from distances, not
    insertion positions.
    """

    def __init__(self, metric: str = "cosine"):
        super().__init__(metric)
        self._keys: list[str] = []
        self._index_of: dict[str, int] = {}

    def add(self, key: str, vector: np.ndarray) -> None:
        if key in self._index_of:
            raise KeyError(f"duplicate key {key!r}")
        self._write_row(len(self._keys), _as_matrix(vector))
        self._index_of[key] = len(self._keys)
        self._keys.append(key)

    def remove(self, key: str) -> None:
        if key not in self._index_of:
            raise KeyError(f"unknown key {key!r}")
        index = self._index_of.pop(key)
        last = len(self._keys) - 1
        if index != last:
            # Swap-with-last: O(1) instead of shifting and re-numbering
            # every row after the removed position.
            self._keys[index] = self._keys[last]
            self._index_of[self._keys[index]] = index
            self._matrix[index] = self._matrix[last]
            self._norms[index] = self._norms[last]
            self._sq_norms[index] = self._sq_norms[last]
        self._keys.pop()

    def search(self, vector: np.ndarray, k: int) -> list[SearchResult]:
        if k <= 0 or not self._keys:
            return []
        with get_tracer().span(
            "kb.search", store="flat", candidates_scanned=len(self._keys)
        ) as span:
            distances = self._row_distances(_as_matrix(vector), slice(0, len(self._keys)))
            order = np.argsort(distances, kind="stable")[:k]
            results = [
                SearchResult(key=self._keys[int(i)], distance=float(distances[int(i)]))
                for i in order
            ]
            span.set_attributes(
                hits=len(results), kernel_batches=1, vectors_scored=len(self._keys)
            )
            return results

    def keys(self) -> list[str]:
        return list(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._index_of

    def __len__(self) -> int:
        return len(self._keys)


class _HNSWNode:
    __slots__ = ("key", "neighbors", "deleted")

    def __init__(self, key: str, level: int):
        self.key = key
        # neighbors[layer] -> list of node ids
        self.neighbors: list[list[int]] = [[] for _ in range(level + 1)]
        self.deleted = False

    @property
    def max_level(self) -> int:
        return len(self.neighbors) - 1


class _KernelCounters:
    """Per-search accounting surfaced as ``kb.search`` span attributes."""

    __slots__ = ("kernel_batches", "vectors_scored")

    def __init__(self) -> None:
        self.kernel_batches = 0
        self.vectors_scored = 0


class HNSWVectorStore(VectorStore):
    """Hierarchical Navigable Small World approximate nearest-neighbour index.

    Parameters follow the original paper's naming: ``M`` is the maximum
    number of neighbours per layer, ``ef_construction`` / ``ef_search``
    control the candidate-list sizes during insertion and querying.
    Deletions are handled by tombstoning (deleted nodes are skipped in
    results but still used for graph navigation), which is how most
    production HNSW implementations behave.

    A node's id is its row in the shared row buffer, so each candidate
    frontier — the unvisited neighbours of the node being expanded — is
    scored with a single :meth:`pairwise_distances` call
    (:meth:`_frontier_distances`) instead of one python-level distance
    call per neighbour.
    """

    def __init__(
        self,
        metric: str = "cosine",
        *,
        M: int = 12,
        ef_construction: int = 64,
        ef_search: int = 32,
        seed: int = 42,
    ):
        super().__init__(metric)
        if M < 2:
            raise ValueError("M must be at least 2")
        self.M = M
        self.max_M0 = 2 * M
        self.ef_construction = max(ef_construction, M)
        self.ef_search = max(ef_search, 1)
        self._level_multiplier = 1.0 / math.log(M)
        self._rng = random.Random(seed)
        self._nodes: list[_HNSWNode] = []
        self._id_of: dict[str, int] = {}
        self._entry_point: int | None = None
        self._live_count = 0

    # ------------------------------------------------------------------ basic
    def keys(self) -> list[str]:
        return [node.key for node in self._nodes if not node.deleted]

    def __contains__(self, key: str) -> bool:
        node_id = self._id_of.get(key)
        return node_id is not None and not self._nodes[node_id].deleted

    def __len__(self) -> int:
        return self._live_count

    # ----------------------------------------------------------------- matrix
    def _frontier_distances(
        self, query: np.ndarray, ids: list[int], counters: _KernelCounters | None = None
    ) -> np.ndarray:
        """Distances from ``query`` to the given node ids in one kernel call."""
        if counters is not None:
            counters.kernel_batches += 1
            counters.vectors_scored += len(ids)
        return self._row_distances(query, np.asarray(ids, dtype=np.int64))

    # -------------------------------------------------------------------- add
    def add(self, key: str, vector: np.ndarray) -> None:
        if key in self._id_of:
            raise KeyError(f"duplicate key {key!r}")
        vector = _as_matrix(vector)
        node_id = len(self._nodes)
        self._write_row(node_id, vector)
        level = self._random_level()
        node = _HNSWNode(key, level)
        self._nodes.append(node)
        self._id_of[key] = node_id
        self._live_count += 1

        if self._entry_point is None:
            self._entry_point = node_id
            return

        entry = self._entry_point
        entry_level = self._nodes[entry].max_level
        current = entry
        # Greedy descent through the upper layers.
        for layer in range(entry_level, level, -1):
            current = self._greedy_search(vector, current, layer)
        # Insert into each layer from min(level, entry_level) down to 0.
        for layer in range(min(level, entry_level), -1, -1):
            candidates, _scanned = self._search_layer(vector, [current], layer, self.ef_construction)
            neighbors = self._select_neighbors(vector, candidates, self._max_neighbors(layer))
            node.neighbors[layer] = [neighbor_id for _dist, neighbor_id in neighbors]
            for _dist, neighbor_id in neighbors:
                neighbor = self._nodes[neighbor_id]
                neighbor.neighbors[layer].append(node_id)
                limit = self._max_neighbors(layer)
                if len(neighbor.neighbors[layer]) > limit:
                    neighbor.neighbors[layer] = self._shrink_neighbors(neighbor_id, layer, limit)
            if candidates:
                current = min(candidates)[1]
        if level > entry_level:
            self._entry_point = node_id

    def _random_level(self) -> int:
        return int(-math.log(max(1e-12, self._rng.random())) * self._level_multiplier)

    def _max_neighbors(self, layer: int) -> int:
        return self.max_M0 if layer == 0 else self.M

    def _select_neighbors(
        self, vector: np.ndarray, candidates: list[tuple[float, int]], limit: int
    ) -> list[tuple[float, int]]:
        """Pick the ``limit`` closest candidates (simple distance heuristic)."""
        unique: dict[int, float] = {}
        for distance, node_id in candidates:
            if node_id not in unique or distance < unique[node_id]:
                unique[node_id] = distance
        ranked = sorted((distance, node_id) for node_id, distance in unique.items())
        return ranked[:limit]

    def _shrink_neighbors(self, node_id: int, layer: int, limit: int) -> list[int]:
        neighbor_ids = self._nodes[node_id].neighbors[layer]
        distances = self._frontier_distances(self._matrix[node_id], neighbor_ids)
        scored = sorted(zip(distances.tolist(), neighbor_ids))
        return [other for _dist, other in scored[:limit]]

    # ----------------------------------------------------------------- search
    def search(self, vector: np.ndarray, k: int) -> list[SearchResult]:
        if k <= 0 or self._entry_point is None or self._live_count == 0:
            return []
        with get_tracer().span("kb.search", store="hnsw") as span:
            query = _as_matrix(vector)
            counters = _KernelCounters()
            # Tombstoned nodes still occupy slots in the ef candidate list, so a
            # store with D deletions would otherwise return fewer than k live
            # hits.  Inflate ef by the tombstone count, and fall back to an
            # exhaustive ef if the inflated pass still comes up short.
            tombstones = len(self._nodes) - self._live_count
            ef = max(self.ef_search, k) + tombstones
            results, scanned = self._search_with_ef(query, k, ef, counters)
            if len(results) < min(k, self._live_count) and ef < len(self._nodes):
                results, fallback_scanned = self._search_with_ef(
                    query, k, len(self._nodes), counters
                )
                scanned += fallback_scanned
            span.set_attributes(
                ef=ef,
                tombstones=tombstones,
                candidates_scanned=scanned,
                hits=len(results),
                kernel_batches=counters.kernel_batches,
                vectors_scored=counters.vectors_scored,
            )
            return results

    def _search_with_ef(
        self,
        query: np.ndarray,
        k: int,
        ef: int,
        counters: _KernelCounters | None = None,
    ) -> tuple[list[SearchResult], int]:
        """One full descent + layer-0 expansion; returns (hits, nodes visited)."""
        current = self._entry_point
        for layer in range(self._nodes[current].max_level, 0, -1):
            current = self._greedy_search(query, current, layer, counters)
        candidates, scanned = self._search_layer(query, [current], 0, ef, counters)
        candidates.sort()
        results: list[SearchResult] = []
        for distance, node_id in candidates:
            node = self._nodes[node_id]
            if node.deleted:
                continue
            results.append(SearchResult(key=node.key, distance=float(distance)))
            if len(results) == k:
                break
        return results, scanned

    def _greedy_search(
        self,
        query: np.ndarray,
        start: int,
        layer: int,
        counters: _KernelCounters | None = None,
    ) -> int:
        current = start
        current_distance = float(self._frontier_distances(query, [current])[0])
        improved = True
        while improved:
            improved = False
            neighbor_ids = self._nodes[current].neighbors[layer]
            if not neighbor_ids:
                break
            distances = self._frontier_distances(query, neighbor_ids, counters)
            best = int(np.argmin(distances))
            if distances[best] < current_distance:
                current = neighbor_ids[best]
                current_distance = float(distances[best])
                improved = True
        return current

    def _search_layer(
        self,
        query: np.ndarray,
        entry_points: list[int],
        layer: int,
        ef: int,
        counters: _KernelCounters | None = None,
    ) -> tuple[list[tuple[float, int]], int]:
        """Beam search on one layer; returns (candidates, distinct nodes visited).

        Each frontier expansion — the unvisited neighbours of the popped
        candidate — is scored in one kernel call.
        """
        visited = set(entry_points)
        candidates: list[tuple[float, int]] = []
        best: list[tuple[float, int]] = []  # max-heap via negated distance
        entry_distances = self._frontier_distances(query, entry_points, counters)
        for point, distance in zip(entry_points, entry_distances.tolist()):
            heapq.heappush(candidates, (distance, point))
            heapq.heappush(best, (-distance, point))
        while candidates:
            distance, point = heapq.heappop(candidates)
            if best and distance > -best[0][0]:
                break
            frontier = [
                neighbor_id
                for neighbor_id in self._nodes[point].neighbors[layer]
                if neighbor_id not in visited
            ]
            if not frontier:
                continue
            visited.update(frontier)
            frontier_distances = self._frontier_distances(query, frontier, counters)
            for neighbor_id, neighbor_distance in zip(frontier, frontier_distances.tolist()):
                if len(best) < ef or neighbor_distance < -best[0][0]:
                    heapq.heappush(candidates, (neighbor_distance, neighbor_id))
                    heapq.heappush(best, (-neighbor_distance, neighbor_id))
                    if len(best) > ef:
                        heapq.heappop(best)
        return [(-negated, node_id) for negated, node_id in best], len(visited)

    # ----------------------------------------------------------------- remove
    def remove(self, key: str) -> None:
        if key not in self._id_of:
            raise KeyError(f"unknown key {key!r}")
        node = self._nodes[self._id_of[key]]
        if node.deleted:
            raise KeyError(f"key {key!r} already removed")
        node.deleted = True
        self._live_count -= 1
