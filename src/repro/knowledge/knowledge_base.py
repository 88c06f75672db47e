"""The RAG knowledge base (paper Section IV).

A key-value store whose keys are plan-pair embeddings (from the smart
router) and whose values are the full knowledge entries (plan details,
execution result, expert explanation).  The retriever searches it for the
top-K most similar plan pairs; experts can add new entries and correct
existing ones at any time (the paper's feedback loop).

Each namespace searches a flat vector store by default; ``store_factory``
swaps in another (tests use it to run the KB over the HNSW index too).

**Tenants.**  Every operation takes a ``tenant`` (default
:data:`DEFAULT_TENANT`).  A tenant's entries are invisible to every other
tenant.  The default namespace doubles as the shared corpus: tenant
retrieval searches it too, so tenants are grounded without seeding each
namespace, and a tenant entry hides a shared entry with the same id.
Each tenant namespace owns its vector store and its read–write lock, so a
write to one tenant never blocks retrieval for another.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Container, Iterator

import numpy as np

from repro.knowledge.entry import KnowledgeEntry
from repro.knowledge.locking import ReadWriteLock
from repro.knowledge.vector_store import FlatVectorStore, VectorStore
from repro.obs.tracing import get_tracer

#: Tenant every un-namespaced operation belongs to.  Its namespace is the
#: shared corpus, and folding it into a cache key is a no-op, so
#: single-tenant deployments keep their pre-tenancy keys.
DEFAULT_TENANT = "default"

#: Signature of a knowledge-base write listener: ``(event, entry_id, tenant)``
#: where ``event`` is one of ``"add"``, ``"remove"``, ``"correct"``.
WriteListener = Callable[[str, str, str], None]


@dataclass
class RetrievedKnowledge:
    """One retrieval hit: the entry plus its distance and rank."""

    entry: KnowledgeEntry
    distance: float
    rank: int

    @property
    def similarity(self) -> float:
        """Convenience: cosine similarity when the store uses cosine distance."""
        return 1.0 - self.distance


@dataclass
class RetrievalResult:
    """Top-K retrieval outcome with the time it took."""

    hits: list[RetrievedKnowledge]
    #: In-lock vector-search time, summed over the namespaces searched.
    search_seconds: float

    @property
    def search_ms(self) -> float:
        return self.search_seconds * 1000.0

    def entries(self) -> list[KnowledgeEntry]:
        return [hit.entry for hit in self.hits]


class _Namespace:
    """One tenant's slice: its entries, its index, its lock."""

    __slots__ = ("entries", "store", "lock")

    def __init__(self, store: VectorStore):
        self.entries: dict[str, KnowledgeEntry] = {}
        self.store = store
        self.lock = ReadWriteLock()

    def search(
        self, query: np.ndarray, k: int, hidden: Container[str]
    ) -> tuple[list[tuple[float, KnowledgeEntry]], float]:
        """Top-K ``(distance, entry)`` pairs whose id is not in ``hidden``,
        plus the in-lock search time.

        A hidden id frees a slot, so the store is asked again for more
        until K visible hits come back or the store runs out.
        """
        with self.lock.read_locked():
            start = time.perf_counter()
            want = k
            while True:
                raw = self.store.search(query, want)
                pairs = [
                    (result.distance, self.entries[result.key])
                    for result in raw
                    if result.key in self.entries and result.key not in hidden
                ]
                if len(pairs) >= k or len(raw) < want:
                    return pairs, time.perf_counter() - start
                want += k - len(pairs)


_NOTHING_HIDDEN: Container[str] = frozenset()


def _unknown(entry_id: str, tenant: str) -> KeyError:
    return KeyError(f"unknown entry id {entry_id!r} for tenant {tenant!r}")


def _merge_key(pair: tuple[float, KnowledgeEntry]) -> tuple[float, str]:
    return pair[0], pair[1].entry_id


class KnowledgeBase:
    """Embedding-keyed store of historical queries and expert explanations.

    ``store_factory`` builds the vector store of each tenant namespace;
    pass ``lambda: HNSWVectorStore(...)`` for the approximate index.

    Thread safety: writes (add / remove / correct) hold the write lock of
    the tenant's namespace; retrieval holds each searched namespace's read
    lock only while searching it.  Write listeners — used by the serving
    layer to invalidate its caches — fire *after* the lock is released, so
    a listener may safely read the knowledge base.
    """

    def __init__(self, store_factory: Callable[[], VectorStore] = FlatVectorStore):
        self._store_factory = store_factory
        #: tenant -> namespace; replaced copy-on-write so readers never see
        #: a dict mid-update.
        self._namespaces: dict[str, _Namespace] = {}
        self._namespaces_lock = threading.Lock()
        self._insert_counter = itertools.count(1)
        self._write_listeners: list[WriteListener] = []
        self._tenant_namespace(DEFAULT_TENANT)

    # -------------------------------------------------------------- listeners
    def add_write_listener(self, listener: WriteListener) -> None:
        """Register a callback fired after every successful write."""
        self._write_listeners.append(listener)

    def remove_write_listener(self, listener: WriteListener) -> None:
        self._write_listeners.remove(listener)

    def _notify(self, event: str, entry_id: str, tenant: str) -> None:
        for listener in list(self._write_listeners):
            listener(event, entry_id, tenant)

    # ------------------------------------------------------------- namespaces
    def _tenant_namespace(self, tenant: str) -> _Namespace:
        """The tenant's namespace, created on its first write."""
        namespace = self._namespaces.get(tenant)
        if namespace is None:
            with self._namespaces_lock:
                namespace = self._namespaces.get(tenant)
                if namespace is None:
                    namespace = _Namespace(self._store_factory())
                    self._namespaces = {**self._namespaces, tenant: namespace}
        return namespace

    # ------------------------------------------------------------------ write
    def _insert(self, entry: KnowledgeEntry, tenant: str) -> None:
        namespace = self._tenant_namespace(tenant)
        with namespace.lock.write_locked():
            if entry.entry_id in namespace.entries:
                raise KeyError(f"duplicate entry id {entry.entry_id!r}")
            # The store validates the embedding, so a rejected add leaves
            # no entry behind.
            namespace.store.add(entry.entry_id, entry.embedding)
            entry.inserted_at = next(self._insert_counter)
            namespace.entries[entry.entry_id] = entry

    def add(self, entry: KnowledgeEntry, *, tenant: str = DEFAULT_TENANT) -> None:
        """Insert a new entry (raises on duplicate ids)."""
        self._insert(entry, tenant)
        self._notify("add", entry.entry_id, tenant)

    def add_many(self, entries: list[KnowledgeEntry], *, tenant: str = DEFAULT_TENANT) -> None:
        """Insert entries one lock hold each, so a bulk import never stalls
        retrieval for longer than one insert.  Each insert is announced as
        it lands, so a duplicate id part-way through leaves no added entry
        unannounced."""
        for entry in entries:
            self._insert(entry, tenant)
            self._notify("add", entry.entry_id, tenant)

    @contextmanager
    def _write_existing(self, entry_id: str, tenant: str) -> Iterator[_Namespace]:
        """Write-lock the namespace holding ``entry_id``, or raise KeyError."""
        namespace = self._namespaces.get(tenant)
        if namespace is None:
            raise _unknown(entry_id, tenant)
        with namespace.lock.write_locked():
            if entry_id not in namespace.entries:
                raise _unknown(entry_id, tenant)
            yield namespace

    def remove(self, entry_id: str, *, tenant: str = DEFAULT_TENANT) -> KnowledgeEntry:
        """Remove an entry (used by the stale-expiry curation policy)."""
        with self._write_existing(entry_id, tenant) as namespace:
            namespace.store.remove(entry_id)
            removed = namespace.entries.pop(entry_id)
        self._notify("remove", entry_id, tenant)
        return removed

    def correct(
        self,
        entry_id: str,
        corrected_explanation: str,
        factors: tuple[str, ...] | None = None,
        *,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        """Apply an expert correction to an existing entry (paper's feedback loop)."""
        with self._write_existing(entry_id, tenant) as namespace:
            namespace.entries[entry_id].apply_correction(corrected_explanation, factors)
        self._notify("correct", entry_id, tenant)

    # ------------------------------------------------------------------- read
    def get(self, entry_id: str, *, tenant: str = DEFAULT_TENANT) -> KnowledgeEntry:
        namespace = self._namespaces.get(tenant)
        entry = None if namespace is None else namespace.entries.get(entry_id)
        if entry is None:
            raise _unknown(entry_id, tenant)
        return entry

    def contains(self, entry_id: str, *, tenant: str = DEFAULT_TENANT) -> bool:
        namespace = self._namespaces.get(tenant)
        return namespace is not None and entry_id in namespace.entries

    def __contains__(self, entry_id: str) -> bool:
        return self.contains(entry_id)

    def count(self, *, tenant: str = DEFAULT_TENANT) -> int:
        namespace = self._namespaces.get(tenant)
        return 0 if namespace is None else len(namespace.entries)

    def __len__(self) -> int:
        """Entries across every tenant."""
        return sum(len(namespace.entries) for namespace in self._namespaces.values())

    def entries(self, *, tenant: str = DEFAULT_TENANT) -> list[KnowledgeEntry]:
        namespace = self._namespaces.get(tenant)
        if namespace is None:
            return []
        with namespace.lock.read_locked():
            return list(namespace.entries.values())

    # ---------------------------------------------------------------- retrieve
    def retrieve(
        self, embedding: np.ndarray, k: int = 2, *, tenant: str = DEFAULT_TENANT
    ) -> RetrievalResult:
        """Top-K most similar historical plan pairs for ``embedding``.

        ``k=2`` is the paper's default retrieval depth.  A non-default
        tenant sees its own entries plus the shared corpus, minus the
        shared entries its own ids hide.
        """
        query = np.asarray(embedding, dtype=np.float64)
        with get_tracer().span("kb.retrieve", k=k, tenant=tenant) as span:
            own = self._namespaces.get(tenant)
            targets: list[tuple[_Namespace, Container[str]]] = []
            if own is not None:
                targets.append((own, _NOTHING_HIDDEN))
            if tenant != DEFAULT_TENANT:
                shadowed = _NOTHING_HIDDEN if own is None else own.entries
                targets.append((self._namespaces[DEFAULT_TENANT], shadowed))
            pairs: list[tuple[float, KnowledgeEntry]] = []
            search_seconds = 0.0
            for namespace, hidden in targets:
                found, elapsed = namespace.search(query, k, hidden)
                pairs.extend(found)
                search_seconds += elapsed
            pairs.sort(key=_merge_key)
            hits = [
                RetrievedKnowledge(entry=entry, distance=float(distance), rank=rank)
                for rank, (distance, entry) in enumerate(pairs[:k], start=1)
            ]
            span.set_attribute("hits", len(hits))
            return RetrievalResult(hits=hits, search_seconds=search_seconds)
