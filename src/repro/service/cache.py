"""Multi-level caching for the explanation service.

Two levels, both LRU with full hit/miss accounting and fixed capacities
(:data:`EXPLANATION_CAPACITY`, :data:`PLAN_CAPACITY`).  Entries do not
expire; freshness comes from the epoch-guarded clears on DDL and
knowledge-base writes:

* **L1 — explanation cache**: ``request_cache_key -> Explanation``.  A hit
  serves the finished answer without touching planner, router, knowledge
  base, or LLM.  The explanation's prompt keeps its attachments and renders
  its text only when read.  Invalidated by knowledge-base writes (retrieval
  grounding changed) and by DDL (plans changed).
* **L2 — plan cache**: ``sql_fingerprint -> (question, embedding)``, where
  ``question`` is the :class:`~repro.llm.prompts.QuestionAttachment` (the
  plan pair as EXPLAIN JSON text plus the execution result) that every
  explanation built from the entry shares.  A hit skips parse → optimize →
  execute → encode and goes straight to retrieval + generation.
  Invalidated by DDL only; knowledge-base writes do not change plans or
  embeddings.

Both caches are safe to use from many worker threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from repro.knowledge.knowledge_base import DEFAULT_TENANT

#: Per-tenant entry bound of the L1 explanation cache.
EXPLANATION_CAPACITY = 512
#: Per-tenant entry bound of the L2 plan cache.
PLAN_CAPACITY = 2048

_MISSING = object()


@dataclass
class CacheStats:
    """Counters for one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """Thread-safe LRU cache; ``capacity`` bounds the entry count, evicting
    least-recently-used entries."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._stats = CacheStats()
        self._epoch = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self._stats.hits += 1
            return value

    def touch(self, key: Hashable) -> Any:
        """:meth:`get` that counts neither a hit nor a miss: a second look."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            return self._entries.get(key)

    def put(self, key: Hashable, value: Any, *, epoch: int | None = None) -> bool:
        """Insert ``key``; returns whether the value was stored.

        ``epoch`` guards against a check-compute-put race with invalidation:
        pass the value of :attr:`epoch` read *before* computing ``value``,
        and the put becomes a no-op if :meth:`clear` ran in between (the
        computed value may reflect pre-invalidation state).
        """
        with self._lock:
            if epoch is not None and epoch != self._epoch:
                return False
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._stats.evictions += 1
            return True

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped.

        Also advances :attr:`epoch`, so epoch-guarded :meth:`put` calls that
        started computing before the clear will refuse to store stale data.
        """
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._stats.invalidations += dropped
            self._epoch += 1
            return dropped

    @property
    def epoch(self) -> int:
        """Invalidation epoch; advanced by every :meth:`clear`."""
        with self._lock:
            return self._epoch

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def stats(self) -> CacheStats:
        return self._stats

    def stats_dict(self) -> dict[str, float]:
        with self._lock:
            payload = self._stats.as_dict()
            payload["size"] = len(self._entries)
            payload["capacity"] = self.capacity
            return payload


@dataclass
class CacheLevels:
    """One tenant's pair of cache levels (L1 explanations + L2 plans)."""

    explanations: LRUCache
    plans: LRUCache


def _new_levels() -> CacheLevels:
    return CacheLevels(
        explanations=LRUCache(EXPLANATION_CAPACITY), plans=LRUCache(PLAN_CAPACITY)
    )


class ServiceCache:
    """The explanation service's two cache levels plus their invalidation.

    Wire :meth:`on_kb_write` into ``KnowledgeBase.add_write_listener`` and
    :meth:`on_ddl` into ``HTAPSystem.add_ddl_listener``; the service does
    this automatically.

    Every tenant gets a private :class:`CacheLevels` pair (created lazily
    by :meth:`level`), so one tenant's knowledge-base writes invalidate
    only that tenant's explanations and a noisy tenant cannot evict a
    quiet one's entries.  The :attr:`explanations` / :attr:`plans`
    properties alias the default tenant's levels, keeping the
    single-tenant API unchanged.
    """

    def __init__(self) -> None:
        self._levels_lock = threading.Lock()
        #: tenant -> CacheLevels; replaced copy-on-write so readers may
        #: iterate a snapshot without holding the lock.
        self._levels: dict[str, CacheLevels] = {DEFAULT_TENANT: _new_levels()}

    # ------------------------------------------------------------ tenant levels
    def level(self, tenant: str = DEFAULT_TENANT) -> CacheLevels:
        """The (lazily created) cache pair owned by ``tenant``."""
        levels = self._levels.get(tenant)
        if levels is None:
            with self._levels_lock:
                levels = self._levels.get(tenant)
                if levels is None:
                    levels = _new_levels()
                    self._levels = {**self._levels, tenant: levels}
        return levels

    def tenants(self) -> tuple[str, ...]:
        return tuple(sorted(self._levels))

    @property
    def explanations(self) -> LRUCache:
        """The default tenant's L1 (legacy single-tenant accessor)."""
        return self._levels[DEFAULT_TENANT].explanations

    @property
    def plans(self) -> LRUCache:
        """The default tenant's L2 (legacy single-tenant accessor)."""
        return self._levels[DEFAULT_TENANT].plans

    # -------------------------------------------------------------- L2 entries
    def put_plan(
        self,
        key: Hashable,
        question: Any,
        embedding: Any,
        *,
        epoch: int | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> bool:
        """Store one L2 entry ``(question, embedding)`` for ``tenant``."""
        return self.level(tenant).plans.put(key, (question, embedding), epoch=epoch)

    def get_plan(self, key: Hashable, *, tenant: str = DEFAULT_TENANT) -> tuple[Any, Any] | None:
        """One L2 lookup: ``(question, embedding)``, or ``None`` on a miss."""
        return self.level(tenant).plans.get(key)

    # ------------------------------------------------------------ invalidation
    def on_kb_write(self, event: str, entry_id: str, tenant: str = DEFAULT_TENANT) -> None:
        """Knowledge changed: cached explanations may cite stale entries.

        A write to a tenant's namespace drops only that tenant's
        explanations — tenant namespaces are retrieval-isolated, so tenant
        A's write cannot make tenant B's cached answers stale.  The default
        namespace is the shared corpus every tenant retrieves from, so a
        write there drops every tenant's explanations.  Plans and
        embeddings are untouched — they do not depend on the KB.
        """
        if tenant != DEFAULT_TENANT:
            self.level(tenant).explanations.clear()
        else:
            for levels in self._levels.values():
                levels.explanations.clear()

    def on_ddl(self, event: str, index_name: str) -> None:
        """Schema changed: optimizer output (and hence embeddings and
        explanations) may differ.  The simulated engines' schema is shared
        infrastructure, so every tenant's levels are dropped."""
        for levels in self._levels.values():
            levels.plans.clear()
            levels.explanations.clear()

    # ---------------------------------------------------------------- export
    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per-level stats; the default tenant keeps the legacy flat keys,
        other tenants appear as ``explanations.<tenant>`` / ``plans.<tenant>``."""
        payload: dict[str, dict[str, float]] = {}
        for tenant, levels in sorted(self._levels.items()):
            if tenant == DEFAULT_TENANT:
                payload["explanations"] = levels.explanations.stats_dict()
                payload["plans"] = levels.plans.stats_dict()
            else:
                payload[f"explanations.{tenant}"] = levels.explanations.stats_dict()
                payload[f"plans.{tenant}"] = levels.plans.stats_dict()
        return payload
