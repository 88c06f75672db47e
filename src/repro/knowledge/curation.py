"""Knowledge-base curation policies.

The paper leaves knowledge-base maintenance as future work but names the two
policies it has in mind: *automatically selecting representative queries* and
*expiring stale queries*.  Both are implemented here so the curation ablation
(:meth:`repro.bench.harness.ExperimentHarness.curation_experiment`) can
quantify them.

* :func:`select_representative_queries` — a k-center (farthest-point) sweep
  over plan-pair embeddings; it picks a small set of entries that covers the
  embedding space, which is the property the paper relies on when arguing
  that 20 entries are enough.
* :func:`expire_stale_entries` — age- and redundancy-based expiry: the oldest
  entries whose embedding is nearly identical to a newer entry are dropped
  first, then plain oldest-first until the budget is met.
"""

from __future__ import annotations

import numpy as np

from repro.knowledge.entry import KnowledgeEntry
from repro.knowledge.knowledge_base import KnowledgeBase
from repro.knowledge.vector_store import cosine_distance


def select_representative_queries(
    entries: list[KnowledgeEntry],
    budget: int,
    *,
    seed: int = 0,
) -> list[KnowledgeEntry]:
    """Pick ``budget`` entries that cover the embedding space (k-center greedy).

    The first pick is the entry closest to the centroid (a stable, seedable
    tie-break keeps the selection deterministic); each subsequent pick is the
    entry farthest from everything already selected.
    """
    if budget <= 0:
        return []
    if budget >= len(entries):
        return list(entries)
    vectors = np.vstack([entry.embedding for entry in entries])
    centroid = vectors.mean(axis=0)
    start = int(np.argmin([cosine_distance(vector, centroid) for vector in vectors]))
    selected = [start]
    min_distance = np.array([cosine_distance(vectors[i], vectors[start]) for i in range(len(entries))])
    rng = np.random.default_rng(seed)
    while len(selected) < budget:
        # Farthest-first; random jitter breaks exact ties deterministically.
        jitter = rng.uniform(0.0, 1e-9, size=len(entries))
        candidate = int(np.argmax(min_distance + jitter))
        selected.append(candidate)
        for index in range(len(entries)):
            distance = cosine_distance(vectors[index], vectors[candidate])
            if distance < min_distance[index]:
                min_distance[index] = distance
    return [entries[index] for index in selected]


def expire_stale_entries(
    knowledge_base: KnowledgeBase,
    max_entries: int,
    *,
    redundancy_threshold: float = 0.02,
) -> list[KnowledgeEntry]:
    """Shrink ``knowledge_base`` to at most ``max_entries`` entries.

    Entries are removed in two passes:

    1. *Redundant* entries: an older entry whose embedding is within
       ``redundancy_threshold`` cosine distance of a newer entry is removed
       first (the newer entry presumably reflects fresher statistics).
    2. If still above budget, plain oldest-first expiry.

    Returns the removed entries (so callers can archive them).
    """
    removed: list[KnowledgeEntry] = []
    if len(knowledge_base) <= max_entries:
        return removed

    entries = sorted(knowledge_base.entries(), key=lambda entry: entry.inserted_at)
    # Pass 1: redundancy.
    for index, older in enumerate(entries):
        if len(knowledge_base) <= max_entries:
            return removed
        if older.entry_id not in knowledge_base:
            continue
        for newer in entries[index + 1 :]:
            if newer.entry_id not in knowledge_base:
                continue
            if cosine_distance(older.embedding, newer.embedding) <= redundancy_threshold:
                removed.append(knowledge_base.remove(older.entry_id))
                break
    # Pass 2: oldest first.
    for entry in entries:
        if len(knowledge_base) <= max_entries:
            break
        if entry.entry_id in knowledge_base:
            removed.append(knowledge_base.remove(entry.entry_id))
    return removed
