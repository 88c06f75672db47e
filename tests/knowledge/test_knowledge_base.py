"""Tests for knowledge entries, the knowledge base, and curation policies."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.htap.engines.base import EngineKind
from repro.knowledge.curation import expire_stale_entries, select_representative_queries
from repro.knowledge.entry import KnowledgeEntry
from repro.knowledge.knowledge_base import DEFAULT_TENANT, KnowledgeBase
from repro.knowledge.vector_store import FlatVectorStore, HNSWVectorStore


def _entry(entry_id: str, vector, faster=EngineKind.AP, factors=("hash_join_vs_nested_loop",)) -> KnowledgeEntry:
    return KnowledgeEntry(
        entry_id=entry_id,
        embedding=np.asarray(vector, dtype=float),
        sql=f"SELECT * FROM orders -- {entry_id}",
        plan_details_json='{"TP": {"Node Type": "Table Scan"}, "AP": {"Node Type": "Table Scan"}}',
        faster_engine=faster,
        tp_latency_seconds=5.0,
        ap_latency_seconds=0.3,
        expert_explanation="AP is faster because it uses hash joins.",
        factors=factors,
    )


# ------------------------------------------------------------------- entry
def test_entry_validation_and_text():
    entry = _entry("e1", [1.0, 0.0, 0.0])
    assert "AP was faster" in entry.execution_result_text
    assert entry.speedup == pytest.approx(5.0 / 0.3, rel=0.01)
    with pytest.raises(ValueError):
        _entry("bad", [[1.0, 2.0], [3.0, 4.0]])


def test_entry_correction_updates_text_and_count():
    entry = _entry("e1", [1.0, 0.0])
    entry.apply_correction("Corrected explanation.", factors=("no_usable_index",))
    assert entry.expert_explanation == "Corrected explanation."
    assert entry.factors == ("no_usable_index",)
    assert entry.correction_count == 1


# ---------------------------------------------------------- knowledge base
def test_kb_add_retrieve_top_k():
    kb = KnowledgeBase()
    kb.add(_entry("a", [1.0, 0.0, 0.0]))
    kb.add(_entry("b", [0.0, 1.0, 0.0]))
    kb.add(_entry("c", [0.9, 0.1, 0.0]))
    result = kb.retrieve(np.array([1.0, 0.0, 0.0]), k=2)
    assert [hit.entry.entry_id for hit in result.hits] == ["a", "c"]
    assert result.hits[0].rank == 1
    assert result.hits[0].similarity > result.hits[1].similarity
    assert result.search_seconds < 0.05
    assert result.search_ms == pytest.approx(result.search_seconds * 1000)


def test_kb_duplicate_and_missing_ids():
    kb = KnowledgeBase()
    kb.add(_entry("a", [1.0, 0.0]))
    with pytest.raises(KeyError):
        kb.add(_entry("a", [1.0, 0.0]))
    with pytest.raises(KeyError):
        kb.get("zzz")
    with pytest.raises(KeyError):
        kb.remove("zzz")


def test_kb_remove_and_contains():
    kb = KnowledgeBase()
    kb.add(_entry("a", [1.0, 0.0]))
    kb.add(_entry("b", [0.0, 1.0]))
    removed = kb.remove("a")
    assert removed.entry_id == "a"
    assert "a" not in kb
    assert len(kb) == 1
    assert [hit.entry.entry_id for hit in kb.retrieve(np.array([1.0, 0.0]), k=5).hits] == ["b"]


def test_kb_correct_applies_expert_feedback():
    kb = KnowledgeBase()
    kb.add(_entry("a", [1.0, 0.0]))
    kb.correct("a", "Fixed explanation", ("selective_index_access",))
    assert kb.get("a").expert_explanation == "Fixed explanation"
    assert kb.get("a").correction_count == 1


def test_kb_insert_order_recorded():
    kb = KnowledgeBase()
    kb.add(_entry("a", [1.0, 0.0]))
    kb.add(_entry("b", [0.0, 1.0]))
    assert kb.get("a").inserted_at < kb.get("b").inserted_at


def test_kb_with_hnsw_backend():
    kb = KnowledgeBase(lambda: HNSWVectorStore(seed=4))
    rng = np.random.default_rng(1)
    for index in range(50):
        kb.add(_entry(f"e{index}", rng.normal(size=16)))
    target = kb.get("e7").embedding
    hits = kb.retrieve(target, k=3).hits
    assert hits[0].entry.entry_id == "e7"


def make_entry(i: int, rng: np.random.Generator, dim: int = 8) -> KnowledgeEntry:
    return _entry(f"entry-{i}", rng.normal(size=dim))


def make_entries(n: int, seed: int = 0) -> list[KnowledgeEntry]:
    rng = np.random.default_rng(seed)
    return [make_entry(i, rng) for i in range(n)]


def with_embedding(entry: KnowledgeEntry, embedding) -> KnowledgeEntry:
    return dataclasses.replace(entry, embedding=np.asarray(embedding, dtype=np.float64))


def test_crud_round_trip_and_errors():
    kb = KnowledgeBase()
    entries = make_entries(10)
    kb.add_many(entries[:9])
    kb.add(entries[9])
    assert len(kb) == 10
    assert "entry-3" in kb
    assert kb.get("entry-3").entry_id == "entry-3"
    kb.correct("entry-3", "corrected text", ("new-factor",))
    assert kb.get("entry-3").expert_explanation == "corrected text"
    removed = kb.remove("entry-3")
    assert removed.entry_id == "entry-3"
    assert "entry-3" not in kb
    with pytest.raises(KeyError):
        kb.get("entry-3")
    with pytest.raises(KeyError):
        kb.remove("entry-3")
    with pytest.raises(KeyError):
        kb.correct("nope", "x")
    with pytest.raises(KeyError):
        kb.add(entries[0])
    with pytest.raises(KeyError):
        kb.get("entry-0", tenant="never-wrote")


def test_tenant_namespaces_are_isolated():
    kb = KnowledgeBase()
    rng = np.random.default_rng(1)
    kb.add_many(make_entries(30), tenant="tenant-a")
    kb.add_many(make_entries(5, seed=9), tenant="tenant-b")
    assert kb.count(tenant="tenant-a") == 30
    assert kb.count(tenant="tenant-b") == 5
    assert kb.count() == 0
    assert len(kb) == 35
    # Same entry id may exist under both tenants independently.
    assert kb.contains("entry-0", tenant="tenant-a")
    assert kb.contains("entry-0", tenant="tenant-b")
    assert not kb.contains("entry-0")  # default tenant is empty
    assert {e.entry_id for e in kb.entries(tenant="tenant-b")} == {f"entry-{i}" for i in range(5)}
    # Retrieval never crosses tenants.
    query = rng.normal(size=8)
    hits = kb.retrieve(query, k=50, tenant="tenant-b").hits
    assert len(hits) == 5
    assert {h.entry.entry_id for h in hits} <= {f"entry-{i}" for i in range(5)}
    assert kb.retrieve(query, k=5).hits == []  # default tenant empty


def test_tenant_retrieval_grounds_on_shared_corpus():
    """The default namespace is the shared corpus: tenant retrieval unions
    it with the tenant's own entries, and a tenant entry shadows a shared
    entry with the same id."""
    kb = KnowledgeBase()
    rng = np.random.default_rng(7)
    kb.add_many(make_entries(20))  # default tenant = shared corpus
    query = rng.normal(size=8)
    # A tenant with no entries of its own still retrieves shared hits.
    baseline = [h.entry.entry_id for h in kb.retrieve(query, k=5, tenant="acme").hits]
    assert baseline == [h.entry.entry_id for h in kb.retrieve(query, k=5).hits]
    # The tenant's private entry joins the merged ranking...
    kb.add(with_embedding(make_entry(999, rng), query), tenant="acme")  # distance ~0
    top = kb.retrieve(query, k=1, tenant="acme").hits[0]
    assert top.entry.entry_id == "entry-999"
    # ...but stays invisible to other tenants and to the default view.
    zeta_ids = {h.entry.entry_id for h in kb.retrieve(query, k=20, tenant="zeta").hits}
    assert "entry-999" not in zeta_ids
    default_ids = {h.entry.entry_id for h in kb.retrieve(query, k=20).hits}
    assert "entry-999" not in default_ids
    # Shadowing: a tenant entry with a shared id wins the merge.
    kb.add(with_embedding(make_entry(0, rng), query), tenant="beta")
    best_beta = kb.retrieve(query, k=1, tenant="beta").hits[0]
    assert best_beta.entry.entry_id == "entry-0"
    assert best_beta.distance == pytest.approx(0.0, abs=1e-9)
    # A shadowed shared entry never appears, however close it is: its slot
    # goes to the next visible shared entry.
    shared_top6 = [h.entry.entry_id for h in kb.retrieve(query, k=6).hits]
    kb.add(with_embedding(kb.get(shared_top6[0]), -query), tenant="gamma")
    gamma = [h.entry.entry_id for h in kb.retrieve(query, k=5, tenant="gamma").hits]
    assert gamma == shared_top6[1:]


def test_write_listener_reports_tenant():
    kb = KnowledgeBase()
    events: list[tuple[str, str, str]] = []

    def listener(*args: str) -> None:
        events.append(args)

    kb.add_write_listener(listener)
    entries = make_entries(2)
    kb.add(entries[0], tenant="acme")
    kb.add(entries[1])
    kb.correct("entry-1", "fixed")
    kb.remove("entry-0", tenant="acme")
    assert events == [
        ("add", "entry-0", "acme"),
        ("add", "entry-1", DEFAULT_TENANT),
        ("correct", "entry-1", DEFAULT_TENANT),
        ("remove", "entry-0", "acme"),
    ]
    # A duplicate part-way through a bulk add still announces what landed.
    fresh = make_entries(4, seed=3)[2:]
    with pytest.raises(KeyError):
        kb.add_many([fresh[0], entries[1], fresh[1]])
    assert events[-1] == ("add", "entry-2", DEFAULT_TENANT)
    assert "entry-2" in kb and "entry-3" not in kb
    kb.remove_write_listener(listener)
    kb.remove("entry-1")
    assert len(events) == 5


@pytest.mark.parametrize(
    "store_factory", [FlatVectorStore, lambda: HNSWVectorStore(seed=4)], ids=["flat", "hnsw"]
)
def test_rejected_add_leaves_no_entry(store_factory):
    """A wrong-dimension embedding is refused without a trace in the KB."""
    kb = KnowledgeBase(store_factory)
    entries = make_entries(3)
    kb.add_many(entries[:2])
    events: list[tuple[str, str, str]] = []
    kb.add_write_listener(lambda *args: events.append(args))
    with pytest.raises(ValueError):
        kb.add(with_embedding(entries[2], np.ones(4)))
    assert events == []
    assert kb.count() == 2 and not kb.contains("entry-2")
    hits = kb.retrieve(entries[0].embedding, k=3).hits
    assert len(hits) == 2 and hits[0].entry.entry_id == "entry-0"
    with pytest.raises(KeyError):
        kb.remove("entry-2")
    kb.add(entries[2])
    assert kb.remove("entry-2").entry_id == "entry-2"
    assert kb.count() == 2


def test_hnsw_store_factory():
    kb = KnowledgeBase(lambda: HNSWVectorStore(M=8, ef_construction=32, ef_search=16))
    kb.add_many(make_entries(60))
    rng = np.random.default_rng(5)
    result = kb.retrieve(rng.normal(size=8), k=4)
    assert len(result.hits) == 4
    assert [hit.rank for hit in result.hits] == [1, 2, 3, 4]
    assert result.search_seconds > 0.0
    assert len(kb) == kb.count() == 60


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    shared=st.integers(min_value=0, max_value=30),
    tenant_rows=st.lists(
        st.tuples(st.sampled_from(["acme", "beta"]), st.integers(min_value=0, max_value=45)),
        max_size=30,
    ),
    k=st.integers(min_value=1, max_value=6),
)
def test_tenant_topk_matches_visible_set_oracle(seed, shared, tenant_rows, k):
    """Tenant retrieval equals a flat search over exactly what the tenant
    may see, for tenants whose ids overlap (and so shadow) the shared
    corpus as well as for the shared corpus itself."""
    rng = np.random.default_rng(seed)
    rows = [(DEFAULT_TENANT, i) for i in range(shared)] + list(dict.fromkeys(tenant_rows))
    placed = [(tenant, make_entry(i, rng)) for tenant, i in rows]
    kb = KnowledgeBase()
    for tenant, entry in placed:
        kb.add(entry, tenant=tenant)
    for tenant in (DEFAULT_TENANT, "acme", "beta", "zeta"):
        # What the tenant may see: its own entries, plus shared ones it
        # does not shadow.
        visible = {e.entry_id: e for t, e in placed if t == DEFAULT_TENANT}
        visible.update({e.entry_id: e for t, e in placed if t == tenant})
        reference = KnowledgeBase()
        reference.add_many([dataclasses.replace(e) for e in visible.values()])
        for _ in range(3):
            query = rng.normal(size=8)
            got = kb.retrieve(query, k=k, tenant=tenant).hits
            oracle = reference.retrieve(query, k=k).hits
            assert [h.entry.entry_id for h in got] == [h.entry.entry_id for h in oracle]
            assert [h.distance for h in got] == pytest.approx([h.distance for h in oracle])


# ---------------------------------------------------------------- curation
def test_representative_selection_covers_space():
    rng = np.random.default_rng(0)
    clusters = []
    for center in ([5, 0, 0], [0, 5, 0], [0, 0, 5], [-5, 0, 0]):
        for index in range(10):
            clusters.append(np.array(center, dtype=float) + rng.normal(0, 0.1, 3))
    entries = [_entry(f"e{i}", vector) for i, vector in enumerate(clusters)]
    selected = select_representative_queries(entries, budget=4)
    assert len(selected) == 4
    # One pick from each cluster: the four selected vectors should be far apart.
    picked = np.vstack([entry.embedding for entry in selected])
    pairwise_min = min(
        np.linalg.norm(picked[i] - picked[j]) for i in range(4) for j in range(4) if i != j
    )
    assert pairwise_min > 3.0


def test_representative_selection_budget_edges():
    entries = [_entry(f"e{i}", [float(i), 0.0]) for i in range(5)]
    assert select_representative_queries(entries, 0) == []
    assert select_representative_queries(entries, 10) == entries


def test_expire_stale_entries_prefers_redundant_then_oldest():
    kb = KnowledgeBase()
    kb.add(_entry("old-dup", [1.0, 0.0, 0.0]))
    kb.add(_entry("unique", [0.0, 1.0, 0.0]))
    kb.add(_entry("new-dup", [1.0, 0.001, 0.0]))
    removed = expire_stale_entries(kb, max_entries=2)
    assert [entry.entry_id for entry in removed] == ["old-dup"]
    assert len(kb) == 2
    assert "new-dup" in kb and "unique" in kb
    # Further shrinking falls back to oldest-first.
    removed_more = expire_stale_entries(kb, max_entries=1)
    assert len(kb) == 1
    assert len(removed_more) == 1


def test_expire_noop_when_under_budget():
    kb = KnowledgeBase()
    kb.add(_entry("a", [1.0, 0.0]))
    assert expire_stale_entries(kb, max_entries=5) == []
    assert len(kb) == 1
