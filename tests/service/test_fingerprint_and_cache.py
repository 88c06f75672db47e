"""Tests for SQL fingerprinting and the LRU+TTL cache levels."""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.service.cache import EXPLANATION_CAPACITY, LRUCache, ServiceCache
from repro.service.fingerprint import (
    explanation_key,
    normalize_sql,
    request_cache_key,
    request_keys,
    sql_fingerprint,
)


# ------------------------------------------------------------- fingerprints
def test_normalize_collapses_whitespace_and_case():
    a = "SELECT  *\nFROM   customer ;"
    b = "select * from customer"
    assert normalize_sql(a) == normalize_sql(b) == "select * from customer"
    assert sql_fingerprint(a) == sql_fingerprint(b)


def test_normalize_preserves_string_literals():
    upper = "SELECT * FROM customer WHERE c_mktsegment = 'MACHINERY'"
    lower = "SELECT * FROM customer WHERE c_mktsegment = 'machinery'"
    assert "'MACHINERY'" in normalize_sql(upper)
    assert sql_fingerprint(upper) != sql_fingerprint(lower)


def test_request_cache_key_varies_with_notes_and_k():
    sql = "SELECT * FROM orders"
    base = request_cache_key(sql)
    assert request_cache_key(sql) == base
    assert request_cache_key(sql, user_notes="index on c_phone") != base
    assert request_cache_key(sql, top_k=3) != request_cache_key(sql, top_k=2)


def _reference_normalize(sql: str) -> str:
    """The original per-character normalizer, kept as the oracle."""
    out: list[str] = []
    in_literal = False
    pending_space = False
    for char in sql:
        if in_literal:
            out.append(char)
            if char == "'":
                in_literal = False
            continue
        if char == "'":
            if pending_space and out:
                out.append(" ")
            pending_space = False
            out.append(char)
            in_literal = True
            continue
        if char.isspace():
            pending_space = True
            continue
        if pending_space and out:
            out.append(" ")
        pending_space = False
        out.append(char.lower())
    normalized = "".join(out).strip()
    while normalized.endswith(";"):
        normalized = normalized[:-1].rstrip()
    return normalized


#: Quotes, every kind of whitespace, semicolons, and letters whose
#: lowercase depends on context (final sigma) or changes length (İ).
_TRICKY = st.text(
    alphabet=st.sampled_from(list("'';; \t\n\r\x0b\x0c\x1c\x85\u00a0\u3000ΣσΑİIiSELCTxy,()=*0")),
    max_size=60,
)


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.text(), _TRICKY))
@example("'a' \n 'b'")
@example("  SELECT 'X'x  'Y';  ;")
@example("ΑΣ 'ΑΣ' ΑΣ")
def test_normalize_matches_per_character_reference(sql):
    assert normalize_sql(sql) == _reference_normalize(sql)


def test_normalize_keeps_per_character_sigma():
    # str.lower() on the whole word would give the final form "ας".
    assert normalize_sql("SELECT ΑΣ  FROM t") == "select ασ from t"


# ------------------------------------------------------------ request keys
@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.text(), _TRICKY, _TRICKY.map(lambda sql: sql + " ;; ")),
    st.one_of(st.none(), st.text(max_size=20)),
    st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
    st.sampled_from([None, "default", "acme", "ζeta"]),
)
def test_request_keys_match_unmemoized_keys(sql, notes, top_k, tenant):
    normalized = normalize_sql(sql)
    expected = (normalized, explanation_key(normalized, notes, top_k, tenant=tenant))
    assert request_keys(sql, notes, top_k, tenant) == expected
    # A repeat is answered from the memo, with the same keys.
    assert request_keys(sql, notes, top_k, tenant) == expected


def test_request_keys_never_shared_across_tenant_notes_or_k():
    sql = "SELECT * FROM orders WHERE o_orderkey = 7"
    variants = [
        (None, None, None),
        (None, None, "acme"),
        (None, None, "zeta"),
        ("index on o_orderkey", None, None),
        ("other note", None, None),
        (None, 2, None),
        (None, 3, None),
        ("index on o_orderkey", 3, "acme"),
    ]
    keys = {request_keys(sql, *variant)[1] for variant in variants}
    assert len(keys) == len(variants)
    assert {request_keys(sql, *variant)[0] for variant in variants} == {normalize_sql(sql)}


def test_request_keys_memo_is_bounded_by_l1_capacity():
    request_keys.cache_clear()
    for index in range(2 * EXPLANATION_CAPACITY):
        request_keys(f"SELECT {index} FROM t", None, None, None)
    info = request_keys.cache_info()
    assert info.maxsize == EXPLANATION_CAPACITY
    assert info.currsize <= EXPLANATION_CAPACITY
    assert info.misses == 2 * EXPLANATION_CAPACITY


def test_memoized_keys_still_miss_after_ddl_and_kb_write(service, service_stack):
    _system, _router, kb, _llm, sqls, labeled = service_stack
    assert service.explain(sqls[0]).ok
    assert service.explain(sqls[0]).cache_hit
    service.create_index("customer", "c_phone")
    memo_hits = request_keys.cache_info().hits
    after_ddl = service.explain(sqls[0])
    assert after_ddl.ok and not after_ddl.cache_hit
    assert service.explain(sqls[0]).cache_hit
    kb.correct(labeled[0].query_id, "better wording", None)
    after_write = service.explain(sqls[0])
    assert after_write.ok and not after_write.cache_hit
    # Both misses, and the hit between them, took their keys from the memo:
    # it holds keys, not answers.
    assert request_keys.cache_info().hits >= memo_hits + 3
    assert service.explain(sqls[0]).cache_hit

# -------------------------------------------------------------------- LRU
def test_lru_eviction_order():
    cache = LRUCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh a
    cache.put("c", 3)           # evicts b (least recently used)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.stats.evictions == 1


def test_touch_refreshes_recency_without_counting():
    cache = LRUCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.touch("a") == 1
    assert cache.touch("missing") is None
    cache.put("c", 3)  # evicts "b": the touch made "a" the most recent
    assert "a" in cache and "b" not in cache
    assert (cache.stats.hits, cache.stats.misses) == (0, 0)


def test_hit_miss_accounting_and_clear():
    cache = LRUCache(capacity=4)
    cache.put("k", 42)
    assert cache.get("k") == 42
    assert cache.get("unknown") is None
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_rate == 0.5
    assert "k" in cache
    assert cache.clear() == 1
    assert cache.clear() == 0
    assert cache.stats.invalidations == 1
    assert "k" not in cache
    assert len(cache) == 0


# ----------------------------------------------------------- service cache
def test_kb_write_evicts_only_explanations():
    cache = ServiceCache()
    cache.explanations.put("e1", "explanation")
    cache.plans.put("p1", "plan")
    cache.on_kb_write("add", "entry-1")
    assert cache.explanations.get("e1") is None
    assert cache.plans.get("p1") == "plan"


def test_ddl_evicts_both_levels():
    cache = ServiceCache()
    cache.explanations.put("e1", "explanation")
    cache.plans.put("p1", "plan")
    cache.on_ddl("create_index", "idx_customer_c_phone")
    assert cache.explanations.get("e1") is None
    assert cache.plans.get("p1") is None


def test_epoch_guard_refuses_stale_put_after_clear():
    """A put computed before an invalidation must not repopulate the cache."""
    cache = LRUCache(capacity=8)
    epoch = cache.epoch
    cache.clear()  # invalidation races the in-flight computation
    assert cache.put("k", "stale", epoch=epoch) is False
    assert cache.get("k") is None
    assert cache.put("k", "fresh", epoch=cache.epoch) is True
    assert cache.get("k") == "fresh"


def test_snapshot_shape():
    cache = ServiceCache()
    cache.plans.put("p", 1)
    cache.plans.get("p")
    snap = cache.snapshot()
    assert set(snap) == {"explanations", "plans"}
    assert snap["plans"]["hits"] == 1
    assert snap["plans"]["size"] == 1
