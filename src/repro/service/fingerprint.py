"""Normalized-SQL fingerprints — the cache keys of the serving layer.

Two textually different spellings of the same query ("SELECT * FROM t" vs
"select  *\nfrom t;") must hit the same cache line, so cache keys are
derived from a normalized form: whitespace collapsed, keywords and
identifiers lowercased, trailing semicolons stripped — while string
literals keep their exact case and spacing (they change result semantics
in the simulated engines' selectivity model).

The service derives both keys of a request at admission through
:func:`request_keys`, memoized process-wide by exact SQL text, notes,
``top_k`` and tenant for the last
:data:`~repro.service.cache.EXPLANATION_CAPACITY` distinct requests, as
many as one tenant's L1 holds answers.  An exact repeat, the common L1
hit, therefore skips normalization and hashing while its answer can
still be cached; a respelled variant misses the memo, normalizes once
and lands on the same keys.  The memo holds keys, never answers, so DDL
and knowledge writes still invalidate what the keys point to.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from repro.knowledge.knowledge_base import DEFAULT_TENANT
from repro.service.cache import EXPLANATION_CAPACITY


def _fold_tenant(digest: "hashlib._Hash", tenant: str | None) -> None:
    """Mix a non-default tenant into ``digest``.

    The default tenant (and ``None``) is deliberately a no-op so
    single-tenant deployments keep byte-identical cache keys across the
    multi-tenancy change — warm caches survive the upgrade.
    """
    if tenant not in (None, DEFAULT_TENANT):
        digest.update(b"\x00tenant\x00")
        digest.update(tenant.encode("utf-8"))


def _lower(text: str) -> str:
    """Lowercase ``text`` one character at a time.

    ``str.lower`` on a whole string applies Unicode's final-sigma rule
    (``"ΑΣ".lower() == "ας"``), which would make the key of a word depend
    on its neighbours; per-character lowering never does.  For ASCII the
    two agree, so the common case stays one C call.
    """
    if text.isascii():
        return text.lower()
    return "".join(map(str.lower, text))


def normalize_sql(sql: str) -> str:
    """Canonical spelling of ``sql`` used for fingerprinting.

    Outside single-quoted string literals, every run of whitespace becomes
    one space and characters are lowercased; literals are preserved verbatim.
    Trailing semicolons and surrounding whitespace are dropped.
    """
    # Splitting on the quote puts the text outside literals at the even
    # indexes; an unterminated literal simply runs to the end.
    parts = sql.split("'")
    for index in range(0, len(parts), 2):
        segment = parts[index]
        words = segment.split()
        if not words:
            # Whitespace between two literals stays one space; at either
            # end of the statement the final strip() removes it.
            parts[index] = " " if segment else ""
            continue
        collapsed = _lower(" ".join(words))
        if segment[0].isspace():
            collapsed = " " + collapsed
        if segment[-1].isspace():
            collapsed += " "
        parts[index] = collapsed
    normalized = "'".join(parts).strip()
    while normalized.endswith(";"):
        normalized = normalized[:-1].rstrip()
    return normalized


def plan_key(normalized: str, *, tenant: str | None = None) -> str:
    """:func:`sql_fingerprint` of SQL that is already normalized."""
    digest = hashlib.sha256(normalized.encode("utf-8"))
    _fold_tenant(digest, tenant)
    return digest.hexdigest()[:32]


def explanation_key(
    normalized: str,
    user_notes: str | None = None,
    top_k: int | None = None,
    *,
    tenant: str | None = None,
) -> str:
    """:func:`request_cache_key` of SQL that is already normalized."""
    digest = hashlib.sha256(normalized.encode("utf-8"))
    digest.update(b"\x00notes\x00")
    digest.update((user_notes or "").encode("utf-8"))
    digest.update(b"\x00k\x00")
    digest.update(str(top_k if top_k is not None else "").encode("utf-8"))
    _fold_tenant(digest, tenant)
    return digest.hexdigest()[:32]


def sql_fingerprint(sql: str, *, tenant: str | None = None) -> str:
    """Stable hex fingerprint of the normalized SQL (plan-cache key).

    ``tenant`` namespaces the key so two tenants' identical SQL never
    share a plan-cache line; the default tenant folds to nothing.
    """
    return plan_key(normalize_sql(sql), tenant=tenant)


def request_cache_key(
    sql: str,
    user_notes: str | None = None,
    top_k: int | None = None,
    *,
    tenant: str | None = None,
) -> str:
    """Explanation-cache key: the SQL fingerprint plus everything else that
    shapes the generated answer (user notes, retrieval depth, tenant)."""
    return explanation_key(normalize_sql(sql), user_notes, top_k, tenant=tenant)


@lru_cache(maxsize=EXPLANATION_CAPACITY)
def request_keys(
    sql: str, user_notes: str | None, top_k: int | None, tenant: str | None
) -> tuple[str, str]:
    """``(normalize_sql(sql), explanation key)`` of one request, memoized.

    A miss in the explanation cache derives its plan key from the returned
    normalized text with :func:`plan_key`.
    """
    normalized = normalize_sql(sql)
    return normalized, explanation_key(normalized, user_notes, top_k, tenant=tenant)
