"""Normalized-SQL fingerprints — the cache keys of the serving layer.

Two textually different spellings of the same query ("SELECT * FROM t" vs
"select  *\nfrom t;") must hit the same cache line, so cache keys are
derived from a normalized form: whitespace collapsed, keywords and
identifiers lowercased, trailing semicolons stripped — while string
literals keep their exact case and spacing (they change result semantics
in the simulated engines' selectivity model).
"""

from __future__ import annotations

import hashlib

from repro.knowledge.knowledge_base import DEFAULT_TENANT


def _fold_tenant(digest: "hashlib._Hash", tenant: str | None) -> None:
    """Mix a non-default tenant into ``digest``.

    The default tenant (and ``None``) is deliberately a no-op so
    single-tenant deployments keep byte-identical cache keys across the
    multi-tenancy change — warm caches survive the upgrade.
    """
    if tenant not in (None, DEFAULT_TENANT):
        digest.update(b"\x00tenant\x00")
        digest.update(tenant.encode("utf-8"))


def normalize_sql(sql: str) -> str:
    """Canonical spelling of ``sql`` used for fingerprinting.

    Outside single-quoted string literals, every run of whitespace becomes
    one space and characters are lowercased; literals are preserved verbatim.
    Trailing semicolons and surrounding whitespace are dropped.
    """
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


def sql_fingerprint(sql: str, *, tenant: str | None = None) -> str:
    """Stable hex fingerprint of the normalized SQL (plan-cache key).

    ``tenant`` namespaces the key so two tenants' identical SQL never
    share a plan-cache line; the default tenant folds to nothing.
    """
    digest = hashlib.sha256(normalize_sql(sql).encode("utf-8"))
    _fold_tenant(digest, tenant)
    return digest.hexdigest()[:32]


def request_cache_key(
    sql: str,
    user_notes: str | None = None,
    top_k: int | None = None,
    *,
    tenant: str | None = None,
) -> str:
    """Explanation-cache key: the SQL fingerprint plus everything else that
    shapes the generated answer (user notes, retrieval depth, tenant)."""
    digest = hashlib.sha256(normalize_sql(sql).encode("utf-8"))
    digest.update(b"\x00notes\x00")
    digest.update((user_notes or "").encode("utf-8"))
    digest.update(b"\x00k\x00")
    digest.update(str(top_k if top_k is not None else "").encode("utf-8"))
    _fold_tenant(digest, tenant)
    return digest.hexdigest()[:32]
