"""repro.service — the concurrent explanation-serving subsystem.

The paper's pipeline (plan → tree-CNN encode → KB retrieve → prompt → LLM)
is exposed to callers one blocking query at a time by
:class:`~repro.explainer.pipeline.RagExplainer`.  This package wraps it in a
production-shaped serving layer:

* :mod:`repro.service.api` — request/response model with request ids,
  deadlines, and typed error results;
* :mod:`repro.service.fingerprint` — normalized-SQL cache keys;
* :mod:`repro.service.cache` — L1 explanation / L2 plan+embedding LRU
  caches with hit/miss accounting and DDL / KB-write invalidation;
* :mod:`repro.service.batching` — micro-batching scheduler driving
  :meth:`~repro.router.router.SmartRouter.embed_batch`, fed through a
  per-tenant weighted fair queue;
* :mod:`repro.service.tenancy` — tenant registry, weights, and
  token-bucket request quotas;
* :mod:`repro.service.server` — :class:`ExplanationService`: worker pool,
  bounded admission, graceful shed.

Its counters and latency histograms are :mod:`repro.obs.metrics` types.
"""

from repro.service.api import (
    ExplainRequest,
    ExplainResult,
    RequestStatus,
    ServiceError,
    ServiceErrorCode,
)
from repro.service.batching import MicroBatcher, WeightedFairQueue
from repro.service.cache import CacheLevels, CacheStats, LRUCache, ServiceCache
from repro.service.config import ServiceConfig
from repro.service.fingerprint import normalize_sql, request_cache_key, sql_fingerprint
from repro.service.server import ExplanationService
from repro.service.tenancy import DEFAULT_TENANT, TenantConfig, TenantRegistry, TokenBucket

__all__ = [
    "CacheLevels",
    "CacheStats",
    "DEFAULT_TENANT",
    "ExplainRequest",
    "ExplainResult",
    "ExplanationService",
    "LRUCache",
    "MicroBatcher",
    "RequestStatus",
    "ServiceCache",
    "ServiceConfig",
    "ServiceError",
    "ServiceErrorCode",
    "TenantConfig",
    "TenantRegistry",
    "TokenBucket",
    "WeightedFairQueue",
    "normalize_sql",
    "request_cache_key",
    "sql_fingerprint",
]
