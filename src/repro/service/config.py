"""ServiceConfig — the explanation service's tuning knobs in one place.

:class:`~repro.service.server.ExplanationService` historically took every
knob as a keyword argument; that still works (the kwargs override the
config), but a :class:`ServiceConfig` can now be built once, shared between
deployments, and extended without touching the service signature.

The knobs group into four concerns:

* **concurrency** — ``max_workers``, ``max_in_flight``,
  ``default_deadline_seconds``;
* **caching** — capacities and TTLs for the L1 explanation and L2 plan
  caches;
* **batching** — the micro-batcher's ``batch_max_size`` and
  ``batch_max_wait_seconds`` coalescing window (the window only applies
  once concurrent arrivals are observed; a lone request flushes
  immediately);
* **retrieval** — ``top_k`` entries fetched from the knowledge base;
* **tenancy** — ``tenants``: declarative per-tenant weights and quotas
  (:class:`~repro.service.tenancy.TenantConfig`).  Every tenant, declared
  or not, retrieves from its own namespace of the knowledge base plus the
  shared corpus;
* **observability** — ``admin_port`` / ``admin_host``: when ``admin_port``
  is set (``0`` picks an ephemeral port) the service starts an embedded
  :class:`~repro.obs.server.AdminServer` exposing ``/metrics``,
  ``/healthz``, ``/readyz``, ``/traces``, and ``/slo`` over HTTP, and an
  :class:`~repro.obs.slo.SLOTracker` with the default objectives.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.service.tenancy import TenantConfig


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for :class:`~repro.service.server.ExplanationService`."""

    top_k: int = 2
    #: Declared tenants (weights / quotas).  Undeclared tenants are still
    #: served, with weight 1.0 and no quota.
    tenants: tuple[TenantConfig, ...] = ()
    max_workers: int = 4
    max_in_flight: int = 64
    default_deadline_seconds: float | None = None
    explanation_cache_capacity: int = 512
    plan_cache_capacity: int = 2048
    explanation_ttl_seconds: float | None = None
    plan_ttl_seconds: float | None = None
    batch_max_size: int = 16
    batch_max_wait_seconds: float = 0.002
    #: ``None`` disables the admin HTTP server; ``0`` binds an ephemeral port.
    admin_port: int | None = None
    admin_host: str = "127.0.0.1"

    def with_overrides(self, **overrides: object) -> "ServiceConfig":
        """A copy with the non-``None`` overrides applied.

        ``None`` means "keep the config value" — the service's keyword
        arguments default to ``None`` so explicit kwargs win over the
        config while absent ones fall through to it.
        """
        known = {field.name for field in fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise TypeError(f"unknown ServiceConfig field(s): {', '.join(unknown)}")
        applied = {name: value for name, value in overrides.items() if value is not None}
        if not applied:
            return self
        return ServiceConfig(**{**self.as_dict(), **applied})

    def as_dict(self) -> dict[str, object]:
        return {field.name: getattr(self, field.name) for field in fields(self)}
