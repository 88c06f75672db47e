"""ServiceConfig — the settings a caller of the explanation service sets.

:class:`~repro.service.server.ExplanationService` takes its settings only
as one :class:`ServiceConfig`; everything else about the service (cache
capacities, the micro-batcher's coalescing window) is a constant of the
module that owns it.

The fields group into four concerns:

* **concurrency** — ``max_workers``, ``max_in_flight``,
  ``default_deadline_seconds``;
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

from dataclasses import dataclass

from repro.service.tenancy import TenantConfig


@dataclass(frozen=True)
class ServiceConfig:
    """Settings for :class:`~repro.service.server.ExplanationService`."""

    top_k: int = 2
    #: Declared tenants (weights / quotas).  Undeclared tenants are still
    #: served, with weight 1.0 and no quota.
    tenants: tuple[TenantConfig, ...] = ()
    max_workers: int = 4
    max_in_flight: int = 64
    default_deadline_seconds: float | None = None
    #: ``None`` disables the admin HTTP server; ``0`` binds an ephemeral port.
    admin_port: int | None = None
    admin_host: str = "127.0.0.1"
