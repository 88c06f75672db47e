"""ExplanationService — the concurrent serving front-end of the pipeline.

Wraps ``HTAPSystem + SmartRouter + KnowledgeBase + LLMClient`` behind a
production-shaped request path:

* **admission control** — a bounded in-flight budget; when it is exhausted,
  new requests are shed with a typed ``QUEUE_FULL`` rejection instead of an
  exception or an unbounded queue;
* **multi-level caching** — an L1 explanation cache (normalized-SQL +
  user-notes key) served synchronously at admission, and an L2 cache of
  each SQL's QUESTION block and embedding that lets repeated SQL skip
  parse → optimize → execute → encode (see :mod:`repro.service.cache`);
  both are invalidated automatically on DDL and knowledge-base writes via
  the listener hooks on :class:`~repro.htap.system.HTAPSystem` and
  :class:`~repro.knowledge.knowledge_base.KnowledgeBase`;
* **micro-batched router inference** — cold requests encode through the
  :class:`~repro.service.batching.MicroBatcher`, so concurrent encodes run
  as one stacked forward pass;
* **worker pool + deadlines** — a ``ThreadPoolExecutor`` drives the
  remaining stages; a request whose latency budget expires while queued is
  completed with ``DEADLINE_EXCEEDED`` rather than doing dead work;
* **multi-tenancy** — every request carries a ``tenant`` (default
  :data:`~repro.knowledge.knowledge_base.DEFAULT_TENANT`): retrieval from
  that tenant's knowledge-base namespace plus the shared corpus,
  tenant-scoped cache levels and fingerprints, per-tenant quotas
  (``QUOTA_EXCEEDED`` rejections) and weighted fair batching.  The service
  uses the knowledge base it is given;
* **telemetry** — counters and p50/p95/p99 latency histograms exported as
  one dict by :meth:`ExplanationService.metrics_snapshot`;
* **admin plane** — with ``ServiceConfig(admin_port=...)`` the service
  starts an embedded :class:`~repro.obs.server.AdminServer` serving
  ``/metrics`` (Prometheus text), ``/healthz`` / ``/readyz`` (typed health
  checks via :meth:`ExplanationService.health_report`), ``/traces`` (the
  live tracer's retained traces), and ``/slo`` (burn-rate evaluation of
  the default objectives).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures._base import FINISHED, LOGGER
from typing import Callable

from repro.explainer.pipeline import Explanation, RagExplainer, execution_result_text
from repro.htap.catalog import Index
from repro.htap.sql.lexer import LexerError
from repro.htap.sql.parser import ParserError
from repro.htap.system import HTAPSystem
from repro.knowledge.knowledge_base import DEFAULT_TENANT, KnowledgeBase
from repro.llm.client import LLMClient
from repro.llm.prompts import PromptBuilder, QuestionAttachment
from repro.obs.metrics import MetricFamily, MetricsRegistry
from repro.obs.tracing import NULL_SPAN, Span, Tracer, get_tracer
from repro.router.router import SmartRouter
from repro.service.api import (
    ExplainRequest,
    ExplainResult,
    RequestStatus,
    ServiceErrorCode,
    new_request_id,
)
from repro.service.batching import BatcherClosedError, MicroBatcher
from repro.service.cache import ServiceCache
from repro.service.config import ServiceConfig
from repro.service.fingerprint import plan_key, request_keys
from repro.service.tenancy import TenantRegistry


class _FinishedFuture(Future):
    """A future born FINISHED: no ``Condition`` to build, set or take.  The
    stdlib's ``wait`` and ``as_completed`` still reach into ``_condition``
    and ``_waiters``; each future makes its own on first use."""

    _state = FINISHED
    _exception = None

    def __init__(self, result: ExplainResult):
        self._result = result

    def __getattr__(self, name: str):
        # Only what __init__ skipped; setdefault is atomic, so racers share one.
        if name not in ("_condition", "_waiters"):
            raise AttributeError(name)
        return self.__dict__.setdefault(name, threading.Condition() if name == "_condition" else [])

    def result(self, timeout: float | None = None) -> ExplainResult:
        return self._result

    def exception(self, timeout: float | None = None) -> None:
        return None

    def done(self) -> bool:
        return True

    def _false(self) -> bool:
        return False

    running = cancelled = cancel = _false

    def add_done_callback(self, fn) -> None:
        try:
            fn(self)
        except Exception:
            LOGGER.exception("exception calling callback for %r", self)


#: Root span name for one served request; ``repro-trace`` trees hang off it.
ROOT_SPAN_NAME = "service.explain"


class ExplanationService:
    """Concurrent, cached, batched serving layer over :class:`RagExplainer`."""

    def __init__(
        self,
        system: HTAPSystem,
        router: SmartRouter,
        knowledge_base: KnowledgeBase,
        llm: LLMClient,
        *,
        config: ServiceConfig | None = None,
        prompt_builder: PromptBuilder | None = None,
    ):
        self.config = config = config or ServiceConfig()
        if config.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if config.max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        self.system = system
        self.router = router
        self.knowledge_base = knowledge_base
        self.tenants = TenantRegistry(config.tenants)
        self.llm = llm
        self.explainer = RagExplainer(
            system, router, knowledge_base, llm,
            top_k=config.top_k, prompt_builder=prompt_builder,
        )
        self.metrics = MetricsRegistry()
        # Resolved once (warm eagerly, the rest on first use): no registry lock per request.
        self._latency = MetricFamily(self.metrics.histogram, "latency")
        self._warm_seconds = self._latency["warm_seconds"]
        self._tenant_requests = MetricFamily(self.metrics.counter, "requests.tenant")
        self._rejected = MetricFamily(self.metrics.counter, "requests.rejected")
        self._requests = MetricFamily(self.metrics.counter, "requests")
        self.cache = ServiceCache()
        self.batcher = MicroBatcher(router, metrics=self.metrics)
        self._executor = ThreadPoolExecutor(
            max_workers=config.max_workers, thread_name_prefix="explain"
        )
        self._in_flight = 0
        self._admission_lock = threading.Lock()
        self._closed = False
        # Stale-data hooks: any DDL or knowledge write invalidates caches.
        knowledge_base.add_write_listener(self._on_kb_write)
        system.add_ddl_listener(self._on_ddl)
        #: Embedded admin HTTP server and SLO tracker (None unless
        #: ``admin_port`` is configured).
        self.admin = None
        self.slo = None
        if config.admin_port is not None:
            self._start_admin(config)

    # ------------------------------------------------------------- admin plane
    def _start_admin(self, config: ServiceConfig) -> None:
        # Imported lazily: most deployments never start the admin plane,
        # and repro.obs.server pulls in http.server and ssl, which this
        # hot-path module otherwise does not need.
        from repro.obs.server import AdminServer
        from repro.obs.slo import SLOTracker

        self.slo = SLOTracker()
        self.admin = AdminServer(
            host=config.admin_host,
            port=config.admin_port,
            # The tracer providers re-read get_tracer() per request so the
            # endpoints follow `traced(...)` installs/restores live.
            snapshot_providers=(
                self.metrics_snapshot,
                lambda: get_tracer().stage_snapshot(),
            ),
            health=self.health_report,
            ready=lambda: self.health_report(readiness=True),
            store_provider=lambda: get_tracer().store,
            slo=self.slo,
        )
        self.admin.start()

    def health_report(self, *, readiness: bool = False):
        """Typed liveness (default) or readiness checks for the admin plane.

        Liveness: the service accepts work and its background machinery
        (worker pool, micro-batch scheduler) is running.  Readiness adds
        load-dependent checks — the admission queue has capacity and the
        caches are answering — so an orchestrator can pull a saturated
        instance out of rotation without killing it.
        """
        from repro.obs.health import HealthCheck, HealthReport

        checks = [
            HealthCheck(
                "service_open",
                not self._closed,
                "accepting requests" if not self._closed else "service is shut down",
            ),
            HealthCheck(
                "worker_pool",
                not self._closed,
                f"{self.config.max_workers} workers configured",
            ),
            HealthCheck(
                "batcher",
                self.batcher.alive,
                "scheduler thread running" if self.batcher.alive else "scheduler thread down",
            ),
        ]
        if readiness:
            with self._admission_lock:
                in_flight = self._in_flight
            checks.append(
                HealthCheck(
                    "queue_depth",
                    in_flight < self.config.max_in_flight,
                    f"{in_flight}/{self.config.max_in_flight} in flight",
                )
            )
            cache_stats = self.cache.snapshot()
            checks.append(
                HealthCheck(
                    "caches",
                    True,
                    "; ".join(
                        f"{name}: {int(stats.get('size', 0))} entries"
                        for name, stats in sorted(cache_stats.items())
                    ),
                )
            )
        return HealthReport(checks=tuple(checks))

    # ------------------------------------------------------------- invalidation
    def _on_kb_write(self, event: str, entry_id: str, tenant: str) -> None:
        self.metrics.counter("invalidations.kb_write").increment()
        self.cache.on_kb_write(event, entry_id, tenant)

    def _on_ddl(self, event: str, index_name: str) -> None:
        self.metrics.counter("invalidations.ddl").increment()
        self.cache.on_ddl(event, index_name)
        # DDL can change catalog row counts, so the featurizer's per-relation
        # row-count memo is stale along with the plan cache.
        self.router.featurizer.invalidate_catalog_cache()

    # -------------------------------------------------------------------- DDL
    def create_index(self, table_name: str, column_name: str) -> Index:
        """DDL passthrough; the system's listener hook invalidates caches."""
        return self.system.create_index(table_name, column_name)

    def drop_index(self, index_name: str) -> None:
        self.system.drop_index(index_name)

    # ----------------------------------------------------------------- public
    def submit(
        self,
        sql: str,
        *,
        user_notes: str | None = None,
        deadline_seconds: float | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> "Future[ExplainResult]":
        """Admit one request; returns a future that never raises.

        The L1 explanation cache is consulted synchronously, so warm
        requests cost a dict lookup and never occupy a worker or a queue
        slot.  When the in-flight budget is exhausted the request is shed
        with a ``QUEUE_FULL`` rejection; a tenant over its declared quota
        is shed with ``QUOTA_EXCEEDED``.  A hit or a refusal returns a
        future born finished, builds no :class:`ExplainRequest`, and with
        tracing off builds no span.  Its tenant's counter and, if it is
        answered, a latency histogram count it: :meth:`metrics_snapshot`
        sums those into ``requests.submitted`` and ``requests.ok``.
        """
        submitted_at = time.perf_counter()
        request_id = new_request_id()
        self._tenant_requests[tenant].increment()
        tracer = get_tracer()
        root = NULL_SPAN
        if traced := tracer.enabled:
            root = tracer.span(ROOT_SPAN_NAME, root=True, request_id=request_id, tenant=tenant)
        if self._closed:
            return self._refuse(request_id, root, ServiceErrorCode.SERVICE_CLOSED, "service is shut down")
        if not self.tenants.try_admit(tenant):
            return self._refuse(
                request_id,
                root,
                ServiceErrorCode.QUOTA_EXCEEDED,
                f"tenant {tenant!r} is over its request quota",
            )
        # At most one normalization per request, none for an exact repeat:
        # a miss derives its plan key from the same normalized text.
        normalized, cache_key = request_keys(sql, user_notes, self.explainer.top_k, tenant)
        explanations = self.cache.level(tenant).explanations
        if traced:
            cached = self._l1_lookup(tracer, explanations.get, cache_key, root)
        else:
            cached = explanations.get(cache_key)
        if cached is not None:
            result = self._l1_hit(request_id, submitted_at, cached, root)
            root.end()
            return _FinishedFuture(result)
        with self._admission_lock:
            if self._in_flight >= self.config.max_in_flight:
                return self._refuse(
                    request_id,
                    root,
                    ServiceErrorCode.QUEUE_FULL,
                    f"in-flight limit of {self.config.max_in_flight} reached",
                )
            self._in_flight += 1
        if deadline_seconds is None:
            deadline_seconds = self.config.default_deadline_seconds
        request = ExplainRequest(sql, user_notes, deadline_seconds, tenant, request_id, submitted_at)
        try:
            return self._executor.submit(self._process_guarded, request, normalized, cache_key, root)
        except RuntimeError:
            # shutdown() raced us between the _closed check and the executor
            # submit; release the admission slot and reject like any other
            # post-close request instead of letting the exception escape.
            with self._admission_lock:
                self._in_flight -= 1
            return self._refuse(request_id, root, ServiceErrorCode.SERVICE_CLOSED, "service is shut down")

    def _tag_rejection(self, root: "Span", code: ServiceErrorCode) -> None:
        """Count a refused request once, as ``requests.rejected.<code>``,
        and stamp the reason on its root span, so refused traffic is
        visible both in the metrics exposition and in individual traces."""
        self._rejected[code.value].increment()
        root.set_attributes(status="rejected", rejected_reason=code.value)

    def _refuse(
        self, request_id: str, root: "Span", code: ServiceErrorCode, message: str
    ) -> "Future[ExplainResult]":
        """Reject a request at admission: tag and close its root span."""
        self._tag_rejection(root, code)
        root.end()
        return _FinishedFuture(ExplainResult.rejection(request_id, code, message))

    def _l1_lookup(self, tracer: Tracer, get: Callable, key: str, root: "Span") -> Explanation | None:
        lookup = tracer.span("cache.l1_lookup", parent=root)
        cached = get(key)
        lookup.set_attribute("hit", cached is not None)
        lookup.end()
        return cached

    def _l1_hit(
        self, request_id: str, submitted_at: float, cached: Explanation, root: "Span",
        queue_seconds: float = 0.0,
    ) -> ExplainResult:
        """The result for a request answered from the L1 explanation cache."""
        total = time.perf_counter() - submitted_at
        self._warm_seconds.record(total)
        if root.enabled:
            root.set_attributes(status="ok", cache="l1_hit")
        # Positional, in field order: half the cost of keywords on the hottest path.
        return ExplainResult(request_id, RequestStatus.OK, cached, None, True, False, queue_seconds, total)

    def _cut_short(
        self, request: ExplainRequest, root: "Span", queue_seconds: float,
        code: ServiceErrorCode, message: str,
    ) -> ExplainResult:
        """An admitted request the service stopped working on: counted
        once as a rejection, typed as a failure."""
        self._tag_rejection(root, code)
        return ExplainResult.failure(
            request.request_id,
            code,
            message,
            queue_seconds=queue_seconds,
            total_seconds=time.perf_counter() - request.submitted_at,
        )

    def _deadline_exceeded(
        self, request: ExplainRequest, root: "Span", queue_seconds: float, when: str
    ) -> ExplainResult:
        message = f"deadline of {request.deadline_seconds:.3f}s expired {when}"
        return self._cut_short(request, root, queue_seconds, ServiceErrorCode.DEADLINE_EXCEEDED, message)

    def explain(
        self,
        sql: str,
        *,
        user_notes: str | None = None,
        deadline_seconds: float | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> ExplainResult:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(
            sql, user_notes=user_notes, deadline_seconds=deadline_seconds, tenant=tenant
        ).result()

    # ------------------------------------------------------------------ worker
    def _process_guarded(
        self, request: ExplainRequest, normalized: str, cache_key: str, root: "Span" = NULL_SPAN
    ) -> ExplainResult:
        # Re-enter the root span on this worker thread: it was opened on the
        # submitting thread, and contextvars do not follow work into a pool,
        # so without the attach every stage span below would be orphaned.
        try:
            with get_tracer().attach(root):
                result = self._process(request, normalized, cache_key, root)
        except Exception as exc:  # noqa: BLE001 - typed result, never raise
            self._requests["failed"].increment()
            root.set_attributes(status="failed", error=type(exc).__name__)
            result = ExplainResult.failure(
                request.request_id,
                ServiceErrorCode.INTERNAL_ERROR,
                f"{type(exc).__name__}: {exc}",
                total_seconds=time.perf_counter() - request.submitted_at,
            )
        finally:
            with self._admission_lock:
                self._in_flight -= 1
            root.end()
        return result

    def _process(
        self, request: ExplainRequest, normalized: str, cache_key: str, root: "Span" = NULL_SPAN
    ) -> ExplainResult:
        started = time.perf_counter()
        queue_seconds = started - request.submitted_at
        self._latency["queue_seconds"].record(queue_seconds)
        root.set_attribute("queue_seconds", round(queue_seconds, 6))
        if request.expired(started):
            return self._deadline_exceeded(
                request, root, queue_seconds, f"after {queue_seconds:.3f}s in queue"
            )
        # A twin request may have populated the explanation cache while this
        # one waited for a worker; admission counted the lookup, so only touch.
        tenant = request.tenant
        levels = self.cache.level(tenant)
        tracer = get_tracer()
        cached = self._l1_lookup(tracer, levels.explanations.touch, cache_key, root)
        if cached is not None:
            return self._l1_hit(request.request_id, request.submitted_at, cached, root, queue_seconds)

        plan_cache_key = plan_key(normalized, tenant=tenant)
        # Epochs read *before* computing guard the puts below: if DDL or a KB
        # write invalidates a cache while this request is mid-flight, the
        # stale result must not be re-inserted after the clear.
        plan_epoch = levels.plans.epoch
        explanation_epoch = levels.explanations.epoch
        with tracer.span("cache.l2_lookup") as lookup:
            plan_entry = self.cache.get_plan(plan_cache_key, tenant=tenant)
            lookup.set_attribute("hit", plan_entry is not None)
        encode_seconds = 0.0
        if plan_entry is None:
            try:
                execution = self.system.run_both(request.sql)
            except (LexerError, ParserError) as exc:  # the caller's input, not a fault
                return self._cut_short(request, root, queue_seconds, ServiceErrorCode.INVALID_SQL, str(exc))
            encode_start = time.perf_counter()
            try:
                with tracer.span("pipeline.encode", batched=True):
                    embedding = self.batcher.encode(
                        execution.plan_pair,
                        tenant=tenant,
                        weight=self.tenants.weight(tenant),
                        timeout=request.remaining_seconds(),
                    )
            except FutureTimeout:
                return self._deadline_exceeded(
                    request, root, queue_seconds, "waiting for the encoder"
                )
            except BatcherClosedError:  # shutdown() ran mid-request: not a fault
                message = "service shut down while the request was in flight"
                return self._cut_short(request, root, queue_seconds, ServiceErrorCode.SERVICE_CLOSED, message)
            encode_seconds = time.perf_counter() - encode_start
            # The L2 entry keeps only the QUESTION (the plan pair as EXPLAIN
            # JSON text, and the execution result); the parsed query, plan
            # trees and execution results die with this request.
            question = QuestionAttachment.from_plan_pair(
                execution.plan_pair,
                execution_result=execution_result_text(execution),
                faster_engine=execution.faster_engine,
            )
            self.cache.put_plan(plan_cache_key, question, embedding, epoch=plan_epoch, tenant=tenant)
            plan_cache_hit = False
        else:
            question, embedding = plan_entry
            plan_cache_hit = True
        root.set_attribute("cache.l2_hit", plan_cache_hit)

        if request.expired():
            return self._deadline_exceeded(request, root, queue_seconds, "before generation")

        retrieval = self.explainer.retrieve_stage(embedding, tenant=tenant)
        explanation: Explanation = self.explainer.generate_stage(
            question,
            embedding,
            retrieval,
            encode_seconds=encode_seconds,
            user_notes=request.user_notes,
        )
        levels.explanations.put(cache_key, explanation, epoch=explanation_epoch)
        total = time.perf_counter() - request.submitted_at
        self._latency["cold_seconds"].record(total)
        root.set_attributes(status="ok")
        return ExplainResult(
            request_id=request.request_id,
            status=RequestStatus.OK,
            explanation=explanation,
            plan_cache_hit=plan_cache_hit,
            queue_seconds=queue_seconds,
            total_seconds=total,
        )

    # --------------------------------------------------------------- telemetry
    def metrics_snapshot(self) -> dict[str, object]:
        """One dict with counters, latency summaries, cache and batch stats.

        Two totals lead it, derived from the snapshot's own values rather
        than counted twice: ``requests.submitted`` sums the
        ``requests.tenant.*`` counters, and ``requests.ok`` adds the warm
        and cold latency counts."""
        counted = self.metrics.snapshot()
        cold = counted.get("latency.cold_seconds", {"count": 0})
        payload: dict[str, object] = {
            "requests.submitted": sum(v for k, v in counted.items() if k.startswith("requests.tenant.")),
            "requests.ok": counted["latency.warm_seconds"]["count"] + cold["count"],
            **counted,
        }
        payload["cache"] = self.cache.snapshot()
        payload["batching"] = self.batcher.stats()
        with self._admission_lock:
            payload["in_flight"] = self._in_flight
        payload["max_in_flight"] = self.config.max_in_flight
        return payload

    # ---------------------------------------------------------------- lifecycle
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and tear down the pool and the batcher."""
        self._closed = True
        if self.admin is not None:
            self.admin.stop()
        self._executor.shutdown(wait=wait)
        self.batcher.close()
        # Unhook the invalidation listeners so a discarded service does not
        # keep receiving callbacks from long-lived system objects.
        try:
            self.knowledge_base.remove_write_listener(self._on_kb_write)
        except ValueError:
            pass
        try:
            self.system.remove_ddl_listener(self._on_ddl)
        except ValueError:
            pass

    def __enter__(self) -> "ExplanationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
