"""Span/Tracer — monotonic-clock request tracing with context propagation.

The design goals, in priority order:

1. **Zero cost when disabled.**  Every instrumentation point in the
   request path calls ``get_tracer().span(...)``; with tracing off (the
   default) that is one attribute check returning a shared no-op
   :data:`NULL_SPAN`, so the serving hot path pays nothing measurable.
2. **Spans survive thread hops.**  The current span lives in a
   :mod:`contextvars` ``ContextVar``.  Synchronous nesting propagates
   automatically; the two places the serving layer crosses threads — the
   worker pool and the micro-batching scheduler — re-parent explicitly:
   the pool worker re-enters the root span with :meth:`Tracer.attach`,
   and the batcher captures :meth:`Tracer.current_span` at submit time
   and replays it through :meth:`Tracer.record_span` at flush time.
3. **Child-only instrumentation.**  Library spans (router, knowledge
   base, LLM, caches) only record when a trace is already open — a bare
   ``router.route()`` call outside a served request does not spawn a
   one-span trace.  Roots are explicit: the service opens one per
   request with ``root=True``.

On every span finish the tracer also feeds a per-stage latency histogram
(``stage.<name>``) in its own :class:`MetricsRegistry`, which is what the
Prometheus exposition (:mod:`repro.obs.promtext`) and
``repro-trace breakdown`` read.

The root span carries its trace: a recorded root builds its :class:`Trace`
when it starts, and every child reaches it through :attr:`Span.trace` and
lands in it when it ends, up to :data:`MAX_SPANS_PER_TRACE` children.  The
root lands last, always, and closes the trace; a child ending later is
timed but not kept.  ``tracer.traces`` is the store's count of traces.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.metrics import MetricFamily, MetricsRegistry
from repro.obs.store import Trace, TraceStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.sampling import Sampler

#: Child spans one trace buffers; later children are dropped and counted
#: as ``tracer.spans_dropped``.
MAX_SPANS_PER_TRACE = 512

#: The active span for the calling execution context (thread / task).
_CURRENT: "ContextVar[Span | None]" = ContextVar("repro_obs_current_span", default=None)

_TRACE_IDS = itertools.count(1)
_SPAN_IDS = itertools.count(1)


class Span:
    """One timed operation inside a trace.

    Usable as a context manager (enters the context-propagation slot so
    nested ``tracer.span(...)`` calls parent under it) or manually via
    :meth:`end` when the span crosses threads (the service's root span).
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_seconds",
        "end_seconds",
        "attributes",
        "trace",
        "_tracer",
        "_token",
    )

    #: Real spans record; :data:`NULL_SPAN` overrides this with ``False``.
    enabled = True

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        start_seconds: float,
        attributes: dict[str, Any],
        trace: Trace | None = None,
    ):
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_seconds = start_seconds
        self.end_seconds: float | None = None
        self.attributes = attributes
        #: The trace this span lands in until its root closes it; ``None``
        #: on a head-dropped root, which keeps timing itself (the stage
        #: histogram and tail-keep rules need the duration) but spawns no
        #: child spans.
        self.trace = trace
        self._token = None

    # ----------------------------------------------------------- properties
    @property
    def recording(self) -> bool:
        """Whether the span's trace records (its children are kept)."""
        return self.trace is not None

    @property
    def duration_seconds(self) -> float:
        """Wall-clock duration; 0.0 while the span is still open."""
        if self.end_seconds is None:
            return 0.0
        return self.end_seconds - self.start_seconds

    # ------------------------------------------------------------ recording
    def set_attribute(self, key: str, value: Any) -> "Span":
        self.attributes[key] = value
        return self

    def set_attributes(self, **attributes: Any) -> "Span":
        self.attributes.update(attributes)
        return self

    def end(self) -> None:
        """Finish the span (idempotent); roots finalize their trace."""
        self._tracer._finish(self)

    # ------------------------------------------------------ context manager
    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if exc_type is not None and "error" not in self.attributes:
            self.attributes["error"] = exc_type.__name__
        self.end()

    # --------------------------------------------------------------- export
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_seconds": self.start_seconds,
            "duration_seconds": self.duration_seconds,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id})"


class _NullSpan:
    """Shared no-op span returned whenever tracing must not record."""

    __slots__ = ()

    enabled = False
    recording = False
    trace = None
    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    start_seconds = 0.0
    end_seconds = 0.0
    duration_seconds = 0.0

    @property
    def attributes(self) -> dict[str, Any]:
        return {}

    def set_attribute(self, key: str, value: Any) -> "_NullSpan":
        return self

    def set_attributes(self, **attributes: Any) -> "_NullSpan":
        return self

    def end(self) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def to_dict(self) -> dict[str, Any]:
        return {}

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()

#: What a landed span points at once its root has closed the trace: nothing
#: more lands, and a stored trace holds its spans without a reference cycle,
#: so it is freed by reference counting when the store lets it go.
_CLOSED_TRACE = Trace("", NULL_SPAN, closed=True)


class _Attached:
    """Context manager installing a span as the current one (thread hop)."""

    __slots__ = ("_span", "_token")

    def __init__(self, span: Span):
        self._span = span
        self._token = None

    def __enter__(self) -> Span:
        self._token = _CURRENT.set(self._span)
        return self._span

    def __exit__(self, *exc_info: Any) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None


class _NullAttached:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_ATTACHED = _NullAttached()


class Tracer:
    """Creates spans, lands finished traces, feeds stage histograms.

    A disabled tracer (the process-global default) hands out
    :data:`NULL_SPAN` for everything.  An enabled tracer gives each
    recorded root span its :class:`Trace`, which the root's children fill
    as they end; when the root finishes, the trace goes to the
    :class:`TraceStore` and, if configured, the JSON-lines writer.  With a
    sampler, a head-dropped root carries no trace, and its finish either
    keeps it alone by a tail rule or drops it.
    """

    def __init__(
        self,
        *,
        enabled: bool = False,
        store: TraceStore | None = None,
        writer: Any = None,
        metrics: MetricsRegistry | None = None,
        sampler: "Sampler | None" = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self._enabled = enabled
        self.store = store if store is not None else TraceStore()
        #: Anything with ``write(trace)`` — normally a TraceLogWriter.
        self.writer = writer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: ``None`` means "record every trace" (the pre-sampling behaviour).
        self.sampler = sampler
        self._clock = clock
        #: Guards every trace's ``spans`` and ``closed``.
        self._lock = threading.Lock()
        #: ``stage.<name>`` histogram per span name, resolved on first finish.
        self._stages = MetricFamily(self.metrics.histogram, "stage")
        self._counters = MetricFamily(self.metrics.counter, "tracer")

    # ----------------------------------------------------------- lifecycle
    @property
    def enabled(self) -> bool:
        return self._enabled

    # -------------------------------------------------------------- spans
    def span(self, name: str, *, parent: "Span | None" = None, root: bool = False, **attributes: Any):
        """Start a span: use it as a context manager, or :meth:`Span.end` it.

        Without ``root=True`` this is *child-only*: if there is no parent
        (explicit or ambient), nothing is recorded — instrumented library
        code cannot accidentally open a new trace.
        """
        if not self._enabled:
            return NULL_SPAN
        if not root:
            parent_span = parent if parent is not None else _CURRENT.get()
            # No parent, the null span, or a head-dropped (undecided) root:
            # no trace to land in.  An undecided trace dies at root-finish
            # or is tail-kept root-only, so its children would be waste.
            trace = parent_span.trace if parent_span is not None else None
            if trace is None:
                return NULL_SPAN
            return Span(
                self, name, parent_span.trace_id, f"s-{next(_SPAN_IDS):08d}",
                parent_span.span_id, self._clock(), attributes, trace,
            )
        now = self._clock()
        trace_id = f"t-{next(_TRACE_IDS):08d}"
        span = Span(self, name, trace_id, f"s-{next(_SPAN_IDS):08d}", None, now, attributes)
        # Head decision, once per trace, on the request id when the caller
        # supplied one (deterministic across processes) or the trace id.
        key = attributes.get("request_id")
        if self.sampler is None or self.sampler.sample_head(str(key) if key is not None else trace_id):
            span.trace = Trace(trace_id, span)
        return span

    def record_span(
        self,
        name: str,
        *,
        parent: "Span | None",
        start_seconds: float,
        end_seconds: float,
        **attributes: Any,
    ):
        """Record an already-timed span (used by the micro-batch flush,
        where the work ran on the scheduler thread against a parent that
        was captured on the submitting thread)."""
        trace = parent.trace if parent is not None else None
        if not self._enabled or trace is None:
            return NULL_SPAN
        span = Span(
            self, name, parent.trace_id, f"s-{next(_SPAN_IDS):08d}",
            parent.span_id, start_seconds, dict(attributes), trace,
        )
        self._finish(span, end_seconds=end_seconds)
        return span

    # -------------------------------------------------------- propagation
    def current_span(self):
        """The ambient span for this execution context (or the null span)."""
        span = _CURRENT.get()
        return span if span is not None else NULL_SPAN

    def attach(self, span: "Span | None"):
        """Install ``span`` as the ambient parent on *this* thread.

        The serving worker pool uses this to re-parent everything it does
        under the root span that was opened on the submitting thread.
        """
        if span is None or not span.enabled:
            return _NULL_ATTACHED
        return _Attached(span)

    # ----------------------------------------------------------- internals
    def _finish(self, span: Span, *, end_seconds: float | None = None) -> None:
        if span.end_seconds is not None:  # idempotent
            return
        span.end_seconds = end = self._clock() if end_seconds is None else end_seconds
        self._stages[span.name].record(end - span.start_seconds)
        trace = span.trace
        if span.parent_id is not None:
            with self._lock:
                if trace.closed:
                    return  # ended after its root: timed, not kept
                if len(trace.spans) < MAX_SPANS_PER_TRACE:
                    trace.spans.append(span)
                    return
            self._counters["spans_dropped"].increment()
            return
        sampler = self.sampler
        if trace is not None:
            # The root finishes last and always lands, whatever the cap
            # dropped: the trace hangs off it.
            with self._lock:
                trace.spans.append(span)
                trace.closed = True
            for landed in trace.spans:
                landed.trace = _CLOSED_TRACE
            if sampler is not None:
                span.attributes.setdefault("sampled", "head")
                sampler.record_kept("head")
        else:
            # Head-dropped: a tail rule (slow / rejected / error) keeps the
            # root alone as a partial trace, or only the sampler's
            # ``dropped`` counter remembers it.
            reason = sampler.tail_keep_reason(span)
            if reason is None:
                sampler.record_dropped()
                return
            span.attributes.setdefault("sampled", f"tail_{reason}")
            span.attributes.setdefault("sampled_partial", True)
            sampler.record_kept(reason)
            trace = Trace(span.trace_id, span, [span])
        self.store.add(trace)
        if self.writer is not None:
            self.writer.write(trace)

    # --------------------------------------------------------------- export
    def stage_snapshot(self) -> dict[str, object]:
        """Per-stage histograms, tracer counters, retention and sampling stats.

        Everything a scraper needs from the tracing side in one dict:
        the ``stage.*`` histograms, the ``tracer.*`` counters (always
        present, even at zero, so dashboards can rely on them;
        ``tracer.traces`` is the store's count of traces added, the same
        fact as ``store.traces_seen``), the :class:`TraceStore` retention
        stats as ``store.*`` (sizes are floats so they render as gauges,
        not counters), and the sampler's kept/dropped accounting under
        ``sampler.*``.
        """
        payload = self.metrics.snapshot()
        stats = self.store.stats()
        payload["tracer.traces"] = stats["added"]
        payload.setdefault("tracer.spans_dropped", 0)
        payload["store"] = {
            "traces_seen": stats["added"],
            "traces_retained": float(stats["retained"]),
            "slow_heap_size": float(stats["slow_retained"]),
            "recent_ring_size": float(stats["recent_retained"]),
            "slow_heap_capacity": float(stats["max_slow"]),
            "recent_ring_capacity": float(stats["max_recent"]),
        }
        if self.sampler is not None:
            payload["sampler"] = self.sampler.snapshot()
        return payload


# ---------------------------------------------------------------- process-global
_GLOBAL_TRACER = Tracer(enabled=False)
_GLOBAL_LOCK = threading.Lock()


def get_tracer() -> Tracer:
    """The process-global tracer every instrumentation point reads."""
    return _GLOBAL_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-global one; returns the previous."""
    global _GLOBAL_TRACER
    with _GLOBAL_LOCK:
        previous, _GLOBAL_TRACER = _GLOBAL_TRACER, tracer
    return previous


class _TracingSession:
    """Context manager from :func:`traced`: installs, then restores."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        self._previous = set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *exc_info: Any) -> None:
        if self._previous is not None:
            set_tracer(self._previous)
            self._previous = None


def traced(tracer: Tracer | None = None, **tracer_kwargs: Any) -> _TracingSession:
    """Temporarily install an **enabled** tracer as the process-global one.

    ``with traced() as tracer: ...`` is the one-liner the examples, the
    ``obs_overhead`` bench suite, and the tests use; keyword arguments
    are forwarded to :class:`Tracer` when no instance is given.
    """
    if tracer is None:
        tracer = Tracer(enabled=True, **tracer_kwargs)
    return _TracingSession(tracer)
