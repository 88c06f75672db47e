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
``repro-trace breakdown`` read.  Each trace keeps at most
:data:`MAX_SPANS_PER_TRACE` child spans; its root always lands.
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
        "recording",
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
        recording: bool = True,
    ):
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_seconds = start_seconds
        self.end_seconds: float | None = None
        self.attributes = attributes
        #: Per-trace sampling bit: a head-dropped root keeps timing itself
        #: (the stage histogram and tail-keep rules need the duration) but
        #: spawns no child spans, so an unsampled trace costs near-zero
        #: beyond its root.
        self.recording = recording
        self._token = None

    # ----------------------------------------------------------- properties
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
    """Creates spans, assembles finished traces, feeds stage histograms.

    A disabled tracer (the process-global default) hands out
    :data:`NULL_SPAN` for everything.  An enabled tracer keeps the spans
    of each live trace in a bounded per-trace buffer; when the root span
    finishes, the whole trace goes to the :class:`TraceStore` and, if
    configured, the JSON-lines writer.
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
        self._lock = threading.Lock()
        self._live: dict[str, list[Span]] = {}
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
        if root:
            parent_span: Span | None = None
        else:
            parent_span = parent if parent is not None else _CURRENT.get()
            if parent_span is not None and not parent_span.enabled:
                parent_span = None
            if parent_span is None:
                return NULL_SPAN
            # Children of a head-dropped (undecided) trace are suppressed:
            # the trace either dies at root-finish or is tail-kept as a
            # partial (root-only) trace, so recording them would be waste.
            if not parent_span.recording:
                return NULL_SPAN
        now = self._clock()
        recording = True
        if parent_span is None:
            trace_id = f"t-{next(_TRACE_IDS):08d}"
            parent_id = None
            if self.sampler is not None:
                # Head decision, once per trace, on the request id when the
                # caller supplied one (deterministic across processes) or
                # the trace id otherwise.
                key = attributes.get("request_id")
                recording = self.sampler.sample_head(str(key) if key is not None else trace_id)
            if recording:
                with self._lock:
                    self._live[trace_id] = []
        else:
            trace_id = parent_span.trace_id
            parent_id = parent_span.span_id
        return Span(
            self,
            name,
            trace_id,
            f"s-{next(_SPAN_IDS):08d}",
            parent_id,
            now,
            attributes,
            recording,
        )

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
        if not self._enabled or parent is None or not parent.enabled or not parent.recording:
            return NULL_SPAN
        span = Span(
            self,
            name,
            parent.trace_id,
            f"s-{next(_SPAN_IDS):08d}",
            parent.span_id,
            start_seconds,
            dict(attributes),
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
        if span.parent_id is None and not span.recording:
            self._finish_undecided_root(span)
            return
        completed: list[Span] | None = None
        with self._lock:
            buffer = self._live.get(span.trace_id)
            if buffer is not None:
                if span.parent_id is None:
                    # The root finishes last and always lands, whatever
                    # the cap dropped: the trace hangs off it.
                    buffer.append(span)
                    completed = self._live.pop(span.trace_id)
                elif len(buffer) < MAX_SPANS_PER_TRACE:
                    buffer.append(span)
                else:
                    self._counters["spans_dropped"].increment()
        if completed is not None:
            if self.sampler is not None:
                span.attributes.setdefault("sampled", "head")
                self.sampler.record_kept("head")
            trace = Trace(trace_id=span.trace_id, root=span, spans=completed)
            self._counters["traces"].increment()
            self.store.add(trace)
            if self.writer is not None:
                self.writer.write(trace)

    def _finish_undecided_root(self, span: Span) -> None:
        """Tail decision for a head-dropped trace, at root-finish.

        The undecided trace was buffered as just its root span; the tail
        rules may still retain it (slow / rejected / error) as a partial
        trace, otherwise the whole trace vanishes and only the sampler's
        ``dropped`` counter remembers it.
        """
        sampler = self.sampler
        reason = sampler.tail_keep_reason(span) if sampler is not None else None
        if reason is None:
            if sampler is not None:
                sampler.record_dropped()
            return
        span.attributes.setdefault("sampled", f"tail_{reason}")
        span.attributes.setdefault("sampled_partial", True)
        trace = Trace(trace_id=span.trace_id, root=span, spans=[span])
        self._counters["traces"].increment()
        sampler.record_kept(reason)
        self.store.add(trace)
        if self.writer is not None:
            self.writer.write(trace)

    # --------------------------------------------------------------- export
    def stage_snapshot(self) -> dict[str, object]:
        """Per-stage histograms, tracer counters, retention and sampling stats.

        Everything a scraper needs from the tracing side in one dict:
        the ``stage.*`` histograms, the ``tracer.*`` counters (always
        present, even at zero, so dashboards can rely on them), the
        :class:`TraceStore` retention stats as ``store.*`` (sizes are
        floats so they render as gauges, not counters), and the sampler's
        kept/dropped accounting under ``sampler.*``.
        """
        payload = self.metrics.snapshot()
        payload.setdefault("tracer.traces", 0)
        payload.setdefault("tracer.spans_dropped", 0)
        stats = self.store.stats()
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
