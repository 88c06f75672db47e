"""repro.obs — metrics, tracing, sampling, retention, exposition, and the admin plane.

The observability layer for the serving system: counters and latency
histograms (:mod:`repro.obs.metrics`), request-scoped
:class:`Span` trees with monotonic-clock timing and ``contextvars``
propagation (:mod:`repro.obs.tracing`), head+tail trace sampling
(:mod:`repro.obs.sampling`), bounded slow-trace retention
(:mod:`repro.obs.store`), a JSON-lines trace log
(:mod:`repro.obs.jsonlog`), a Prometheus-style text exposition
(:mod:`repro.obs.promtext`), typed health checks
(:mod:`repro.obs.health`), SLO burn-rate tracking (:mod:`repro.obs.slo`),
an embeddable ``http.server`` admin plane (:mod:`repro.obs.server`), and
the ``repro-trace`` CLI (:mod:`repro.obs.cli`).

Tracing is **off by default** and free when off; enable it for a scope
with::

    from repro.obs import Sampler, traced

    with traced(sampler=Sampler(head_probability=0.01,
                                slow_threshold_seconds=0.2)) as tracer:
        service.explain(sql)
    print(tracer.store.slowest(1)[0].span_names())
"""

from repro.obs.health import HealthCheck, HealthReport
from repro.obs.jsonlog import TraceLogWriter, read_traces
from repro.obs.promtext import (
    escape_label_value,
    merged_exposition,
    metric_name,
    render_prometheus,
)
from repro.obs.sampling import Sampler
from repro.obs.slo import (
    ErrorRateObjective,
    LatencyObjective,
    SLOTracker,
    default_service_objectives,
)
from repro.obs.store import Trace, TraceStore
from repro.obs.tracing import (
    NULL_SPAN,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    traced,
)


def __getattr__(name: str):
    # The admin server pulls in http.server and ssl; load it on first use so
    # that importing the tracing API (which every serving module does)
    # stays cheap for deployments that never start the admin plane.
    if name == "AdminServer":
        from repro.obs.server import AdminServer

        return AdminServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "NULL_SPAN",
    "AdminServer",
    "ErrorRateObjective",
    "HealthCheck",
    "HealthReport",
    "LatencyObjective",
    "SLOTracker",
    "Sampler",
    "Span",
    "Trace",
    "TraceLogWriter",
    "TraceStore",
    "Tracer",
    "default_service_objectives",
    "escape_label_value",
    "get_tracer",
    "merged_exposition",
    "metric_name",
    "read_traces",
    "render_prometheus",
    "set_tracer",
    "traced",
]
