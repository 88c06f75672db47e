"""Prometheus-style text exposition of metrics snapshots.

Renders the plain-dict contract of
:meth:`repro.obs.metrics.MetricsRegistry.snapshot` (and the service's
richer :meth:`~repro.service.server.ExplanationService.metrics_snapshot`,
and the tracer's per-stage histograms) into the Prometheus text format
version 0.0.4 — the format every scraper, ``curl`` invocation, and
``promtool check metrics`` understands:

* integer scalars become ``counter`` samples (every scalar the registry
  exports is a monotonically increasing count);
* float scalars become ``gauge`` samples;
* histogram summaries (dicts carrying ``count`` and ``p50``) become
  ``summary`` families — ``{quantile="0.5"}`` samples plus ``_count`` and
  ``_sum`` — with ``min``/``max``/``mean`` exported as sibling gauges;
* nested dicts flatten into underscore-joined metric names under the
  ``repro`` namespace
  (``cache.explanations.hit_rate`` → ``repro_cache_explanations_hit_rate``).

There is no HTTP server here on purpose: the exposition is a pure
function of a snapshot, so it can be dumped to a file, served by any web
layer, or asserted on in tests.
"""

from __future__ import annotations

import re
from typing import Any, Mapping

#: Quantile-label mapping for the summary keys the registry exports.
_QUANTILE_KEYS = (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99"))

#: Summary keys re-exported as sibling gauges rather than quantiles.
_SIDE_GAUGES = ("min", "max", "mean")

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

#: Grammar of one exposition line, per the text format 0.0.4 spec —
#: either a ``# TYPE`` comment or a sample with optional labels and a
#: float/int/±Inf/NaN value.  Exported so conformance tests (and any
#: embedding web layer) can validate every emitted line.
METRIC_LINE = re.compile(
    r"^(?:"
    r"# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (?:counter|gauge|summary|histogram|untyped)"
    r"|"
    r'[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*")*\})?'
    r" (?:[+-]?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|Inf)|NaN)"
    r")$"
)


def metric_name(*parts: str) -> str:
    """Join snapshot path parts into a valid ``repro_…`` Prometheus metric name."""
    joined = "_".join(part for part in ("repro", *parts) if part)
    return _INVALID_CHARS.sub("_", joined.replace(".", "_"))


def escape_label_value(value: Any) -> str:
    """Escape a label value per the text format 0.0.4 spec.

    Backslash, double-quote, and newline are the three characters the
    spec requires escaping inside a quoted label value; everything else
    passes through verbatim.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def render_sample(name: str, labels: "Mapping[str, Any] | None", value: float) -> str:
    """One sample line: ``name{label="escaped value",...} value``."""
    if labels:
        rendered = ",".join(
            f'{_INVALID_CHARS.sub("_", str(key))}="{escape_label_value(label_value)}"'
            for key, label_value in labels.items()
        )
        return f"{name}{{{rendered}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _is_summary(value: Mapping[str, Any]) -> bool:
    return "count" in value and "p50" in value


def _render_summary(name: str, summary: Mapping[str, Any], lines: list[str]) -> None:
    lines.append(f"# TYPE {name} summary")
    for key, quantile in _QUANTILE_KEYS:
        if key in summary:
            lines.append(render_sample(name, {"quantile": quantile}, summary[key]))
    lines.append(f"{name}_count {_format_value(summary.get('count', 0))}")
    if "sum" in summary:
        lines.append(f"{name}_sum {_format_value(summary['sum'])}")
    for key in _SIDE_GAUGES:
        if key in summary:
            side = f"{name}_{key}"
            lines.append(f"# TYPE {side} gauge")
            lines.append(f"{side} {_format_value(summary[key])}")


def _render(prefix: tuple[str, ...], value: Any, lines: list[str]) -> None:
    if isinstance(value, Mapping):
        if _is_summary(value):
            _render_summary(metric_name(*prefix), value, lines)
            return
        for key in sorted(value):
            _render(prefix + (str(key),), value[key], lines)
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return  # non-numeric leaves (labels, strings) are not exposable
    name = metric_name(*prefix)
    kind = "gauge" if isinstance(value, float) else "counter"
    lines.append(f"# TYPE {name} {kind}")
    lines.append(f"{name} {_format_value(value)}")


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """The Prometheus text exposition of one metrics snapshot."""
    lines: list[str] = []
    _render((), snapshot, lines)
    return "\n".join(lines) + "\n"


def merged_exposition(*snapshots: Mapping[str, Any]) -> str:
    """Render several snapshots (service metrics + tracer stages) as one page.

    Later snapshots win on key collisions, mirroring ``dict.update``.
    """
    merged: dict[str, Any] = {}
    for snapshot in snapshots:
        merged.update(snapshot)
    return render_prometheus(merged)
