"""Shared percentile and summary math for every reported latency number.

One convention, used everywhere a percentile is reported — the serving-layer
histograms (:mod:`repro.obs.metrics`), the harness experiments
(:mod:`repro.bench.harness`) and the ``repro-trace breakdown`` table
(:mod:`repro.obs.cli`) — so a p95 in one report can be compared against a
p95 in another without wondering which interpolation each used.

The convention is *nearest-rank*: for ``n`` sorted samples the quantile
``f`` maps to index ``round(f * n) - 1`` clamped into ``[0, n - 1]``.  No
interpolation, so every value :func:`percentile` reports is a sample that
occurred.  The serving histograms' all-time quantiles are the upper bound of
the bucket holding that sample, clamped to the exact min and max: at most
one bucket (about 19 %) above it."""

from __future__ import annotations

from typing import Iterable, Sequence

#: The quantiles every summary exports, in export order.
SUMMARY_QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


def percentile_index(size: int, fraction: float) -> int:
    """Nearest-rank index for quantile ``fraction`` over ``size`` samples."""
    if size < 1:
        raise ValueError("size must be at least 1")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    return max(0, min(size - 1, int(round(fraction * size)) - 1))


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 < fraction <= 1).

    Returns 0.0 for an empty sequence so callers reporting on idle
    histograms do not need a special case.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[percentile_index(len(ordered), fraction)]


def summarize(samples: Iterable[float]) -> dict[str, float]:
    """Count, sum, mean, min/max, and the standard quantiles of ``samples``.

    This is the shape ``repro-trace breakdown`` tabulates and, with bucket
    quantiles and cumulative ``buckets`` counts,
    :meth:`repro.obs.metrics.LatencyHistogram.summary` returns.  ``sum`` is
    exported so scrapers (the Prometheus exposition in
    :mod:`repro.obs.promtext`) can derive rates from consecutive
    ``sum``/``count`` pairs.
    """
    ordered = sorted(samples)
    if not ordered:
        return {
            "count": 0,
            "sum": 0.0,
            "mean": 0.0,
            "min": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
            "max": 0.0,
        }
    size = len(ordered)
    total = sum(ordered)
    summary: dict[str, float] = {
        "count": size,
        "sum": total,
        "mean": total / size,
        "min": ordered[0],
    }
    for name, fraction in SUMMARY_QUANTILES:
        summary[name] = ordered[percentile_index(size, fraction)]
    summary["max"] = ordered[-1]
    return summary
