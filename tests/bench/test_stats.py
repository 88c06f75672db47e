"""The shared percentile convention — one set of semantics everywhere."""

from __future__ import annotations

import pytest

from repro.obs.stats import percentile, percentile_index, summarize
from repro.obs.metrics import LatencyHistogram


def test_percentile_nearest_rank():
    samples = [value / 100.0 for value in range(1, 101)]
    assert percentile(samples, 0.50) == 0.50
    assert percentile(samples, 0.95) == 0.95
    assert percentile(samples, 0.99) == 0.99
    assert percentile(samples, 1.0) == 1.0


def test_percentile_unsorted_and_presorted_agree():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(samples, 0.5) == percentile(sorted(samples), 0.5)
    assert percentile(samples, 1.0) == 5.0


def test_percentile_empty_and_validation():
    assert percentile([], 0.5) == 0.0
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)
    with pytest.raises(ValueError):
        percentile_index(0, 0.5)


def test_summarize_shape_and_values():
    summary = summarize([3.0, 1.0, 2.0])
    assert summary == {
        "count": 3,
        "sum": 6.0,
        "mean": 2.0,
        "min": 1.0,
        "p50": 2.0,
        "p95": 3.0,
        "p99": 3.0,
        "max": 3.0,
    }
    empty = summarize([])
    assert empty["count"] == 0
    assert empty["sum"] == 0.0


def test_histogram_agrees_with_shared_convention():
    """A p95 from the serving histograms equals stats.percentile on the
    same samples — the property the router-benchmark fix relies on."""
    samples = [value / 10.0 for value in range(1, 38)]
    histogram = LatencyHistogram()
    for sample in samples:
        histogram.record(sample)
    for fraction in (0.5, 0.95, 0.99):
        assert histogram.percentile(fraction) == percentile(samples, fraction)
    summary = histogram.summary()
    reference = summarize(samples)
    for key in ("p50", "p95", "p99", "max"):
        assert summary[key] == reference[key]
