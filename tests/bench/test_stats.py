"""The shared percentile convention — one set of semantics everywhere."""

from __future__ import annotations

from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.stats import percentile, percentile_index, summarize
from repro.obs.metrics import BUCKET_BOUNDS, LatencyHistogram


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


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=300.0, allow_nan=False) | st.sampled_from([1.0, 2.0, 4.0, 16.0]),
        min_size=1,
        max_size=300,
    )
)
def test_histogram_agrees_with_shared_convention(samples):
    """Every p50/p95/p99 the serving histograms export lies in the bucket
    of stats.percentile on the same samples (at most one bucket, about
    19 %, above it) and inside the exact [min, max]."""
    histogram = LatencyHistogram()
    for sample in samples:
        histogram.record(sample)
    summary = histogram.summary()
    reference = summarize(samples)
    for key in ("count", "min", "max"):
        assert summary[key] == reference[key]
    for key in ("p50", "p95", "p99"):
        assert summary["min"] <= summary[key] <= summary["max"]
        assert bisect_left(BUCKET_BOUNDS, summary[key]) == bisect_left(BUCKET_BOUNDS, reference[key])
        assert reference[key] <= summary[key]
