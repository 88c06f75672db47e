"""Prometheus text exposition of metrics snapshots."""

from __future__ import annotations

from repro.obs.promtext import (
    METRIC_LINE,
    escape_label_value,
    merged_exposition,
    metric_name,
    render_prometheus,
    render_sample,
)
from repro.obs.metrics import MetricsRegistry


def test_metric_name_sanitization():
    assert metric_name("requests.ok") == "repro_requests_ok"
    assert metric_name("latency.p95-ms") == "repro_latency_p95_ms"
    assert metric_name("stage.kb.search") == "repro_stage_kb_search"


def test_counter_and_gauge_rendering():
    text = render_prometheus({"requests.ok": 7, "hit_rate": 0.25})
    assert "# TYPE repro_requests_ok counter" in text
    assert "repro_requests_ok 7" in text
    assert "# TYPE repro_hit_rate gauge" in text
    assert "repro_hit_rate 0.25" in text


def test_summary_rendering_with_quantiles_count_and_sum():
    registry = MetricsRegistry()
    histogram = registry.histogram("latency.cold_seconds")
    for value in (0.1, 0.2, 0.3, 0.4):
        histogram.record(value)
    text = render_prometheus(registry.snapshot())
    assert "# TYPE repro_latency_cold_seconds summary" in text
    assert 'repro_latency_cold_seconds{quantile="0.5"} 0.2' in text
    assert 'repro_latency_cold_seconds{quantile="0.95"} 0.4' in text
    assert 'repro_latency_cold_seconds{quantile="0.99"} 0.4' in text
    assert "repro_latency_cold_seconds_count 4" in text
    assert "repro_latency_cold_seconds_sum 1.0" in text
    assert "repro_latency_cold_seconds_min 0.1" in text
    assert "repro_latency_cold_seconds_max 0.4" in text
    assert "repro_latency_cold_seconds_mean 0.25" in text


def test_nested_dicts_flatten_and_strings_are_skipped():
    snapshot = {
        "cache": {"explanations": {"hit_rate": 0.5, "size": 3, "name": "lru"}},
        "status": "ok",
    }
    text = render_prometheus(snapshot)
    assert "repro_cache_explanations_hit_rate 0.5" in text
    assert "repro_cache_explanations_size 3" in text
    assert "lru" not in text
    assert "status" not in text


def test_booleans_are_not_counters():
    text = render_prometheus({"enabled": True})
    assert "repro_enabled" not in text


def test_merged_exposition_later_snapshot_wins():
    text = merged_exposition({"requests": 1, "only_a": 2}, {"requests": 5})
    assert "repro_requests 5" in text
    assert "repro_only_a 2" in text
    assert "repro_requests 1" not in text


def test_exposition_ends_with_newline():
    assert render_prometheus({"x": 1}).endswith("\n")


# ------------------------------------------------------------ label escaping
def test_escape_label_value_per_spec():
    assert escape_label_value('say "hi"') == 'say \\"hi\\"'
    assert escape_label_value("back\\slash") == "back\\\\slash"
    assert escape_label_value("line\nbreak") == "line\\nbreak"
    assert escape_label_value("plain") == "plain"
    assert escape_label_value(42) == "42"


def test_render_sample_with_labels():
    assert render_sample("repro_x", {"quantile": "0.5"}, 0.25) == 'repro_x{quantile="0.5"} 0.25'
    assert render_sample("repro_x", None, 3) == "repro_x 3"
    line = render_sample("repro_x", {"sql": 'SELECT "a"\nFROM t\\u'}, 1.0)
    assert line == 'repro_x{sql="SELECT \\"a\\"\\nFROM t\\\\u"} 1.0'
    assert METRIC_LINE.match(line)


def test_metric_name_never_empty():
    assert metric_name("") == "repro"
    assert metric_name("...") == "repro____"


# --------------------------------------------------------- format conformance
def test_metric_line_grammar():
    good = [
        "# TYPE repro_requests_ok counter",
        "# TYPE repro_hit_rate gauge",
        "# TYPE repro_latency summary",
        "repro_requests_ok 7",
        "repro_hit_rate 0.25",
        'repro_latency{quantile="0.99"} 1e-06',
        'repro_x{a="1",b="two"} -3.5',
        "repro_up +Inf",
        "repro_gap NaN",
    ]
    for line in good:
        assert METRIC_LINE.match(line), line
    bad = [
        "",
        "# HELP repro_x something",  # we never emit HELP; reject it here
        "repro x 1",  # space in name
        "repro_x",  # no value
        'repro_x{a=unquoted} 1',
        "9leading 1",
    ]
    for line in bad:
        assert not METRIC_LINE.match(line), line


def test_realistic_merged_exposition_is_fully_conformant():
    """Every line of a service-shaped merged page matches the grammar."""
    registry = MetricsRegistry()
    registry.counter("requests.ok").increment(12)
    histogram = registry.histogram("stage.service.explain")
    for value in (0.001, 0.02, 0.3):
        histogram.record(value)
    tracer_side = {
        "tracer.traces": 3,
        "sampler": {"kept": 2, "dropped": 1, "sampled_ratio": 2 / 3},
        "store": {"traces_seen": 3, "recent_ring_size": 3.0},
    }
    slo_side = {"slo": {"availability": {"met": 1.0, "burn_rate_60s": 0.5}}}
    text = merged_exposition(registry.snapshot(), tracer_side, slo_side)
    lines = text.splitlines()
    assert lines  # non-empty page
    for line in lines:
        assert METRIC_LINE.match(line), f"nonconforming line: {line!r}"
