"""repro-trace rendering, the JSON-lines log, and the CLI subcommands."""

from __future__ import annotations

import json

from repro.obs.cli import breakdown_rows, main, render_trace_tree
from repro.obs.jsonlog import TraceLogWriter, read_traces
from repro.obs.store import TraceStore
from repro.obs.tracing import Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def build_sample_trace(writer=None):
    clock = FakeClock()
    tracer = Tracer(enabled=True, store=TraceStore(), writer=writer, clock=clock)
    root = tracer.span("service.explain", root=True, request_id="req-1")
    with tracer.attach(root):
        with tracer.span("pipeline.encode", batched=True):
            clock.now += 0.004
        with tracer.span("pipeline.retrieve", hits=2):
            clock.now += 0.001
        with tracer.span("pipeline.generate"):
            clock.now += 0.002
    root.end()
    return tracer.store.recent(1)[0]


# ------------------------------------------------------------------- render
def test_render_trace_tree_nests_and_shows_attributes():
    text = render_trace_tree(build_sample_trace().to_dict())
    lines = text.splitlines()
    assert lines[0].startswith("trace t-")
    assert "service.explain" in lines[0]
    # children indented under the root, in start order
    encode_line = next(line for line in lines if "pipeline.encode" in line)
    assert encode_line.strip().startswith(("├─", "└─"))
    assert "batched=True" in encode_line
    assert "4.000 ms" in encode_line
    retrieve_index = next(i for i, l in enumerate(lines) if "pipeline.retrieve" in l)
    generate_index = next(i for i, l in enumerate(lines) if "pipeline.generate" in l)
    assert retrieve_index < generate_index


def test_breakdown_rows_share_sums_to_100():
    rows = breakdown_rows([build_sample_trace().to_dict()])
    stages = {row["stage"] for row in rows}
    assert {"service.explain", "pipeline.encode", "pipeline.retrieve", "pipeline.generate"} <= stages
    total_share = sum(float(row["share"].rstrip("%")) for row in rows)
    assert abs(total_share - 100.0) < 0.5
    encode_row = next(row for row in rows if row["stage"] == "pipeline.encode")
    assert encode_row["count"] == 1
    assert encode_row["p50 ms"] == 4.0


# ------------------------------------------------------------------ jsonlog
def test_writer_roundtrip_and_torn_line_tolerance(tmp_path):
    path = tmp_path / "traces.jsonl"
    writer = TraceLogWriter(path)
    trace = build_sample_trace(writer=None)
    writer.write(trace)
    writer.write(trace)
    writer.close()
    # simulate a torn final line from a crashed process
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"trace_id": "t-torn", "spans": [')
    loaded = list(read_traces(path))
    assert len(loaded) == 2
    assert loaded[0]["name"] == "service.explain"
    assert loaded[0]["span_count"] == 4


def test_tracer_writer_integration(tmp_path):
    path = tmp_path / "live.jsonl"
    writer = TraceLogWriter(path)
    build_sample_trace(writer=writer)
    writer.close()
    loaded = list(read_traces(path))
    assert len(loaded) == 1
    assert {span["name"] for span in loaded[0]["spans"]} == {
        "service.explain",
        "pipeline.encode",
        "pipeline.retrieve",
        "pipeline.generate",
    }


# ---------------------------------------------------------------------- CLI
def _write_log(tmp_path, count: int = 3):
    path = tmp_path / "traces.jsonl"
    writer = TraceLogWriter(path)
    for _ in range(count):
        writer.write(build_sample_trace())
    writer.close()
    return path


def test_cli_show(tmp_path, capsys):
    path = _write_log(tmp_path)
    assert main(["show", str(path), "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("trace t-") == 2
    assert "pipeline.generate" in out


def test_cli_show_slowest_and_trace_id(tmp_path, capsys):
    path = _write_log(tmp_path)
    assert main(["show", str(path), "--slowest"]) == 0
    first_id = json.loads(path.read_text().splitlines()[0])["trace_id"]
    assert main(["show", str(path), "--trace-id", first_id]) == 0
    out = capsys.readouterr().out
    assert first_id in out
    assert main(["show", str(path), "--trace-id", "t-nope"]) == 1


def test_cli_breakdown(tmp_path, capsys):
    path = _write_log(tmp_path)
    assert main(["breakdown", str(path)]) == 0
    out = capsys.readouterr().out
    assert "per-stage latency breakdown" in out
    assert "pipeline.encode" in out
    assert "share" in out


def test_cli_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    missing.write_text("")
    assert main(["show", str(missing)]) == 1


def test_cli_demo_serves_traced_requests(capsys):
    assert main(["demo", "--profile", "quick", "--requests", "2"]) == 0
    out = capsys.readouterr().out
    assert "building harness (profile=quick)" in out
    assert "trace t-" in out
    assert "└─ " in out
    assert "per-stage latency breakdown (2 traced requests)" in out


def test_serve_smoke_requires_the_request_totals(capsys):
    from repro.obs.cli import _smoke
    from repro.obs.health import HealthCheck, HealthReport
    from repro.obs.server import AdminServer
    from repro.obs.slo import SLOTracker

    snapshot = {"requests.tenant.default": 2}
    admin = AdminServer(
        port=0,
        snapshot_providers=(lambda: snapshot,),
        health=lambda: HealthReport(checks=(HealthCheck("alive", True, "up"),)),
        slo=SLOTracker(),
    )
    with admin:
        assert _smoke(admin.url) == 1
        assert "repro_requests_submitted " in capsys.readouterr().err
        snapshot.update({"requests.submitted": 2, "requests.ok": 2})
        assert _smoke(admin.url) == 0


def test_serve_smoke_checks_quantile_order_and_slo_values(capsys):
    from repro.obs.cli import _smoke
    from repro.obs.health import HealthCheck, HealthReport
    from repro.obs.server import AdminServer
    from repro.obs.slo import SLOTracker

    latency_value = [0.0]

    class Tracker(SLOTracker):
        def evaluate(self, snapshot=None):
            evaluation = super().evaluate(snapshot)
            evaluation["objectives"][0]["value"] = latency_value[0]  # request_latency
            return evaluation

    snapshot = {
        "requests.submitted": 1,
        "requests.ok": 1,
        "latency.cold_seconds": {"count": 1, "p50": 0.2, "p95": 0.1, "p99": 0.3},
    }
    admin = AdminServer(
        port=0,
        snapshot_providers=(lambda: snapshot,),
        health=lambda: HealthReport(checks=(HealthCheck("alive", True, "up"),)),
        slo=Tracker(),
    )
    with admin:
        assert _smoke(admin.url) == 1
        assert "repro_latency_cold_seconds quantiles out of order" in capsys.readouterr().err
        snapshot["latency.cold_seconds"] = {"count": 1, "p50": 0.1, "p95": 0.2, "p99": 0.3}
        latency_value[0] = float("nan")
        assert _smoke(admin.url) == 1
        assert "/slo: request_latency values" in capsys.readouterr().err
        latency_value[0] = 0.2
        assert _smoke(admin.url) == 0
