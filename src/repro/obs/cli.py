"""``repro-trace`` — render traces, latency breakdowns, and the admin plane.

Four subcommands:

``repro-trace demo``
    Build the quick experiment harness, serve real requests through a
    traced :class:`~repro.service.server.ExplanationService`, and print
    the slowest request's span tree, the pooled per-stage latency
    breakdown, and (with ``--promtext``) the Prometheus exposition.
    This is the self-contained "is tracing wired end to end" check.

``repro-trace show TRACES.jsonl``
    Pretty-print span trees from a JSON-lines trace log (newest first,
    ``--slowest`` to rank by duration, ``--limit`` to cap the count,
    ``--trace-id`` for one specific trace).

``repro-trace breakdown TRACES.jsonl``
    Aggregate every span in the log into a per-stage table: count,
    p50/p95/max milliseconds, and each stage's share of total traced
    time.

``repro-trace serve``
    Build the quick harness, start a traced
    :class:`~repro.service.server.ExplanationService` with the embedded
    admin HTTP server, pre-serve a few requests, and keep the endpoints
    (``/metrics``, ``/healthz``, ``/readyz``, ``/traces``, ``/slo``) up
    until interrupted.  ``--head-probability`` / ``--slow-threshold-ms``
    configure trace sampling; ``--smoke`` self-scrapes ``/metrics``, ``/slo`` and
    ``/healthz`` once and exits nonzero on a bad or empty response —
    the CI liveness check.

Runs without installation: ``PYTHONPATH=src python -m repro.obs.cli``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.bench.reporting import format_table
from repro.obs.jsonlog import read_traces
from repro.obs.stats import summarize

if TYPE_CHECKING:  # pragma: no cover
    from repro.bench.harness import ExperimentHarness

#: Attributes rendered inline next to each span in the tree.
_MAX_INLINE_ATTRIBUTES = 6


def _format_attributes(attributes: dict[str, Any]) -> str:
    items = list(attributes.items())[:_MAX_INLINE_ATTRIBUTES]
    rendered = " ".join(f"{key}={value}" for key, value in items)
    if len(attributes) > _MAX_INLINE_ATTRIBUTES:
        rendered += " …"
    return rendered


def render_trace_tree(trace: dict[str, Any]) -> str:
    """A nested, box-drawing span tree for one trace dict."""
    spans: list[dict[str, Any]] = list(trace.get("spans", []))
    children: dict[Any, list[dict[str, Any]]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda span: span.get("start_seconds", 0.0))

    lines = [
        f"trace {trace.get('trace_id', '?')} — "
        f"{trace.get('name', '?')} "
        f"({trace.get('duration_seconds', 0.0) * 1000.0:.3f} ms, "
        f"{len(spans)} spans)"
    ]

    def render(span: dict[str, Any], prefix: str, is_last: bool) -> None:
        connector = "└─ " if is_last else "├─ "
        duration_ms = span.get("duration_seconds", 0.0) * 1000.0
        line = f"{prefix}{connector}{span.get('name', '?')} {duration_ms:.3f} ms"
        attributes = span.get("attributes") or {}
        if attributes:
            line += f"  [{_format_attributes(attributes)}]"
        lines.append(line)
        child_prefix = prefix + ("   " if is_last else "│  ")
        kids = children.get(span.get("span_id"), [])
        for index, child in enumerate(kids):
            render(child, child_prefix, index == len(kids) - 1)

    roots = children.get(None, [])
    for index, root in enumerate(roots):
        render(root, "", index == len(roots) - 1)
    return "\n".join(lines)


def breakdown_rows(traces: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Per-stage latency rows pooled over many trace dicts."""
    pooled: dict[str, list[float]] = {}
    for trace in traces:
        for span in trace.get("spans", []):
            pooled.setdefault(span.get("name", "?"), []).append(
                float(span.get("duration_seconds", 0.0))
            )
    total = sum(sum(samples) for samples in pooled.values())
    rows = []
    for name, samples in sorted(pooled.items(), key=lambda item: -sum(item[1])):
        summary = summarize(samples)
        rows.append(
            {
                "stage": name,
                "count": summary["count"],
                "p50 ms": round(summary["p50"] * 1000.0, 3),
                "p95 ms": round(summary["p95"] * 1000.0, 3),
                "max ms": round(summary["max"] * 1000.0, 3),
                "total ms": round(sum(samples) * 1000.0, 3),
                "share": f"{(sum(samples) / total * 100.0) if total else 0.0:.1f}%",
            }
        )
    return rows


#: Harness scales ``demo`` and ``serve`` can build.  ``quick`` is the
#: reduced harness the unit tests use (same code paths, ~seconds to build);
#: ``paper`` is the full experimental scale of the ``benchmarks/`` suite.
PROFILES: dict[str, dict[str, int]] = {
    "quick": {
        "knowledge_base_size": 12,
        "test_size": 40,
        "router_training_size": 60,
        "router_epochs": 8,
    },
    "paper": {},
}


def _build_harness(profile: str) -> "ExperimentHarness":
    from repro.bench.harness import ExperimentHarness

    return ExperimentHarness(**PROFILES[profile])


# --------------------------------------------------------------------- demo
def _demo(args: argparse.Namespace) -> int:
    # Heavy imports stay local so `repro-trace show/breakdown --help` is instant.
    from repro.obs.jsonlog import TraceLogWriter
    from repro.obs.promtext import merged_exposition
    from repro.obs.store import TraceStore
    from repro.obs.tracing import traced
    from repro.service import ExplanationService, ServiceConfig

    print(f"building harness (profile={args.profile}) ...", flush=True)
    harness = _build_harness(args.profile)
    sqls = [labeled.sql for labeled in harness.dataset.test[: max(1, args.requests)]]
    if args.sql:
        sqls = [args.sql]

    writer = TraceLogWriter(args.jsonl) if args.jsonl else None
    store = TraceStore(max_slow=8, max_recent=max(32, len(sqls)))
    with traced(store=store, writer=writer) as tracer:
        service = ExplanationService(
            harness.system,
            harness.router,
            harness.knowledge_base,
            harness.llm,
            config=ServiceConfig(top_k=harness.top_k),
        )
        try:
            for sql in sqls:
                result = service.explain(sql)
                if not result.ok:
                    print(f"request failed: {result.error}", file=sys.stderr)
                    return 1
            snapshot = service.metrics_snapshot()
        finally:
            service.shutdown()
    if writer is not None:
        writer.close()

    traces = store.slowest(1)
    if not traces:
        print("no traces recorded", file=sys.stderr)
        return 1
    print()
    print(render_trace_tree(traces[0].to_dict()))
    print()
    print(
        format_table(
            breakdown_rows(trace.to_dict() for trace in store.traces()),
            title=f"per-stage latency breakdown ({store.stats()['added']} traced requests)",
        )
    )
    if args.jsonl:
        print(f"\ntrace log written to {args.jsonl}")
    if args.promtext:
        print()
        print(merged_exposition(snapshot, tracer.stage_snapshot()), end="")
    return 0


# -------------------------------------------------------------------- serve
def _serve(args: argparse.Namespace) -> int:
    import time

    from repro.obs.sampling import Sampler
    from repro.obs.store import TraceStore
    from repro.obs.tracing import traced
    from repro.service import ExplanationService, ServiceConfig

    print(f"building harness (profile={args.profile}) ...", flush=True)
    harness = _build_harness(args.profile)
    sqls = [labeled.sql for labeled in harness.dataset.test[: max(1, args.requests)]]
    sampler = Sampler(
        head_probability=args.head_probability,
        slow_threshold_seconds=args.slow_threshold_ms / 1000.0,
    )
    store = TraceStore(max_slow=16, max_recent=256)
    with traced(store=store, sampler=sampler):
        service = ExplanationService(
            harness.system,
            harness.router,
            harness.knowledge_base,
            harness.llm,
            config=ServiceConfig(top_k=harness.top_k, admin_port=args.port, admin_host=args.host),
        )
        try:
            admin = service.admin
            assert admin is not None
            print(f"admin endpoints at {admin.url}:")
            for endpoint in ("/metrics", "/healthz", "/readyz", "/traces", "/slo"):
                print(f"  GET {admin.url}{endpoint}")
            print(f"pre-serving {len(sqls)} traced requests ...", flush=True)
            for sql in sqls:
                result = service.explain(sql)
                if not result.ok:
                    print(f"request failed: {result.error}", file=sys.stderr)
                    return 1
            if args.smoke:
                return _smoke(admin.url)
            print("serving until Ctrl-C ...", flush=True)
            try:
                while True:
                    time.sleep(1.0)
            except KeyboardInterrupt:
                print("\nshutting down")
        finally:
            service.shutdown()
    return 0


def _smoke(base_url: str) -> int:
    """One self-scrape of /metrics, /healthz and /slo; nonzero on any problem:
    a bad or empty response, a summary whose quantiles are out of order, or
    a latency objective value that is not finite and >= 0."""
    import json
    import math
    import re
    import urllib.request

    failures = []
    bodies = {"/metrics": "", "/slo": '{"objectives": []}'}
    totals = ("repro_requests_submitted ", "repro_requests_ok ")  # derived by metrics_snapshot
    for path, must_contain in (("/metrics", totals), ("/healthz", ('"ok": true',)), ("/slo", ())):
        try:
            with urllib.request.urlopen(base_url + path, timeout=10) as response:
                status = response.status
                body = response.read().decode("utf-8")
        except OSError as exc:
            failures.append(f"{path}: request failed ({exc})")
            continue
        if status != 200:
            failures.append(f"{path}: HTTP {status}")
        elif not body.strip():
            failures.append(f"{path}: empty response body")
        elif missing := [text for text in must_contain if text not in body]:
            failures.append(f"{path}: response lacks {missing!r}")
        else:
            bodies[path] = body
            print(f"smoke OK: GET {path} -> 200, {len(body)} bytes")
    summary = r'^(\w+)\{quantile="0.5"\} (\S+)\n\1\{quantile="0.95"\} (\S+)\n\1\{quantile="0.99"\} (\S+)$'
    for name, *values in re.findall(summary, bodies["/metrics"], re.M):
        if not float(values[0]) <= float(values[1]) <= float(values[2]):
            failures.append(f"/metrics: {name} quantiles out of order {values}")
    for objective in json.loads(bodies["/slo"])["objectives"]:
        values = [objective["value"], *(window["value"] for window in objective["windows"].values())]
        if objective["kind"] == "latency" and not all(math.isfinite(v) and v >= 0 for v in values):
            failures.append(f"/slo: {objective['name']} values {values} not finite and >= 0")
    if failures:
        for failure in failures:
            print(f"smoke FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------- show
def _load(path: str) -> list[dict[str, Any]]:
    traces = list(read_traces(path))
    if not traces:
        print(f"no traces in {path}", file=sys.stderr)
    return traces


def _show(args: argparse.Namespace) -> int:
    traces = _load(args.file)
    if not traces:
        return 1
    if args.trace_id:
        traces = [trace for trace in traces if trace.get("trace_id") == args.trace_id]
        if not traces:
            print(f"trace {args.trace_id} not found in {args.file}", file=sys.stderr)
            return 1
    elif args.slowest:
        traces.sort(key=lambda trace: -float(trace.get("duration_seconds", 0.0)))
    else:
        traces.reverse()  # newest first
    for trace in traces[: args.limit]:
        print(render_trace_tree(trace))
        print()
    return 0


def _breakdown(args: argparse.Namespace) -> int:
    traces = _load(args.file)
    if not traces:
        return 1
    print(format_table(breakdown_rows(traces), title=f"per-stage latency breakdown ({len(traces)} traces)"))
    return 0


# ---------------------------------------------------------------------- main
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Pretty-print request traces and per-stage latency breakdowns.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="serve traced requests and print the results")
    demo.add_argument("--profile", choices=tuple(PROFILES), default="quick")
    demo.add_argument("--requests", type=int, default=4, help="how many test queries to serve")
    demo.add_argument("--sql", default=None, help="serve this SQL instead of test queries")
    demo.add_argument("--jsonl", default=None, help="also append traces to this JSON-lines file")
    demo.add_argument("--promtext", action="store_true", help="print the Prometheus exposition too")

    show = commands.add_parser("show", help="render span trees from a JSON-lines trace log")
    show.add_argument("file")
    show.add_argument("--trace-id", default=None, help="render one specific trace")
    show.add_argument("--slowest", action="store_true", help="rank by duration instead of recency")
    show.add_argument("--limit", type=int, default=1, help="how many traces to render")

    breakdown = commands.add_parser("breakdown", help="per-stage latency table from a trace log")
    breakdown.add_argument("file")

    serve = commands.add_parser(
        "serve", help="run a traced service with the admin HTTP endpoints"
    )
    serve.add_argument("--profile", choices=tuple(PROFILES), default="quick")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, help="0 binds an ephemeral port")
    serve.add_argument("--requests", type=int, default=8, help="requests pre-served at startup")
    serve.add_argument(
        "--head-probability",
        type=float,
        default=1.0,
        help="head-sampling keep probability (tail rules still retain slow/rejected/error traces)",
    )
    serve.add_argument(
        "--slow-threshold-ms",
        type=float,
        default=50.0,
        help="tail-keep traces with root latency at or above this",
    )
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="self-scrape /metrics, /healthz and /slo once, then exit (CI smoke)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "demo":
        return _demo(args)
    if args.command == "show":
        return _show(args)
    if args.command == "serve":
        return _serve(args)
    return _breakdown(args)


if __name__ == "__main__":
    sys.exit(main())
