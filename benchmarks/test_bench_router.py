"""E10 — Section III-A smart-router claims.

Paper: the tree-CNN router routes queries to the faster engine with high
accuracy, has a physical model size below 1 MB, and an average inference
time around (well under) 1 ms.

Below the paper's claims sit the regression bounds: five times the medians
of a reference run (reduced harness, 40 queries) for timings, and 25 %
headroom on the model's footprint.  They hold the median of three runs
after a warm-up run, as the reference did.
"""

from benchmarks.conftest import measured_runs, median_of
from repro.bench.reporting import format_percent, format_table


def test_bench_router(benchmark, harness):
    runs = measured_runs(benchmark, harness.router_benchmark, runs=3)
    result = runs[0]
    rows = [
        {"claim": "routing accuracy", "paper": "high", "measured": format_percent(result["routing_accuracy"])},
        {"claim": "model size (bytes)", "paper": "< 1,000,000", "measured": int(result["model_size_bytes"])},
        {"claim": "mean inference (ms)", "paper": "~1", "measured": round(result["mean_inference_ms"], 3)},
        {"claim": "p50 inference (ms)", "paper": "-", "measured": round(result["p50_inference_ms"], 3)},
        {"claim": "p95 inference (ms)", "paper": "-", "measured": round(result["p95_inference_ms"], 3)},
        {"claim": "wall time per query (ms)", "paper": "-", "measured": round(result["wall_ms_per_query"], 3)},
        {"claim": "parameters", "paper": "-", "measured": int(result["parameter_count"])},
    ]
    print()
    print(format_table(rows, title="E10  Smart router (tree-CNN) operational claims"))

    assert result["routing_accuracy"] >= 0.9
    assert result["model_size_bytes"] < 1_000_000
    assert result["mean_inference_ms"] < 5.0

    # Regression bounds (the accuracy bound above is the tighter one).
    assert median_of(run["p50_inference_ms"] for run in runs) <= 0.611
    assert result["model_size_bytes"] <= 134_900
    assert result["parameter_count"] <= 16_862
    assert median_of(run["wall_ms_per_query"] for run in runs) <= 2.25
