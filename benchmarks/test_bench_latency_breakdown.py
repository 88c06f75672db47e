"""E7 — Section VI-B end-to-end response-time breakdown.

Paper: smart-router encoding < 0.1 ms (reported as ~1 ms inference budget in
III-A), knowledge-base search < 0.1 ms at 20 entries, LLM thinking <= 2 s,
LLM generation ~= 10 s; retrieval is near-instantaneous relative to
generation.

Below the paper's claims sit the regression bounds: five times the medians
of a reference run (reduced harness, 24 queries), so a stage that gets an
order of magnitude slower fails tier-1.  They hold the median of three runs
after a warm-up run, as the reference did.
"""

from benchmarks.conftest import measured_runs, median_of
from repro.bench.reporting import format_table


def test_bench_latency_breakdown(benchmark, harness):
    runs = measured_runs(benchmark, harness.latency_breakdown, runs=3)
    breakdown = runs[0]
    rows = [
        {"component": "smart-router encoding (ms)", "paper": "< 1", "measured": round(breakdown["encode_ms"], 3)},
        {"component": "KB search, 20 entries (ms)", "paper": "< 0.1", "measured": round(breakdown["search_ms"], 3)},
        {"component": "LLM thinking (s)", "paper": "<= 2", "measured": round(breakdown["llm_thinking_s"], 2)},
        {"component": "LLM generation (s)", "paper": "~ 10", "measured": round(breakdown["llm_generation_s"], 2)},
        {"component": "total (s)", "paper": "~ 12", "measured": round(breakdown["total_s"], 2)},
        {"component": "wall per explanation (ms)", "paper": "-",
         "measured": round(breakdown["wall_ms_per_explanation"], 3)},
    ]
    print()
    print(format_table(rows, title=f"E7  End-to-end latency breakdown ({breakdown['samples']} queries)"))

    assert breakdown["encode_ms"] < 5.0
    assert breakdown["search_ms"] < 1.0
    assert breakdown["llm_thinking_s"] <= 2.5
    assert 5.0 <= breakdown["llm_generation_s"] <= 20.0
    # Retrieval (encode + search) is negligible next to generation.
    retrieval_seconds = (breakdown["encode_ms"] + breakdown["search_ms"]) / 1000.0
    assert retrieval_seconds < 0.01 * breakdown["llm_generation_s"]

    # Regression bounds.  The modeled LLM medians reuse the paper bounds,
    # which are tighter than 5x their reference (7.51 s and 43.7 s).
    def median(key: str) -> float:
        return median_of(run[key] for run in runs)

    assert median("encode_p50_ms") <= 2.05
    assert median("search_p50_ms") <= 0.389
    assert median("llm_thinking_p50_s") <= 2.5
    assert median("llm_generation_p50_s") <= 20.0
    assert median("total_p50_s") <= 51.3
    assert median("wall_ms_per_explanation") <= 5.7
