"""E11 — Knowledge-base growth (Section VI-B note + HNSW citation).

The paper argues that although the 20-entry knowledge base searches in well
under 0.1 ms, search will not become the dominant cost as the KB grows,
citing HNSW-style vector indexing.  This ablation measures search latency
for growing KB sizes with the flat (exact) store and the HNSW store.

Below the paper's claims sit the regression bounds: five times the medians
of a reference run (reduced harness), for each store's search at 20, 200
and 1000 entries and for one pass that builds and searches those stores.
They hold the faster of two passes, as the reference did.
"""

import time

from benchmarks.conftest import measured_runs, median_of
from repro.bench.reporting import format_table

#: Per-query search bounds in ms, by (store, KB size).
SEARCH_MS_BOUNDS = {
    ("flat", 20): 0.101,
    ("flat", 200): 0.190,
    ("flat", 1000): 0.652,
    ("hnsw", 20): 0.594,
    ("hnsw", 200): 1.74,
    ("hnsw", 1000): 2.50,
}
BOUNDED_SIZES = (20, 200, 1000)
#: Building and searching both stores at every bounded size.
PASS_SECONDS_BOUND = 7.30


def _bounded_pass(harness):
    start = time.perf_counter()
    rows = harness.kb_scaling(sizes=BOUNDED_SIZES)
    return rows, time.perf_counter() - start


def test_bench_kb_scaling(benchmark, harness):
    passes = measured_runs(benchmark, _bounded_pass, harness, runs=2, warmup_runs=0)
    rows = passes[0][0] + harness.kb_scaling(sizes=(5000,))
    pass_seconds = median_of(seconds for _, seconds in passes)
    print()
    print(
        format_table(
            [row.as_dict() for row in rows],
            title="E11  KB search latency vs size (top-2 retrieval, ms per query)",
        )
    )
    print(f"build + search pass at sizes {BOUNDED_SIZES}: {pass_seconds:.2f} s")

    by_store = {}
    for row in rows:
        by_store.setdefault(row.store, {})[row.kb_size] = row.search_ms
    # At the paper's 20 entries, either store answers in well under a millisecond.
    assert by_store["flat"][20] < 1.0
    assert by_store["hnsw"][20] < 2.0
    largest = max(by_store["flat"])
    # Even at the largest size, retrieval stays far below the ~10 s LLM
    # generation time, so it never dominates the response time.
    assert by_store["flat"][largest] < 100.0
    assert by_store["hnsw"][largest] < 100.0

    for (store, size), bound in SEARCH_MS_BOUNDS.items():
        search_ms = median_of(
            row.search_ms
            for pass_rows, _ in passes
            for row in pass_rows
            if (row.store, row.kb_size) == (store, size)
        )
        assert search_ms <= bound, (store, size)
    assert pass_seconds <= PASS_SECONDS_BOUND
