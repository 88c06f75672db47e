"""Experiment harness, strategy runner, and reporting for the bench suite.

The names below are loaded on first attribute access rather than at
package import: the serving layer's metrics import :mod:`repro.bench.stats`,
and an eager re-export would drag the harness, the baselines and the
explainer into every serving process.  :mod:`repro.bench.strategies` and
:mod:`repro.bench.cli` import :mod:`repro.service` and are not re-exported
at all — import them directly (``from repro.bench.strategies import
build_suites``) so the dependency graph stays acyclic.
"""

from importlib import import_module

_EXPORTS = {
    "repro.bench.stats": ("percentile", "percentile_index", "summarize"),
    "repro.bench.reporting": ("format_table", "format_percent"),
    "repro.bench.harness": (
        "ExperimentHarness",
        "KBScalingRow",
        "get_default_harness",
        "EXAMPLE1_SQL",
    ),
    "repro.bench.runner": (
        "ExperimentConfig",
        "ExperimentContext",
        "ExperimentStrategy",
        "RunResult",
        "StrategyReport",
        "StrategyRunner",
    ),
    "repro.bench.export": (
        "SCHEMA_VERSION",
        "BenchSchemaError",
        "bench_filename",
        "bench_path",
        "load_bench",
        "report_to_payload",
        "validate_payload",
        "write_bench",
    ),
    "repro.bench.compare": (
        "ComparisonReport",
        "Direction",
        "MetricVerdict",
        "Tolerance",
        "Verdict",
        "compare_directories",
        "compare_payloads",
        "tolerance_for",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(module), name)
