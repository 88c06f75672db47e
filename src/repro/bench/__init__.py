"""Experiment harness, strategy runner, and reporting for the bench suite.

Import the submodules directly (``from repro.bench.harness import
ExperimentHarness``, ``from repro.bench.strategies import build_suites``):
the package itself loads nothing, so importing one piece never drags in
the harness, the baselines or the serving layer.
"""
