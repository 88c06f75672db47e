"""Experiment harness and table formatting for the ``benchmarks/`` suite.

Import the submodules directly (``from repro.bench.harness import
ExperimentHarness``, ``from repro.bench.reporting import format_table``):
the package itself loads nothing, so importing the formatter never drags
in the harness, the baselines or the serving layer.
"""
