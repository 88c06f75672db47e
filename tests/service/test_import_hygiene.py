"""Importing the serving layer must not load the admin plane or the bench harness,
and the tracer must not load the serving layer."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

#: Modules a serving process only needs when it starts the admin plane or
#: runs the experiment harness; importing the service must not load them.
HEAVY_MODULES = (
    "asyncio",
    "http.server",
    "repro.obs.server",
    "repro.bench",
    "repro.bench.harness",
    "repro.baselines",
)


def _modules_after(statement: str) -> set[str]:
    """Every module loaded after running ``statement`` in a new interpreter."""
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    code = f"import sys\n{statement}\nprint(' '.join(sys.modules))\n"
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return set(completed.stdout.split())


def test_service_import_leaves_admin_and_bench_modules_unloaded():
    loaded = _modules_after("import repro.service.server")
    assert [name for name in HEAVY_MODULES if name in loaded] == []


def test_tracer_does_not_load_the_service():
    # Any repro.service submodule loads the package first.
    assert "repro.service" not in _modules_after("from repro.obs.tracing import get_tracer\nget_tracer()")


def test_lazy_exports_still_resolve():
    from repro.obs import AdminServer
    from repro.obs.server import AdminServer as direct

    assert AdminServer is direct
