"""Importing the serving layer must not load the admin plane or the bench harness."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

#: Modules a serving process only needs when it starts the admin plane or
#: runs the experiment harness; importing the service must not load them.
HEAVY_MODULES = ("asyncio", "repro.obs.server", "repro.bench", "repro.bench.harness", "repro.baselines")


def test_service_import_leaves_admin_and_bench_modules_unloaded():
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    code = (
        "import sys, repro.service.server\n"
        f"print(' '.join(name for name in {HEAVY_MODULES!r} if name in sys.modules))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert completed.stdout.split() == []


def test_lazy_exports_still_resolve():
    from repro.obs import AdminServer
    from repro.obs.server import AdminServer as direct

    assert AdminServer is direct
