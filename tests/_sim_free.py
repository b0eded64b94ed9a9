"""The sim-free import check shared by the CLI entry points that must
never load the simulator.

:func:`assert_sim_free` runs ``python -m repro ARGV`` in a fresh
interpreter through ``runpy`` and then asserts that none of
:data:`FORBIDDEN_MODULES` entered that interpreter's ``sys.modules``.
Only the process that ran the CLI is checked: the workers a pooled run
spawns are processes of their own, and they import the simulator to run
their replicas.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The simulation stack.  A package name covers all of its submodules,
#: because importing a submodule loads its package first.
FORBIDDEN_MODULES = (
    "repro.components",
    "repro.tta",
    "repro.diagnosis",
    "repro.presets",
    "repro.faults.injector",
    "repro.sim.engine",
    "repro.core.ona",
)

_SCRIPT = """\
import runpy, sys
sys.argv = ['repro', *{argv!r}]
try:
    runpy.run_module('repro.__main__', run_name='__main__')
except SystemExit as exc:
    assert exc.code in (0, None), f'exit {{exc.code}}'
loaded = sorted(m for m in sys.modules if m in {forbidden!r})
assert not loaded, f'simulator imported by the CLI process: {{loaded}}'
print('SIM-FREE-OK')
"""


def assert_sim_free(argv: list[str]) -> str:
    """Run the CLI on ``argv`` in a fresh interpreter, assert it exits 0
    without importing the simulator, and return its stdout."""
    script = _SCRIPT.format(argv=list(argv), forbidden=FORBIDDEN_MODULES)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "SIM-FREE-OK" in proc.stdout
    return proc.stdout
