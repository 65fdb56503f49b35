"""The benchmark's own tests pass against the current engine.

perfbench/ wraps engine functions by name (its tracer) and rebuilds round
grids the way the engine does (measure.effective_steps), so an engine
refactor can break the benchmark without failing any test here. The
package's import footprint is guarded too, because the benchmark reports
peak memory.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize alone adds about a quarter to a small run's peak memory
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fairselect; print('scipy.optimize' in sys.modules)"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == "False"
