"""The benchmark's own tests pass against the current engine.

perfbench/ wraps engine functions by name (its tracer) and rebuilds round
grids the way the engine does (measure.effective_steps), so an engine
refactor can break the benchmark without failing any test here.
"""

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
