"""The benchmark's hooks must still see the solver.

perfbench/selftest.py traces a few steps of p-etd1 and p-etdrk2 on a 16 x 16
mesh through the hooks the benchmark installs by rebinding module names.  A
change that calls the traced functions through references the hooks cannot
rebind, or that renames them, fails here instead of in a benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes(tmp_path):
    path = os.pathsep.join([str(REPO / "src"), str(REPO / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "selftest.py"), str(tmp_path)],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
