"""The benchmark's hooks must still see the solver.

perfbench/selftest.py traces a few steps of p-etd1 and p-etdrk2 on a 16 x 16
mesh through the hooks the benchmark installs by rebinding module names.  A
change that calls the traced functions through references the hooks cannot
rebind, or that renames them, fails here instead of in a benchmark run.  The
step clock is checked the same way on tiny calls of every CLI path that
steps.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
BENCH_PATH = os.pathsep.join([str(REPO / "src"), str(REPO / "perfbench")])


def test_perfbench_selftest_passes(tmp_path):
    env = {**os.environ, "PYTHONPATH": BENCH_PATH}
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "selftest.py"), str(tmp_path)],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


SWEEP = ["sweep", "--M=16", "--tau=0.1", "--T_final=0.5", "--sigma-list=5,20",
         "--initial=random(0.3, 0.05, 0)", "--out=."]
CONVERGE = ["converge", "--M=16", "--T_final=0.02", "--tau-list=2e-3,1e-3", "--benchmark-tau=5e-4",
            "--out=."]


@pytest.mark.parametrize(
    "threads, args, runs, steps",
    [
        ("1", ["run", "c.cfg", "--output_dir=out"], 1, 10),
        ("1", CONVERGE, 3, 40 + 10 + 20),
        ("1", SWEEP, 2, 2 * 5),
        ("2", SWEEP, 2, 2 * 5),
        # the forked child's step-size runs are stamped too
        ("2", CONVERGE, 3, 40 + 10 + 20),
    ],
)
def test_step_clock_counts_every_cli_step(tmp_path, threads, args, runs, steps):
    # the stamps of every advance call, summed as perfbench/run.py sums them
    # before it checks a call's step count
    (tmp_path / "c.cfg").write_text("M = 16\ntau = 0.1\nT_final = 1\n")
    log = tmp_path / "log"
    log.mkdir()
    env = {**os.environ, "PYTHONPATH": BENCH_PATH, "PERFBENCH_LOG": str(log)}
    env.update(NCH_THREADS=threads, PERFBENCH_TRACE="0")
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "child.py"), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    marks = [json.loads(p.read_text()) for p in sorted(log.glob("advance-*.json"))]
    assert len(marks) == runs
    assert sum(len(m) - 1 for m in marks if m) == steps
