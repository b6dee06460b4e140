"""Minor page faults and wall time per solver step, in fresh nch processes.

    python3 tests/step_faults.py

Runs the three shapes of the benchmark workloads against the package in
this checkout's src/, each as its own fresh process that runs the nch CLI:

  comparison  nch run, p-etd1, M=128, tau=0.1, 1000 steps, with energy,
              diagnostics CSV and 3 snapshots
  sweep       nch sweep, p-etdrk2, M=256, sigma 30 and 70, 150 steps each,
              inline (NCH_THREADS=1) so that every step is in one process
  converge    nch converge, p-etdrk2, M=128 from sine(0.1), 460 steps

The child wraps nch.stepper.advance under every name an nch module holds
it by, and reads resource.getrusage and the clock at each step's on_step
callback.  For each shape it prints the minor page faults per step (all
faults between the first and the last callback of every advance call,
over the steps they span) and the median ms per step.  A fresh process
matters: glibc adapts its mmap threshold inside a process, so a second
run in the same process reads fewer faults than a user's first.
Not collected by pytest (no test_ prefix); takes about 4 s on 2 cores.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MODEL = "epsilon = 0.02\ntheta = 0.8\ntheta_c = 1.6\ndelta = 0.05\n"
# (label, config text, nch arguments after the config path, NCH_THREADS)
SHAPES = (
    (
        "comparison",
        MODEL + "scheme = p-etd1\nsigma = 30.0\nkappa = 2.0\nM = 128\ntau = 0.1\n"
        "T_final = 100.0\ninitial = random(0.2, 0.05, 1)\nsnapshot_times = 0, 50, 100\n",
        ["run", "--output_dir=out"],
        None,
    ),
    (
        "sweep",
        MODEL + "scheme = p-etdrk2\nkappa = 2.0\nM = 256\ntau = 0.1\nT_final = 15.0\n"
        "initial = random(0.3, 0.05, 7)\n",
        ["sweep", "--sigma-list=30,70", "--out=out"],
        "1",
    ),
    (
        "converge",
        MODEL + "scheme = p-etdrk2\nsigma = 30.0\nkappa = 1.0\nM = 128\nT_final = 0.02\n",
        ["converge", "--scheme=p-etdrk2", "--tau-list=1e-3,5e-4,2.5e-4",
         "--benchmark-tau=6.25e-5", "--amplitude=0.1", "--out=out"],
        None,
    ),
)


def child(argv: list[str]) -> None:
    """Run one nch CLI call with every advance call stamped per step and
    print one JSON object: total steps, faults over them, step times."""
    import nch.cli
    import nch.stepper

    original = nch.stepper.advance
    calls: list[list[tuple[int, float]]] = []

    def advance(*args, on_step=None, **kwargs):
        marks: list[tuple[int, float]] = []
        calls.append(marks)

        def stamp(state, diag):
            if on_step is not None:
                on_step(state, diag)
            marks.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()))

        return original(*args, on_step=stamp, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nch" and getattr(module, "advance", None) is original:
            setattr(module, "advance", advance)
    code = nch.cli.main(argv)
    steps = sum(len(m) - 1 for m in calls)
    faults = sum(m[-1][0] - m[0][0] for m in calls)
    step_s = [b[1] - a[1] for m in calls for a, b in zip(m, m[1:])]
    print(json.dumps({"code": code, "steps": steps, "faults": faults, "step_s": step_s}))


def measure(label: str, config: str, args: list[str], threads: str | None, workdir: Path) -> dict:
    cwd = workdir / label
    cwd.mkdir()
    (cwd / "shape.cfg").write_text(config)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if threads is not None:
        env["NCH_THREADS"] = threads
    command, *flags = args
    done = subprocess.run(
        [sys.executable, __file__, "--child", command, "shape.cfg", *flags],
        cwd=cwd, env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2:])
        sys.exit(0)
    print(f"{'shape':<12}{'steps':>7}{'faults/step':>13}{'ms/step (median)':>18}")
    with tempfile.TemporaryDirectory() as tmp:
        for label, config, args, threads in SHAPES:
            got = measure(label, config, args, threads, Path(tmp))
            if got["code"] != 0:
                sys.exit(f"{label}: nch exited {got['code']}")
            per_step = got["faults"] / got["steps"]
            ms = 1e3 * statistics.median(got["step_s"])
            print(f"{label:<12}{got['steps']:>7}{per_step:>13.1f}{ms:>18.3f}")
