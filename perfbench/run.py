"""Benchmark of the nch command-line program.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (each one `nch` subcommand, every call a fresh process):

  comparison  nch run: p-etd1, M=128, tau=0.1, 1000 steps from
              random(0.2, 0.05, seed), diagnostics CSV and 3 snapshots
              written; plus one --scheme=etd1 call per run that must exit 4.
  sweep       nch sweep: p-etdrk2, M=256, sigma 30 and 70 from
              random(0.3, 0.05, seed), 150 steps each on a pool of
              min(2, nproc) workers.
  converge    nch converge --scheme=p-etdrk2: M=128 from sine(a), with
              a in [0.09, 0.11) drawn from the seed, tau 1e-3 ... 2.5e-4
              against a benchmark at tau = 6.25e-5 (460 steps).

With --trace 0 the CLI calls run untraced, back to back, for S seconds (at
least 3 calls), and the end-to-end metrics are medians over the calls.  With
--trace 1 the tracer self-test runs first; then untraced and traced calls
alternate for S seconds and the per-layer metrics are medians over the
traced calls.  Traced sweep calls run inline (NCH_THREADS=1) so that every
span is in one process.  Every call's outputs are checked; a call that
raises, exits with an unexpected code or fails a check counts as failed.

The metrics printed, and their units, are those BENCHMARK.json lists.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give every metric with
its unit, the sample counts and the environment.  Scratch files go to
.perfbench_tmp/ in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from hooks import LOG_ENV, TRACE_ENV
from spans import check_nesting, clock, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_CALLS = 3
# a call running longer is killed and counts as failed; with --seconds up to
# 60 this keeps a run that meets a hung call within 180 s
CALL_TIMEOUT_S = 100.0
BOUND = 1.0 - 0.05  # 1 - delta, computed as the solver computes it
AREA = 1.0


@dataclass
class Call:
    """One CLI process: what it cost and what it did wrong."""

    wall_s: float
    cli_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    step_ms: list[float]
    stepping_s: float
    spans: list | None
    problems: list[str] = field(default_factory=list)


def _union_length(windows: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(windows):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _reap_group(pgid: int) -> None:
    """Kill what is left of a call's session (a hung call, or pool workers of a
    crashed one) and wait until it is gone."""
    deadline = clock() + 10.0
    while clock() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def launch(nch_args: list[str], work: Path, *, traced: bool, threads: int | None,
           expect_code: int = 0) -> Call:
    """Run `nch NCH_ARGS` in a fresh process under the hooks and measure it."""
    log = work / "log"
    log.mkdir(parents=True)
    env = _child_env()
    env[LOG_ENV] = str(log)
    env[TRACE_ENV] = "1" if traced else "0"
    if threads is not None:
        env["NCH_THREADS"] = str(threads)
    with open(work / "stdout", "w") as out, open(work / "stderr", "w") as err:
        launched = clock()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), *nch_args],
            cwd=work, env=env, stdout=out, stderr=err, start_new_session=True,
        )
        watchdog = threading.Timer(CALL_TIMEOUT_S, _reap_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        exited = clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)

    problems = []
    if proc.returncode != expect_code:
        tail = (work / "stderr").read_text().strip().splitlines()[-3:]
        problems.append(f"exit code {proc.returncode}, expected {expect_code}: {tail}")
    marks = [json.loads(p.read_text()) for p in sorted(log.glob("advance-*.json"))]
    marks = [m for m in marks if m]
    child_path = log / "child.json"
    cli_done = json.loads(child_path.read_text())["cli_done"] if child_path.exists() else math.nan
    spans_path = log / "spans.json"
    spans = json.loads(spans_path.read_text()) if spans_path.exists() else None
    if traced:
        if spans is None:
            problems.append("traced call left no spans")
        else:
            problems += check_nesting(spans)
    return Call(
        wall_s=exited - launched,
        cli_s=cli_done - launched,
        setup_s=min((m[0][1] for m in marks), default=math.nan) - launched,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        step_ms=[1e3 * (m[k][0] - m[k - 1][1]) for m in marks for k in range(1, len(m))],
        stepping_s=_union_length([(m[0][1], m[-1][0]) for m in marks if len(m) > 1]),
        spans=spans,
        problems=problems,
    )


# -- workloads ----------------------------------------------------------------


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class Workload:
    """One CLI subcommand with its inputs (made from the seed) and checks."""

    name = ""
    steps = 0  # steps one call makes, across all its runs
    pool_width: int | None = None  # NCH_THREADS of untraced calls

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.config = tmp / f"{self.name}.cfg"
        self.config.write_text(self.config_text())

    def config_text(self) -> str:
        raise NotImplementedError

    def args(self, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, out: Path) -> list[str]:
        raise NotImplementedError

    def once(self, tmp: Path) -> list[Call]:
        """Calls made once per run, for their checks only."""
        return []


class Comparison(Workload):
    name = "comparison"
    steps = 1000
    SNAPSHOTS = (0.0, 50.0, 100.0)

    def config_text(self) -> str:
        return (
            "scheme = p-etd1\nepsilon = 0.02\ntheta = 0.8\ntheta_c = 1.6\n"
            "sigma = 30.0\nkappa = 2.0\ndelta = 0.05\nM = 128\ntau = 0.1\n"
            f"T_final = 100.0\ninitial = random(0.2, 0.05, {self.seed})\n"
            "snapshot_times = 0, 50, 100\n"
        )

    def args(self, out: Path) -> list[str]:
        return ["run", str(self.config), f"--output_dir={out}"]

    def check(self, out: Path) -> list[str]:
        from nch.grid import read_snapshot

        rows = _read_rows(out / "diagnostics.csv")
        problems = []
        if len(rows) != self.steps + 1:
            problems.append(f"diagnostics.csv has {len(rows)} rows, expected {self.steps + 1}")
        worst_sup = max(float(r["sup_norm"]) for r in rows)
        if worst_sup > BOUND:
            problems.append(f"sup_norm {worst_sup!r} above {BOUND!r}")
        drift = max(abs(float(r["mass_increment"])) for r in rows)
        if drift > 1e-11 * AREA:
            problems.append(f"max |mass_increment| {drift:.3e} above 1e-11")
        if any(r["status"] != "ok" for r in rows):
            problems.append("a diagnostics row is not ok")
        for t in self.SNAPSHOTS:
            grid, u, t_read = read_snapshot(out / f"snapshot_t{t:g}.grid")
            if grid.M != 128 or abs(t_read - t) > 1e-9 or float(abs(u).max()) > BOUND:
                problems.append(f"snapshot at t={t:g} is wrong (M={grid.M}, t={t_read})")
        return problems

    def once(self, tmp: Path) -> list[Call]:
        work = Path(tempfile.mkdtemp(dir=tmp))
        args = self.args(work / "out") + ["--scheme=etd1"]
        call = launch(args, work, traced=False, threads=None, expect_code=4)
        shutil.rmtree(work)
        return [call]


class Sweep(Workload):
    name = "sweep"
    SIGMAS = (30.0, 70.0)
    T_FINAL = 15.0
    steps = 2 * 150  # 150 per sigma
    pool_width = min(2, os.cpu_count() or 1)

    def config_text(self) -> str:
        return (
            "scheme = p-etdrk2\nepsilon = 0.02\ntheta = 0.8\ntheta_c = 1.6\n"
            "kappa = 2.0\ndelta = 0.05\nM = 256\ntau = 0.1\n"
            f"T_final = {self.T_FINAL}\ninitial = random(0.3, 0.05, 7)\n"
            "structure_threshold = 0.0\n"
        )

    def args(self, out: Path) -> list[str]:
        sigmas = ",".join(f"{s:g}" for s in self.SIGMAS)
        return ["sweep", str(self.config), f"--sigma-list={sigmas}",
                f"--seed={self.seed}", f"--out={out}"]

    def check(self, out: Path) -> list[str]:
        rows = [r for r in _read_rows(out / "sigma_sweep.csv") if not r["sigma"].startswith("#")]
        problems = []
        if [float(r["sigma"]) for r in rows] != list(self.SIGMAS):
            problems.append(f"sweep rows {rows} do not match sigma {self.SIGMAS}")
        for r in rows:
            if int(r["count"]) <= 0:
                problems.append(f"sigma={r['sigma']}: structure count {r['count']}")
            if float(r["final_time"]) != self.T_FINAL:
                problems.append(f"sigma={r['sigma']}: ended at t={r['final_time']}")
        return problems


class Converge(Workload):
    name = "converge"
    TAUS = (1e-3, 5e-4, 2.5e-4)
    BENCHMARK_TAU = 6.25e-5
    # Step sizes this long are pre-asymptotic: the last rate reads 1.590 +- 0.002
    # over amplitudes 0.09 ... 0.11, and a p-etdrk2 whose midpoint stage is
    # dropped reads 0.65.  Rates in [1.8, 2.2] need tau <= 1e-4 and are the
    # acceptance suite's check.
    RATE_WINDOW = (1.5, 1.7)
    steps = 20 + 40 + 80 + 320

    def config_text(self) -> str:
        return (
            "scheme = p-etdrk2\nepsilon = 0.02\ntheta = 0.8\ntheta_c = 1.6\n"
            "sigma = 30.0\nkappa = 1.0\ndelta = 0.05\nM = 128\nT_final = 0.02\n"
        )

    def args(self, out: Path) -> list[str]:
        amplitude = 0.09 + 0.02 * random.Random(self.seed).random()
        return ["converge", str(self.config), "--scheme=p-etdrk2",
                "--tau-list=" + ",".join(repr(t) for t in self.TAUS),
                f"--benchmark-tau={self.BENCHMARK_TAU!r}",
                f"--amplitude={amplitude!r}", f"--out={out}"]

    def check(self, out: Path) -> list[str]:
        rows = _read_rows(out / "convergence_p-etdrk2.csv")
        errors = [float(r["l2_error"]) for r in rows]
        problems = []
        if len(errors) != len(self.TAUS) or any(b >= a for a, b in zip(errors, errors[1:])):
            problems.append(f"errors do not decrease: {errors}")
        rate = float(rows[-1]["rate"]) if rows and rows[-1]["rate"] else math.nan
        low, high = self.RATE_WINDOW
        if not low <= rate <= high:
            problems.append(f"last rate {rate} outside [{low}, {high}]")
        return problems


WORKLOADS = {w.name: w for w in (Comparison, Sweep, Converge)}


def measure(workload: Workload, tmp: Path, *, traced: bool, threads: int | None) -> Call:
    work = Path(tempfile.mkdtemp(dir=tmp))
    out = work / "out"
    call = launch(workload.args(out), work, traced=traced, threads=threads)
    if not call.problems:
        try:
            call.problems += workload.check(out)
        except (OSError, ValueError, KeyError) as exc:
            call.problems.append(f"outputs unreadable: {exc!r}")
    if not call.problems and len(call.step_ms) != workload.steps:
        call.problems.append(f"{len(call.step_ms)} steps timed, expected {workload.steps}")
    shutil.rmtree(work)
    return call


# -- metrics ------------------------------------------------------------------


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(calls: list[Call]) -> dict[str, float]:
    steps = [s for c in calls for s in c.step_ms]
    return {
        "wall_s": statistics.median(c.wall_s for c in calls),
        "setup_s": statistics.median(c.setup_s for c in calls),
        "steps_per_s": statistics.median(len(c.step_ms) / c.stepping_s for c in calls),
        "step_ms_p50": _percentile(steps, 50),
        "step_ms_p95": _percentile(steps, 95),
        "cpu_s": statistics.median(c.cpu_s for c in calls),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in calls),
    }


def per_layer(traced: list[Call], untraced: list[Call], pooled: list[Call],
              pool_width: int | None) -> dict[str, float]:
    summaries = [summarize(c.spans) for c in traced]
    metrics = {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(c.cli_s for c in traced)
        / statistics.median(c.cli_s for c in untraced) - 1.0
    )
    metrics["experiments.pool.efficiency"] = (
        statistics.median(c.stepping_s for c in untraced)
        / (pool_width * statistics.median(c.wall_s for c in pooled))
        if pooled else 0.0
    )
    return metrics


# -- environment ----------------------------------------------------------------


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(threads: dict[str, int | None], pool_width: int | None) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "nch").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "NCH_THREADS": {k: (v if v is not None else os.environ.get("NCH_THREADS", "unset"))
                        for k, v in threads.items()},
        "pool_width": pool_width,
    }


# -- entry point ------------------------------------------------------------------


def run(workload: Workload, tmp: Path, seconds: float, trace: bool):
    """Make the calls of one run.

    Returns every call made, the metrics (None when no measured call
    succeeded), notes to print, and the NCH_THREADS each kind of call had.
    """
    attempted = workload.once(tmp)
    notes = []
    if not trace:
        measured = []
        start, longest = clock(), 0.0
        while len(measured) < MIN_CALLS or clock() - start + longest <= seconds:
            began = clock()
            measured.append(measure(workload, tmp, traced=False, threads=workload.pool_width))
            longest = max(longest, clock() - began)
        ok = [c for c in measured if not c.problems]
        metrics = end_to_end(ok) if ok else None
        if ok:
            samples = sum(len(c.step_ms) for c in ok)
            notes.append(f"{len(ok)} calls measured, {samples} step samples "
                         f"(step_ms_p95 has {samples // 20} beyond it)")
        return attempted + measured, metrics, notes, {"untraced": workload.pool_width}

    selftest = tmp / "selftest"
    selftest.mkdir()
    done = subprocess.run([sys.executable, str(BENCH / "selftest.py"), str(selftest)],
                          env=_child_env(), capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"tracer self-test failed:\n{done.stderr}")
    notes.append("tracer self-test passed (4 / 8 transforms per p-etd1 / p-etdrk2 step)")

    # traced calls run inline; the pooled untraced calls only feed pool efficiency
    inline = 1 if workload.pool_width else None
    traced, untraced, pooled = [], [], []
    start, longest = clock(), 0.0
    while not traced or clock() - start + longest <= seconds:
        began = clock()
        if workload.pool_width:
            pooled.append(measure(workload, tmp, traced=False, threads=workload.pool_width))
        untraced.append(measure(workload, tmp, traced=False, threads=inline))
        traced.append(measure(workload, tmp, traced=True, threads=inline))
        longest = max(longest, clock() - began)
    calls = attempted + traced + untraced + pooled
    ok = [c for c in traced if not c.problems]
    base = [c for c in untraced if not c.problems]
    ok_pooled = [c for c in pooled if not c.problems]
    metrics = per_layer(ok, base, ok_pooled, workload.pool_width) if ok and base else None
    if metrics is not None:
        notes.append(f"{len(ok)} traced calls, {int(metrics.pop('steps'))} steps each")
    if inline:
        notes.append("traced calls ran the sweep inline (NCH_THREADS=1), so every span "
                     "is in one process; pool efficiency compares them with "
                     f"{len(ok_pooled)} pooled untraced calls on {workload.pool_width} workers")
    return calls, metrics, notes, {"traced": inline, "pooled": workload.pool_width}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nch" / "__init__.py").is_file():
        print(f"perfbench: no nch package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    import nch  # noqa: F401  fails here, not in every call, when the package is broken

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp)
        calls, metrics, notes, threads = run(workload, tmp, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp)
        try:
            scratch.rmdir()
        except OSError:
            pass

    failed = [c for c in calls if c.problems]
    for call in failed:
        print(f"failed call: {'; '.join(call.problems)}")
    if metrics is None:
        print("perfbench: no call succeeded", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(calls)} calls, {len(failed)} failed, "
          f"failed_frac {len(failed) / len(calls):.4f}")
    for note in notes:
        print(note)
    result = {}
    for m in wanted:
        value = metrics[m["name"]]
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']}")
    print("env " + json.dumps(environment(threads, workload.pool_width)))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
