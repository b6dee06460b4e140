"""Experiment harness: temporal convergence tables, structure counting and
the nonlocal-strength sweep.

Each experiment takes the run's SimulationConfig and reads the model
parameters, `scheme`, `T_final` and `initial` from it (the sweep also
`structure_threshold`); a study needs a sine(...) initial, a sweep random(...).

The runs of a study or a sweep are independent.  With NCH_THREADS > 1 a
sweep distributes them over a process pool, and a study makes its first run
(the reference, when it makes one) in the calling process while one forked
child makes the others; otherwise they execute inline in order.  Either way
the results and the error raised are those of the inline order.
"""

from __future__ import annotations

import csv
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .config import SimulationConfig, step_count
from .errors import BlowupError, SolverError
from .grid import Grid
from .stepper import StepState, advance, initial_field

Array = np.ndarray


def thread_budget() -> int:
    """Data-parallel width cap from NCH_THREADS; defaults to the CPU count."""
    raw = os.environ.get("NCH_THREADS", "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            value = 0
        if value < 1:
            raise ValueError(f"NCH_THREADS must be a positive integer, got {raw!r}")
        return value
    return os.cpu_count() or 1


def _final_state(config: SimulationConfig, run: str) -> StepState:
    """The state at config.T_final of config.scheme from config.initial;
    errors name the run ("tau=...")."""
    scheme = config.scheme
    u0 = initial_field(config)
    n_steps = step_count(config.T_final, config.tau)
    try:
        state, _, status = advance(u0, config, scheme, n_steps)
    except SolverError as exc:
        # same type and attributes, so it still crosses a process pool
        exc.args = (f"{scheme} run at {run}: {exc}", *exc.args[1:])
        raise
    if status != "ok":
        raise BlowupError(f"{scheme} run at {run} ended with status {status}")
    return state


def _require_initial(config: SimulationConfig, form: str, command: str) -> None:
    """Refuse an initial field of another kind than form, e.g. "sine(amplitude)"."""
    if config.initial.kind != form.split("(", 1)[0]:
        raise ValueError(f"initial must be {form} for {command}, got {config.initial.render()}")


#: the scheme of every convergence study's fine-step reference solution
BENCHMARK_SCHEME = "p-etdrk2"


@dataclass(frozen=True)
class ConvergenceRow:
    tau: float
    l2_error: float
    rate: float | None


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors against a fine-step benchmark; rate_k = log2(e_{k-1}/e_k)."""

    scheme: str
    rows: tuple[ConvergenceRow, ...]
    benchmark_tau: float
    M: int
    T_final: float

    @property
    def rates(self) -> list[float]:
        return [r.rate for r in self.rows if r.rate is not None]


def check_step_sizes(tau_list: list[float], benchmark_tau: float, T_final: float) -> None:
    """Refuse step sizes that are not strictly decreasing to above
    benchmark_tau or not a whole number of steps to T_final."""
    if any(b >= a for a, b in zip(tau_list, tau_list[1:])):
        raise ValueError(f"tau values must be strictly decreasing, got {tau_list}")
    if benchmark_tau >= min(tau_list):
        raise ValueError(
            f"benchmark tau {benchmark_tau} must be below min(tau_list) = {min(tau_list)}"
        )
    for tau in (benchmark_tau, *tau_list):
        step_count(T_final, tau)


def _benchmark(config: SimulationConfig, benchmark_tau: float) -> SimulationConfig:
    return replace(config, scheme=BENCHMARK_SCHEME, tau=benchmark_tau)


def _final_field(config: SimulationConfig) -> Array:
    return _final_state(config, f"tau={config.tau:g}").u


def reference_field(config: SimulationConfig, benchmark_tau: float) -> Array:
    """The fine-step benchmark solution of a convergence study: the field of
    a BENCHMARK_SCHEME run at benchmark_tau from config.initial, which must
    be sine(amplitude), to config.T_final.  config.scheme and config.tau are
    not read."""
    _require_initial(config, "sine(amplitude)", "converge")
    return _final_field(_benchmark(config, benchmark_tau))


def convergence_study(
    config: SimulationConfig,
    tau_list: list[float],
    benchmark_tau: float,
    reference: Array | None = None,
) -> ConvergenceReport:
    """Temporal convergence of config.scheme against a fine-step benchmark.

    Each step size in tau_list runs from config.initial, which must be
    sine(amplitude), to config.T_final on the same mesh, so the reported
    errors are purely temporal; config.tau is not read.  reference is the
    reference_field of the same config and benchmark_tau, which any number
    of schemes can share; without one the study makes it, as its first run.

    The step sizes are checked before any run.  With NCH_THREADS > 1 (and
    no other thread in this process, which a fork could leave holding a
    lock) the first run is made here while one forked child makes the
    others; the report, and the error raised when a run fails, are those
    of making the runs in order here: the reference's first, then the
    first failing step size's.
    """
    _require_initial(config, "sine(amplitude)", "converge")
    check_step_sizes(tau_list, benchmark_tau, config.T_final)
    runs = [replace(config, tau=tau) for tau in tau_list]
    if reference is None:
        runs.insert(0, _benchmark(config, benchmark_tau))
    if thread_budget() > 1 and len(runs) > 1 and threading.active_count() == 1:
        fields = _overlapped(runs)
    else:
        fields = [_final_field(run) for run in runs]
    if reference is None:
        reference, *fields = fields
    rows: list[ConvergenceRow] = []
    previous_error = None
    for tau, u in zip(tau_list, fields):
        error = config.norm2(u - reference)
        rate = None
        if previous_error is not None and error > 0:
            rate = math.log2(previous_error / error)
        rows.append(ConvergenceRow(tau=tau, l2_error=error, rate=rate))
        previous_error = error
    return ConvergenceReport(
        scheme=config.scheme,
        rows=tuple(rows),
        benchmark_tau=benchmark_tau,
        M=config.M,
        T_final=config.T_final,
    )


def _overlapped(runs: list[SimulationConfig]) -> list[Array]:
    """The final field of every run: the first made here while one forked
    child makes the others and sends back their outcomes, pickled, through
    a pipe.  Raises what making the runs in order here would raise, or
    ChildProcessError when the child ends without sending its outcomes.
    The child is reaped before this returns or raises."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # the child: never returns into the caller, and leaves the caller's
        # buffered output and exit handlers to the parent
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump(_outcomes(runs[1:]), pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            first = _final_field(runs[0])
            message = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)  # the first run's error wins over any of the child's
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        names = ", ".join(f"{run.scheme} at tau={run.tau:g}" for run in runs[1:])
        ended = f"signal {-code}" if code < 0 else f"exit code {code}"
        raise ChildProcessError(
            f"the process running {names} ended with {ended} before sending its results"
        )
    outcomes = [first, *pickle.loads(message)]
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def _outcomes(runs: list[SimulationConfig]) -> list[Array | Exception]:
    """The final field of each run in order, up to the first run that
    raises, whose exception ends the list: the later runs could not change
    what the study raises."""
    outcomes: list[Array | Exception] = []
    for run in runs:
        try:
            outcomes.append(_final_field(run))
        except Exception as exc:  # sent to the parent, which raises it
            outcomes.append(exc)
            break
    return outcomes


def format_convergence_table(report: ConvergenceReport) -> str:
    """Human-readable table: one column per step size, error and rate rows."""
    taus = ["tau"] + [f"{r.tau:.6g}" for r in report.rows]
    errors = ["L2 Error"] + [f"{r.l2_error:.4e}" for r in report.rows]
    rates = ["Rate"] + [
        "-" if r.rate is None else f"{r.rate:.4f}" for r in report.rows
    ]
    widths = [max(len(c[i]) for c in (taus, errors, rates)) for i in range(len(taus))]
    lines = [
        f"scheme {report.scheme}, M={report.M}, T={report.T_final:g}, "
        f"benchmark {BENCHMARK_SCHEME} at tau={report.benchmark_tau:g}"
    ]
    for row in (taus, errors, rates):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def write_convergence_csv(path, report: ConvergenceReport) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["tau", "l2_error", "rate"])
        for r in report.rows:
            writer.writerow(
                ["%.17g" % r.tau, "%.17g" % r.l2_error, "" if r.rate is None else "%.17g" % r.rate]
            )


# -- structure counting -------------------------------------------------------


def count_structures(u: Array, threshold: float = 0.0) -> int:
    """Connected components of {u > threshold} under 4-neighbor periodic adjacency.

    The graph joins every cell of the set to its next neighbour along each
    axis, the wrap-around included, so a component that crosses a seam is
    one component.  Labels start as the flat cell indices; each round hooks
    every root to the smallest root it shares an edge with, then jumps
    pointers until each cell points at its root, and drops the edges whose
    ends already share one; it stops when no edge joins two roots.
    """
    mask = np.asarray(u) > threshold
    flat = np.arange(mask.size)
    cells = flat.reshape(mask.shape)
    heads, tails = [], []
    for axis in range(mask.ndim):
        joined = mask & np.roll(mask, -1, axis)
        heads.append(cells[joined])
        tails.append(np.roll(cells, -1, axis)[joined])
    a, b = np.concatenate(heads), np.concatenate(tails)
    label = flat.copy()
    while True:
        la, lb = label[a], label[b]
        apart = la != lb
        if not apart.any():
            break
        a, b, la, lb = a[apart], b[apart], la[apart], lb[apart]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    return int(np.count_nonzero(mask.ravel() & (label == flat)))


@dataclass(frozen=True)
class StructureCount:
    sigma: float
    count: int
    threshold: float
    final_time: float


def fit_loglog_slope(sigmas, counts) -> float | None:
    """Least-squares slope of ln(count) against ln(sigma); None if degenerate."""
    sigmas = np.asarray(sigmas, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if len(sigmas) < 2 or np.any(counts <= 0):
        return None
    return float(np.polyfit(np.log(sigmas), np.log(counts), 1)[0])


def minority_structure_count(grid: Grid, u: Array, threshold: float = 0.0) -> int:
    """Count the droplet phase of a separated field.

    Off-critical mixtures equilibrate as droplets of the minority phase
    inside a connected matrix of the majority phase, so the superlevel set
    of the mean-side phase is a single component; the structures of
    interest live on the other side of the threshold.
    """
    u = np.asarray(u, dtype=float)
    if grid.mean(u) > threshold:
        return count_structures(-u, -threshold)
    return count_structures(u, threshold)


def _sweep_one(config: SimulationConfig) -> StructureCount:
    state = _final_state(config, f"sigma={config.sigma:g}")
    return StructureCount(
        sigma=config.sigma,
        count=minority_structure_count(config, state.u, config.structure_threshold),
        threshold=config.structure_threshold,
        final_time=state.t,
    )


def sigma_sweep(
    sigma_list: list[float], config: SimulationConfig
) -> tuple[list[StructureCount], float | None]:
    """Count equilibrium structures for each nonlocal strength.

    Every run is config with its sigma replaced: it starts from the seeded
    field config.initial, which must be random(offset, amplitude, seed), and
    evolves to config.T_final with config.scheme, and its structures are
    counted at config.structure_threshold.  Returns the counts and the
    fitted log-log slope (None for a single-entry list).  A run that fails
    does not stop the others: once all have ended, the first failure in
    sigma order is raised, its `completed` attribute holding the counts of
    the runs that did complete.
    """
    _require_initial(config, "random(offset, amplitude, seed)", "sweep")
    if any(s <= 0 for s in sigma_list):
        raise ValueError(f"sigma values must be positive, got {sigma_list}")
    if any(b <= a for a, b in zip(sigma_list, sigma_list[1:])):
        raise ValueError(f"sigma values must be strictly increasing, got {sigma_list}")
    step_count(config.T_final, config.tau)  # refused here, not once per run
    jobs = [replace(config, sigma=float(s)) for s in sigma_list]
    workers = min(thread_budget(), len(jobs))
    if workers > 1:
        # imported here: only a pooled sweep needs it, and it costs every
        # other command's start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_sweep_one, job) for job in jobs]
            outcomes = [_settled(future.result) for future in futures]
    else:
        outcomes = [_settled(partial(_sweep_one, job)) for job in jobs]
    results = [o for o in outcomes if isinstance(o, StructureCount)]
    failures = [o for o in outcomes if not isinstance(o, StructureCount)]
    if failures:
        failures[0].completed = results
        raise failures[0]
    slope = fit_loglog_slope([r.sigma for r in results], [r.count for r in results])
    return results, slope


def _settled(run: Callable[[], StructureCount]) -> StructureCount | Exception:
    """The run's count, or the solver error or blowup it ended with."""
    try:
        return run()
    except (SolverError, BlowupError) as exc:
        return exc


def write_sweep_csv(path, results: list[StructureCount], slope: float | None) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["sigma", "count", "threshold", "final_time"])
        for r in results:
            writer.writerow(
                ["%.17g" % r.sigma, r.count, "%.17g" % r.threshold, "%.17g" % r.final_time]
            )
        if slope is not None:
            writer.writerow(["# loglog_slope", "%.17g" % slope, "", ""])
