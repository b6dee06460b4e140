"""Experiment harness: temporal convergence tables, structure counting and
the nonlocal-strength sweep.

Runs within a sweep are independent; NCH_THREADS > 1 distributes them over a
process pool, otherwise they execute inline in order.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .config import step_count
from .errors import BlowupError, SolverError
from .grid import Grid, ModelParams
from .stepper import advance, random_initial, sine_initial

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


def _final_field(u0: Array, params: ModelParams, scheme: str, n_steps: int, run: str) -> Array:
    """The field after n_steps of advance; errors name the run ("tau=...")."""
    try:
        state, _, status = advance(u0, params, scheme, n_steps)
    except SolverError as exc:
        # same type and attributes, so it still crosses a process pool
        exc.args = (f"{scheme} run at {run}: {exc}", *exc.args[1:])
        raise
    if status != "ok":
        raise BlowupError(f"{scheme} run at {run} ended with status {status}")
    return state.u


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


def convergence_study(
    scheme: str,
    params: ModelParams,
    tau_list: list[float],
    benchmark_tau: float,
    *,
    T_final: float = 0.02,
    amplitude: float = 0.1,
) -> ConvergenceReport:
    """Temporal convergence against a fine-step benchmark solution.

    Each step size runs from the same smooth initial field to T_final on the
    same mesh, so the reported errors are purely temporal; the benchmark is
    a BENCHMARK_SCHEME run at benchmark_tau.  Every run projects with the
    tolerance and iteration budget of params.
    """
    if any(b >= a for a, b in zip(tau_list, tau_list[1:])):
        raise ValueError(f"tau values must be strictly decreasing, got {tau_list}")
    if benchmark_tau >= min(tau_list):
        raise ValueError(
            f"benchmark tau {benchmark_tau} must be below min(tau_list) = {min(tau_list)}"
        )
    grid = params.grid()
    u0 = sine_initial(grid, amplitude)
    steps = {tau: step_count(T_final, tau) for tau in (benchmark_tau, *tau_list)}

    def final_field(run_scheme: str, tau: float) -> Array:
        return _final_field(
            u0, replace(params, tau=tau), run_scheme, steps[tau], f"tau={tau:g}"
        )

    reference = final_field(BENCHMARK_SCHEME, benchmark_tau)
    rows: list[ConvergenceRow] = []
    previous_error = None
    for tau in tau_list:
        error = grid.norm2(final_field(scheme, tau) - reference)
        rate = None
        if previous_error is not None and error > 0:
            rate = math.log2(previous_error / error)
        rows.append(ConvergenceRow(tau=tau, l2_error=error, rate=rate))
        previous_error = error
    return ConvergenceReport(
        scheme=scheme,
        rows=tuple(rows),
        benchmark_tau=benchmark_tau,
        M=params.M,
        T_final=T_final,
    )


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


def _sweep_one(
    params: ModelParams, scheme, T_final, seed, offset, amplitude, threshold
) -> StructureCount:
    grid = params.grid()
    u0 = random_initial(grid, offset, amplitude, seed)
    n_steps = step_count(T_final, params.tau)
    u = _final_field(u0, params, scheme, n_steps, f"sigma={params.sigma:g}")
    return StructureCount(
        sigma=params.sigma,
        count=minority_structure_count(grid, u, threshold),
        threshold=threshold,
        final_time=n_steps * params.tau,
    )


def sigma_sweep(
    sigma_list: list[float],
    params: ModelParams,
    T_final: float,
    seed: int,
    *,
    scheme: str = "p-etdrk2",
    offset: float = 0.3,
    amplitude: float = 0.05,
    threshold: float = 0.0,
) -> tuple[list[StructureCount], float | None]:
    """Count equilibrium structures for each nonlocal strength.

    Every run starts from the same seeded random field (the strength is the
    only thing varied) and is evolved to T_final with the given scheme.
    Returns the counts and the fitted log-log slope (None for a single-entry
    list).  A run that fails does not stop the others: once all have ended,
    the first failure in sigma order is raised, its `completed` attribute
    holding the counts of the runs that did complete.
    """
    if any(s <= 0 for s in sigma_list):
        raise ValueError(f"sigma values must be positive, got {sigma_list}")
    if any(b <= a for a, b in zip(sigma_list, sigma_list[1:])):
        raise ValueError(f"sigma values must be strictly increasing, got {sigma_list}")
    jobs = [replace(params, sigma=float(s)) for s in sigma_list]
    one = partial(
        _sweep_one,
        scheme=scheme,
        T_final=T_final,
        seed=seed,
        offset=offset,
        amplitude=amplitude,
        threshold=threshold,
    )
    workers = min(thread_budget(), len(jobs))
    if workers > 1:
        # imported here: only a pooled sweep needs it, and it costs every
        # other command's start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(one, job) for job in jobs]
            outcomes = [_settled(future.result) for future in futures]
    else:
        outcomes = [_settled(partial(one, job)) for job in jobs]
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
