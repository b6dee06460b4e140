import concurrent.futures
import contextlib
import os
import re
import signal
import threading

import numpy as np
import pytest

from nch import (
    ModelParams,
    SimulationConfig,
    convergence_study,
    count_structures,
    experiments,
    fit_loglog_slope,
    projection,
)
from nch.config import InitialSpec
from nch.errors import BlowupError, ProjectionConvergenceError
from nch.experiments import (
    format_convergence_table,
    minority_structure_count,
    reference_field,
    sigma_sweep,
    write_convergence_csv,
)
from nch.stepper import advance, sine_initial

from oracles import ndimage_periodic_count


def disc(grid, cx, cy, radius):
    X, Y = grid.mesh()
    # periodic distance on the torus
    dx = np.minimum(np.abs(X - cx), grid.L - np.abs(X - cx))
    dy = np.minimum(np.abs(Y - cy), grid.L - np.abs(Y - cy))
    return dx**2 + dy**2 <= radius**2


class TestCountStructures:
    def test_empty_superlevel_set(self):
        assert count_structures(np.full((32, 32), -0.5)) == 0

    def test_two_disjoint_discs(self):
        grid = ModelParams(M=64).grid()
        u = np.full((64, 64), -0.9)
        u[disc(grid, 0.25, 0.25, 0.1)] = 0.9
        u[disc(grid, 0.75, 0.75, 0.1)] = 0.9
        assert count_structures(u) == 2

    def test_disc_crossing_the_periodic_boundary(self):
        grid = ModelParams(M=64).grid()
        u = np.full((64, 64), -0.9)
        u[disc(grid, 1.0, 0.5, 0.12)] = 0.9  # straddles the x-wrap seam
        assert count_structures(u) == 1
        u2 = np.full((64, 64), -0.9)
        u2[disc(grid, 1.0, 1.0, 0.12)] = 0.9  # straddles the corner
        assert count_structures(u2) == 1

    def test_translation_invariance(self):
        grid = ModelParams(M=64).grid()
        u = np.full((64, 64), -0.9)
        for center in ((0.2, 0.3), (0.6, 0.7), (0.9, 0.1)):
            u[disc(grid, *center, 0.07)] = 0.9
        base = count_structures(u)
        rng = np.random.default_rng(0)
        for _ in range(5):
            shifted = np.roll(u, rng.integers(0, 64, 2), axis=(0, 1))
            assert count_structures(shifted) == base

    def test_threshold_is_respected(self):
        u = np.zeros((16, 16))
        u[4:8, 4:8] = 0.5
        assert count_structures(u, threshold=0.6) == 0
        assert count_structures(u, threshold=0.4) == 1

    def test_minority_phase_counting_flips_with_the_mean(self):
        grid = ModelParams(M=64).grid()
        matrix = np.full((64, 64), 0.9)  # majority phase above threshold
        matrix[disc(grid, 0.3, 0.3, 0.08)] = -0.9
        matrix[disc(grid, 0.7, 0.7, 0.08)] = -0.9
        assert count_structures(matrix) == 1  # the connected matrix
        assert minority_structure_count(grid, matrix) == 2  # the droplets
        assert minority_structure_count(grid, -matrix) == 2


def serpentine(M):
    # one path through every even row, joined at alternating ends by the odd
    # rows; when 4 divides M the last joint wraps from the bottom row to the top
    mask = np.zeros((M, M), dtype=bool)
    mask[0::2, : M - 1] = True
    mask[1::4, M - 2] = True
    mask[3::4, 0] = True
    return mask


def seam_band(M):
    # a band of rows cut at column M//2: its two halves meet only across the
    # column seam
    mask = np.zeros((M, M), dtype=bool)
    mask[1:3, :] = True
    mask[1:3, M // 2] = False
    return mask


class TestCountStructuresAgainstNdimage:
    @pytest.mark.parametrize("M", [1, 2, 3, 8, 15, 16, 33])
    def test_random_fields(self, M):
        rng = np.random.default_rng(M)
        for _ in range(25):
            u = rng.uniform(-1.0, 1.0, (M, M))
            threshold = rng.uniform(-0.6, 0.6)
            assert count_structures(u, threshold) == ndimage_periodic_count(u, threshold)

    @pytest.mark.parametrize("M", [1, 2, 3, 8, 15, 16, 33])
    def test_special_masks(self, M):
        i, j = np.indices((M, M))
        masks = {
            "empty": np.zeros((M, M), dtype=bool),
            "full": np.ones((M, M), dtype=bool),
            "checkerboard": (i + j) % 2 == 0,
        }
        if M >= 4:
            masks["serpentine"] = serpentine(M)
            masks["seam band"] = seam_band(M)
            masks["seam band, transposed"] = seam_band(M).T
        for name, mask in masks.items():
            u = np.where(mask, 0.9, -0.9)
            assert count_structures(u) == ndimage_periodic_count(u), name

    def test_long_paths_are_one_component(self):
        # a single path through the whole torus counts once, and so does a
        # band whose halves meet only across a seam
        for M in (16, 256):
            assert count_structures(np.where(serpentine(M), 0.9, -0.9)) == 1
            band = np.where(seam_band(M), 0.9, -0.9)
            assert count_structures(band) == count_structures(band.T) == 1


class TestConvergenceStudy:
    def test_identical_runs_have_zero_distance(self):
        params = ModelParams(M=16, tau=1e-3)
        u0 = sine_initial(params.grid(), 0.1)
        a, _, _ = advance(u0, params, "p-etdrk2", 20)
        b, _, _ = advance(u0, params, "p-etdrk2", 20)
        assert params.grid().norm2(a.u - b.u) == 0.0

    def test_small_study_orders(self):
        config = SimulationConfig(
            epsilon=0.02, theta=0.8, theta_c=1.6, kappa=1.0, sigma=30.0, M=16,
            scheme="p-etd1", T_final=4e-3, initial=InitialSpec("sine", 0.1),
        )
        reference = reference_field(config, 1e-5)
        report = convergence_study(config, [4e-4, 2e-4, 1e-4], 1e-5, reference)
        errors = [r.l2_error for r in report.rows]
        assert errors == sorted(errors, reverse=True)
        assert all(0.5 < rate < 1.5 for rate in report.rates)
        assert report.rows[0].rate is None

    def test_validation(self):
        config = SimulationConfig(
            M=8, scheme="p-etd1", T_final=0.02, initial=InitialSpec("sine", 0.1)
        )
        reference = np.zeros((8, 8))
        with pytest.raises(ValueError, match="decreasing"):
            convergence_study(config, [1e-4, 2e-4], 1e-6, reference)
        with pytest.raises(ValueError, match="benchmark"):
            convergence_study(config, [2e-4, 1e-4], 1e-4, reference)

    def test_report_formatting_and_csv(self, tmp_path):
        config = SimulationConfig(
            M=8, scheme="p-etdrk2", T_final=0.01, initial=InitialSpec("sine", 0.1)
        )
        reference = reference_field(config, 1e-4)
        report = convergence_study(config, [2e-3, 1e-3], 1e-4, reference)
        table = format_convergence_table(report)
        assert "L2 Error" in table and "Rate" in table
        path = tmp_path / "report.csv"
        write_convergence_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "tau,l2_error,rate"
        assert len(lines) == 3


def study_config():
    """A p-etdrk2 study at M=16 from sine(0.1) to T=2e-3."""
    return SimulationConfig(
        epsilon=0.02, theta=0.8, theta_c=1.6, kappa=1.0, sigma=30.0, M=16,
        scheme="p-etdrk2", T_final=2e-3, initial=InitialSpec("sine", 0.1),
    )


STUDY_TAUS = [4e-4, 2e-4, 1e-4]
STUDY_BENCHMARK_TAU = 5e-5


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in this process if the block runs past seconds,
    so a wait on a child that never ends fails the test instead of hanging
    it."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestOverlappedStudy:
    """With NCH_THREADS > 1 a study makes its first run in this process and
    the others in one forked child; reports and errors must be those of the
    inline order, and the child must be gone when the study returns."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the children os.fork makes during the test."""
        pids = []
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return pids

    @staticmethod
    def assert_reaped(pids):
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @staticmethod
    def fail_at(monkeypatch, failures):
        """Make the run at each tau in failures end as named: "solver" raises
        a ProjectionConvergenceError, "blowup" ends with status blowup, "bug"
        raises a ZeroDivisionError and "unpicklable" an exception that cannot
        be pickled; "kill" kills the process, which must be the child."""
        real_advance = experiments.advance
        parent = os.getpid()

        class Unpicklable(Exception):
            pass

        def advance(u0, params, scheme, n_steps):
            kind = failures.get(params.tau)
            if kind == "solver":
                raise ProjectionConvergenceError("no root", residual=params.tau)
            if kind == "bug":
                raise ZeroDivisionError(f"not a solver error at {params.tau:g}")
            if kind == "unpicklable":
                raise Unpicklable("defined inside a function")
            if kind == "kill":
                assert os.getpid() != parent, "only the child may be killed"
                os.kill(os.getpid(), signal.SIGKILL)
            state, diagnostics, status = real_advance(u0, params, scheme, n_steps)
            return state, diagnostics, "blowup" if kind == "blowup" else status

        monkeypatch.setattr(experiments, "advance", advance)

    @pytest.mark.parametrize("passed", [False, True], ids=["own-reference", "passed-reference"])
    def test_thread_counts_give_equal_reports(self, monkeypatch, forks, passed):
        config = study_config()
        reference = reference_field(config, STUDY_BENCHMARK_TAU) if passed else None
        reports = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("NCH_THREADS", threads)
            reports[threads] = convergence_study(
                config, STUDY_TAUS, STUDY_BENCHMARK_TAU, reference
            )
            assert len(forks) == int(threads) - 1
        assert reports["1"] == reports["2"]
        assert [r.tau for r in reports["2"].rows] == STUDY_TAUS
        if passed:
            # the study's own reference is the same field
            assert reports["2"] == convergence_study(config, STUDY_TAUS, STUDY_BENCHMARK_TAU)
        self.assert_reaped(forks)

    @pytest.mark.parametrize(
        "passed, failures, error, message",
        [
            # the reference (here) wins over a step size (in the child)
            (False, {5e-5: "blowup", 2e-4: "solver"}, BlowupError, "tau=5e-05"),
            # otherwise the first failing step size, both in the child
            (False, {2e-4: "blowup", 1e-4: "solver"}, BlowupError, "tau=0.0002"),
            (False, {1e-4: "solver"}, ProjectionConvergenceError, "tau=0.0001"),
            # with a passed reference the first step size is made here
            (True, {4e-4: "solver", 2e-4: "blowup"}, ProjectionConvergenceError, "tau=0.0004"),
            (True, {2e-4: "solver", 1e-4: "blowup"}, ProjectionConvergenceError, "tau=0.0002"),
        ],
    )
    def test_the_inline_order_picks_the_error(
        self, monkeypatch, forks, passed, failures, error, message
    ):
        config = study_config()
        reference = reference_field(config, STUDY_BENCHMARK_TAU) if passed else None
        self.fail_at(monkeypatch, failures)
        raised = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("NCH_THREADS", threads)
            with pytest.raises(error, match=re.escape(message)) as info:
                convergence_study(config, STUDY_TAUS, STUDY_BENCHMARK_TAU, reference)
            exc = info.value
            raised[threads] = (type(exc), str(exc), getattr(exc, "residual", None))
        assert raised["1"] == raised["2"]
        assert len(forks) == 1
        self.assert_reaped(forks)

    @pytest.mark.parametrize("kind, ended", [("kill", "signal 9"), ("unpicklable", "exit code 1")])
    def test_a_child_that_sends_nothing_is_named(self, monkeypatch, forks, kind, ended):
        monkeypatch.setenv("NCH_THREADS", "2")
        self.fail_at(monkeypatch, {2e-4: kind})
        names = "p-etdrk2 at tau=0.0004, p-etdrk2 at tau=0.0002, p-etdrk2 at tau=0.0001"
        with deadline(60), pytest.raises(ChildProcessError) as info:
            convergence_study(study_config(), STUDY_TAUS, STUDY_BENCHMARK_TAU)
        assert str(info.value) == (
            f"the process running {names} ended with {ended} before sending its results"
        )
        assert len(forks) == 1
        self.assert_reaped(forks)

    def test_a_non_solver_error_in_the_child_reaches_the_parent(self, monkeypatch, forks):
        pid = os.getpid()
        self.fail_at(monkeypatch, {2e-4: "bug"})
        for threads in ("1", "2"):
            monkeypatch.setenv("NCH_THREADS", threads)
            with pytest.raises(ZeroDivisionError, match="^not a solver error at 0.0002$"):
                convergence_study(study_config(), STUDY_TAUS, STUDY_BENCHMARK_TAU)
            assert os.getpid() == pid
        assert len(forks) == 1
        self.assert_reaped(forks)

    def test_a_process_with_other_threads_does_not_fork(self, monkeypatch, forks):
        monkeypatch.setenv("NCH_THREADS", "2")
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            report = convergence_study(study_config(), STUDY_TAUS, STUDY_BENCHMARK_TAU)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert forks == []
        assert len(report.rows) == len(STUDY_TAUS)


class TestSlopeFit:
    def test_known_count_series_slope(self):
        sigmas = [1, 5, 10, 20, 30, 40, 60, 70]
        counts = [5, 11, 18, 29, 35, 44, 57, 62]
        slope = fit_loglog_slope(sigmas, counts)
        assert slope == pytest.approx(0.6057, abs=1e-3)
        endpoint = np.log(counts[-1] / counts[0]) / np.log(sigmas[-1] / sigmas[0])
        assert endpoint == pytest.approx(0.5926, abs=1e-3)

    def test_degenerate_fits_return_none(self):
        assert fit_loglog_slope([10.0], [4]) is None
        assert fit_loglog_slope([10.0, 30.0], [0, 5]) is None


def sweep_config(T_final, seed, **params):
    """A p-etdrk2 sweep from random(0.3, 0.05, seed), counted at threshold 0."""
    initial = InitialSpec("random", 0.05, offset=0.3, seed=seed)
    return SimulationConfig(scheme="p-etdrk2", T_final=T_final, initial=initial, **params)


class TestSigmaSweep:
    def test_toy_sweep_structure(self, monkeypatch):
        monkeypatch.setenv("NCH_THREADS", "1")
        config = sweep_config(1.0, 3, M=16, tau=0.1, kappa=2.0)
        results, slope = sigma_sweep([5.0, 20.0], config)
        assert [r.sigma for r in results] == [5.0, 20.0]
        assert all(r.count >= 0 for r in results)
        assert all(r.final_time == pytest.approx(1.0) for r in results)

    def test_single_sigma_has_no_slope(self, monkeypatch):
        monkeypatch.setenv("NCH_THREADS", "1")
        config = sweep_config(0.5, 3, M=16, tau=0.1, kappa=2.0)
        results, slope = sigma_sweep([5.0], config)
        assert len(results) == 1
        assert slope is None

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_solver_error_names_the_sigma(self, monkeypatch, in_process_pool, threads):
        # the error keeps its type and residual, also across the process pool
        monkeypatch.setenv("NCH_THREADS", threads)
        monkeypatch.setattr(projection, "PROJECTION_MAX_ITER", 1)
        config = sweep_config(2.0, 7, M=32, tau=0.1, kappa=2.0)
        with pytest.raises(ProjectionConvergenceError, match="sigma=30") as info:
            sigma_sweep([30.0, 70.0], config)
        assert info.value.residual > 0
        # the other sigma still runs, and its count comes with the error
        completed = info.value.completed
        assert [r.sigma for r in completed] == [70.0]
        assert completed[0].count > 0 and completed[0].final_time == pytest.approx(2.0)

    def test_validation(self):
        config = sweep_config(1.0, 0, M=8)
        with pytest.raises(ValueError, match="positive"):
            sigma_sweep([-1.0, 2.0], config)
        with pytest.raises(ValueError, match="increasing"):
            sigma_sweep([5.0, 2.0], config)

    def test_pooled_and_inline_sweeps_agree(self, monkeypatch):
        config = sweep_config(1.0, 3, M=16, tau=0.1, kappa=2.0)
        sweeps = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("NCH_THREADS", threads)
            sweeps[threads] = sigma_sweep([5.0, 20.0], config)
        assert sweeps["1"] == sweeps["2"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_horizon_between_steps_is_refused_before_any_run(self, monkeypatch, threads):
        monkeypatch.setenv("NCH_THREADS", threads)
        calls = []
        monkeypatch.setattr(experiments, "advance", lambda *args: calls.append("advance"))
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", lambda **kw: calls.append("pool")
        )
        with pytest.raises(ValueError, match="not a whole number of steps of tau=0.1"):
            sigma_sweep([5.0, 20.0], sweep_config(0.15, 0, M=8, tau=0.1))
        assert calls == []


class TestInitialKind:
    """The experiments refuse an initial field of the other kind with the
    text the CLI prints."""

    def test_sweep_needs_a_random_initial(self):
        config = SimulationConfig(M=8, tau=0.1, T_final=0.5, initial=InitialSpec("sine", 0.5))
        message = "initial must be random(offset, amplitude, seed) for sweep, got sine(0.5)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sigma_sweep([5.0, 20.0], config)

    def test_convergence_needs_a_sine_initial(self):
        initial = InitialSpec("random", 0.05, offset=0.2, seed=1)
        config = SimulationConfig(M=8, T_final=0.01, initial=initial)
        message = "initial must be sine(amplitude) for converge, got random(0.2, 0.05, 1)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reference_field(config, 5e-4)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            convergence_study(config, [2e-3, 1e-3], 5e-4, np.zeros((8, 8)))
