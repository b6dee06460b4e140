import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nch import Grid, ModelParams, SimulationConfig, parse_config, project
from nch import operators, projection
from nch.config import SCHEMES
from nch.errors import NonFiniteFieldError, ProjectionConvergenceError, SolverError
from nch.experiments import thread_budget
from nch.operators import apply_phi, chemical_potential, operator_eigenvalues, phi0, phi1
from nch.stepper import (
    _diagnostics,
    _StepCore,
    advance,
    new_state,
    random_initial,
    run,
    sine_initial,
)
from oracles import (
    PREDICTED_CASES,
    gauss_legendre_exponential_integral,
    paper_form_predictor,
    predicted_field,
)


def admissible_random_state(params, seed, scale=0.8):
    grid = params.grid()
    rng = np.random.default_rng(seed)
    u0 = scale * params.bound * rng.uniform(-1.0, 1.0, (grid.M, grid.M))
    return new_state(u0, params)


def predict(state, params, u_mid=None):
    """The step core's order-1 prediction from state, or order 2 with the
    midpoint stage u_mid."""
    core = _StepCore(params, "etd1" if u_mid is None else "etdrk2")
    c_mid = None if u_mid is None else chemical_potential(u_mid, params)
    return core.predict(*core.linear_and_forcing(state.u), c_mid)


class TestPredictors:
    def test_constants_are_fixed_points_of_etd1(self):
        params = ModelParams(M=16, sigma=30.0, tau=1e-3)
        state = new_state(np.full((16, 16), 0.35), params)
        utilde = predict(state, params)
        np.testing.assert_allclose(utilde, 0.35, rtol=0, atol=1e-13)

    def test_vanishing_step_returns_the_state(self):
        params = ModelParams(M=8, tau=1e-12)
        state = admissible_random_state(params, 0)
        assert np.max(np.abs(predict(state, params) - state.u)) < 1e-5
        assert np.max(np.abs(predict(state, params, state.u) - state.u)) < 1e-5

    def test_etd1_matches_frozen_integrand_quadrature(self):
        # With the nonlinearity reduced to its linear part, the predictor
        # composition must equal the variation-of-constants integral with
        # frozen right-hand side, evaluated per mode by Gauss-Legendre.
        params = ModelParams(
            epsilon=0.02, theta=0.8, theta_c=1.6, kappa=1.0, sigma=30.0, M=16, tau=1e-4
        )
        grid = params.grid()
        u0 = sine_initial(grid, 0.1)
        f_linear = -(params.theta_c + params.kappa) * grid.laplace(u0)
        ell = operator_eigenvalues(params)

        half = params.tau * ell[:, : params.M // 2 + 1]
        via_phi = apply_phi(u0, phi0(half)) + params.tau * apply_phi(
            f_linear, phi1(half)
        )

        integral = gauss_legendre_exponential_integral(ell, params.tau)
        spectral = np.exp(-params.tau * ell) * np.fft.fft2(u0) + integral * np.fft.fft2(
            f_linear
        )
        via_quadrature = np.fft.ifft2(spectral).real
        assert np.max(np.abs(via_phi - via_quadrature)) < 1e-10

    def test_etdrk2_collapses_to_etd1_on_stationary_data(self):
        params = ModelParams(M=16, tau=1e-3)
        state = admissible_random_state(params, 1)
        collapsed = predict(state, params, state.u)
        reference = predict(state, params)
        np.testing.assert_allclose(collapsed, reference, rtol=1e-13, atol=1e-15)

    def test_etdrk2_constant_fixed_point(self):
        params = ModelParams(M=16, tau=1e-2)
        state = new_state(np.full((16, 16), -0.2), params)
        utilde = predict(state, params, state.u)
        np.testing.assert_allclose(utilde, -0.2, rtol=0, atol=1e-13)

    def test_predictor_conserves_mass(self):
        params = ModelParams(M=32, tau=0.05, kappa=2.0)
        grid = params.grid()
        for seed in range(3):
            state = admissible_random_state(params, seed)
            utilde = predict(state, params)
            assert abs(grid.mass(utilde) - grid.mass(state.u)) < 1e-15


@given(
    M=st.sampled_from([4, 7, 16, 31, 64]),
    tau=st.floats(1e-5, 3.0),
    L=st.floats(0.5, 4.0),
    offset=st.floats(-0.5, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_predictors_match_the_paper_form(M, tau, L, offset, seed):
    # u and u_mid share their mean, as the stages of a step do, so the
    # paper form's mean term keeps the zero mode there too
    params = ModelParams(M=M, tau=tau, L=L)
    spread = 0.5 * (0.9 - abs(offset))
    draws = np.random.default_rng(seed).uniform(-1.0, 1.0, (2, M, M))
    u, u_mid = (offset + spread * (r - r.mean()) for r in draws)
    state = new_state(u, params)
    for mid in (None, u_mid):
        ref = paper_form_predictor(params, u, mid)
        err = np.max(np.abs(predict(state, params, mid) - ref))
        assert err <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_steps_take_the_laplacian_from_the_kernels(monkeypatch, scheme):
    # the stencil and the reference forcing stay out of the step
    def refuse(*args, **kwargs):
        raise AssertionError("the step evaluated the stencil")

    monkeypatch.setattr(Grid, "laplace", refuse)
    reference = operators.nonlinear_F
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nch" and getattr(module, "nonlinear_F", None) is reference:
            monkeypatch.setattr(module, "nonlinear_F", refuse)
    params = ModelParams(M=16, tau=1e-3)
    u0 = random_initial(params.grid(), 0.2, 0.05, seed=5)
    _, _, status = advance(u0, params, scheme, 3, collect=True)
    assert status == "ok"


@pytest.mark.parametrize("scheme", ["p-etd1", "p-etdrk2"])
def test_a_projected_step_allocates_only_the_new_state(scheme):
    # every other field of the step lives in the core's work arrays; the
    # peak is the new state, or numpy's half-spectrum temporary in irfftn,
    # plus small objects (9.15 and 5.13 fields when every operator
    # returned a new array)
    params = ModelParams(M=64, tau=0.1)
    core = _StepCore(params, scheme)
    state, _ = core.step(new_state(random_initial(params, 0.2, 0.05, 3), params))
    tracemalloc.start()
    try:
        state, _ = core.step(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * state.u.nbytes


@pytest.mark.parametrize("scheme", SCHEMES)
def test_states_handed_to_on_step_keep_their_values(scheme):
    # no state aliases a work array that a later step writes
    params = ModelParams(M=16, tau=1e-3)
    u0 = random_initial(params, 0.2, 0.05, 5)
    seen = []
    _, _, status = advance(u0, params, scheme, 5, on_step=lambda s, d: seen.append(s.u))
    assert status == "ok" and len(seen) == 6
    for k, u in enumerate(seen):
        assert u.tobytes() == advance(u0, params, scheme, k)[0].u.tobytes()


class TestProjectedSteps:
    def test_admissible_constant_is_a_fixed_point(self):
        params = ModelParams(M=16, tau=0.1)
        state = new_state(np.full((16, 16), 0.5), params)
        for scheme in ("p-etd1", "p-etdrk2"):
            nxt, diag = _StepCore(params, scheme).step(state)
            np.testing.assert_allclose(nxt.u, 0.5, rtol=0, atol=1e-13)
            assert diag.xi == pytest.approx(0.0, abs=1e-13)
            assert diag.lambda_sup == 0.0

    @pytest.mark.parametrize(
        "scheme, steps", [("p-etd1", 100), ("p-etdrk2", 100), ("p-etdrk2", 200)]
    )
    def test_hundred_step_mass_conservation(self, scheme, steps):
        params = ModelParams(M=32, tau=0.1, kappa=2.0, sigma=30.0)
        u0 = random_initial(params.grid(), 0.2, 0.05, seed=7)
        _, diagnostics, status = advance(u0, params, scheme, steps, collect=True)
        assert status == "ok"
        assert max(abs(d.mass_increment) for d in diagnostics) <= 1e-12
        assert all(d.sup_norm <= params.bound for d in diagnostics)

    def test_agrees_with_unprojected_when_predictor_is_admissible(self):
        # smooth low-amplitude data, short step: no clamping, matching mass
        params = ModelParams(
            epsilon=0.02, theta=0.8, theta_c=1.6, kappa=1.0, sigma=30.0, M=32, tau=1e-5
        )
        u0 = sine_initial(params.grid(), 0.1)
        projected, _, _ = advance(u0, params, "p-etd1", 5)
        classic, _, _ = advance(u0, params, "etd1", 5)
        assert np.max(np.abs(projected.u - classic.u)) <= 1e-12

    def test_state_invariants_along_a_run(self):
        params = ModelParams(M=32, tau=0.1, kappa=2.0, sigma=30.0)
        u0 = random_initial(params.grid(), 0.2, 0.05, seed=3)
        state, diagnostics, _ = advance(u0, params, "p-etdrk2", 100, collect=True)
        grid = params.grid()
        assert grid.norm_inf(state.u) <= params.bound
        assert grid.mass(state.u) == pytest.approx(state.initial_mass, rel=1e-12)
        assert state.t == pytest.approx(10.0, rel=1e-12)
        assert all(np.isfinite(d.energy) for d in diagnostics)
        assert all(d.step == i for i, d in enumerate(diagnostics))


@given(
    M=st.sampled_from([4, 7, 8, 16, 31, 32]),
    tau=st.floats(1e-5, 3.0),
    epsilon=st.floats(0.005, 0.1),
    theta=st.floats(0.1, 1.5),
    theta_ratio=st.floats(1.01, 4.0),
    sigma=st.floats(0.1, 100.0),
    kappa=st.floats(0.0, 3.0),
    delta=st.floats(0.01, 0.5),
    L=st.floats(0.5, 4.0),
    offset=st.floats(-0.9, 0.9),
    seed=st.integers(0, 2**32 - 1),
    scheme=st.sampled_from(["p-etd1", "p-etdrk2"]),
)
# long steps on a small domain, where one predictor's mass strays from its
# input's by several 1e-12 * area: the roundoff of its spectral sums, about
# eps * tau * h^2 sum|F| per step whatever the area
@example(M=32, tau=3.0, epsilon=0.02, theta=0.8, theta_ratio=7.5, sigma=0.1, kappa=3.0,
         delta=0.01, L=0.5, offset=0.0, seed=0, scheme="p-etd1")
@example(M=32, tau=3.0, epsilon=0.02, theta=0.8, theta_ratio=7.5, sigma=0.1, kappa=3.0,
         delta=0.01, L=0.5, offset=0.0, seed=0, scheme="p-etdrk2")
@settings(max_examples=50, deadline=None)
def test_projected_steps_keep_the_bound_and_the_mass(
    M, tau, epsilon, theta, theta_ratio, sigma, kappa, delta, L, offset, seed, scheme
):
    params = ModelParams(
        epsilon=epsilon, theta=theta, theta_c=theta * theta_ratio, sigma=sigma,
        kappa=kappa, delta=delta, L=L, M=M, tau=tau,
    )
    bound = params.bound
    rng = np.random.default_rng(seed)
    spread = (1.0 - abs(offset)) * rng.uniform(-1.0, 1.0, (M, M))
    u0 = np.clip(bound * (offset + spread), -bound, bound)
    _, diagnostics, status = advance(u0, params, scheme, 3, collect=True)
    assert status == "ok"
    for d in diagnostics:
        assert d.sup_norm <= bound
        assert abs(d.mass_increment) <= 1e-12 * L * L


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("M", [1, 2, 3, 16, 33])
@pytest.mark.parametrize("case", PREDICTED_CASES)
def test_step_diagnostics_are_bitwise_those_of_the_projected_field(M, case):
    # the step core takes sup_norm, mass, lambda_sup and clamped_fraction
    # from the projection's extremes and counts; they must read as the
    # full field and multiplier give them
    params = ModelParams(M=M, tau=0.1)
    grid = params.grid()
    utilde = predicted_field(case, M, params.bound)
    state = new_state(np.full((M, M), 0.1), params)
    core = _StepCore(params, "p-etd1")
    full = project(utilde, params, state.initial_mass)
    u, proj = core._correct(utilde, state)
    diag = _diagnostics(new_state(u, params), grid, proj)
    assert u.tobytes() == full.u.tobytes()
    assert _bits(diag.sup_norm) == _bits(grid.norm_inf(full.u))
    assert _bits(diag.mass) == _bits(grid.mass(full.u))
    assert _bits(diag.lambda_sup) == _bits(float(np.max(full.lam)))
    assert _bits(diag.clamped_fraction) == _bits(float(np.mean(full.lam > 0.0)))
    assert diag.xi == full.xi and diag.projection_iterations == full.iterations


def test_a_nan_entry_reaches_the_projection_as_a_solver_error():
    # NaN passes the bound check of chemical_potential, as no comparison
    # fails on it, and the transforms spread it, so the projection's probe
    # refuses the predictor: NonFiniteFieldError, a SolverError (CLI exit 3)
    params = ModelParams(M=8, tau=0.1)
    u0 = np.full((8, 8), 0.2)
    u0[3, 5] = np.nan
    with pytest.raises(NonFiniteFieldError, match="not finite"):
        advance(u0, params, "p-etd1", 1)
    assert issubclass(NonFiniteFieldError, SolverError)


@pytest.mark.parametrize("scheme", ["etd1", "etdrk2"])
def test_a_nan_field_ends_an_unprojected_run_as_a_blowup(scheme):
    # sup|u| is NaN, which fails no comparison: the step must not read it
    # as inside the bound
    params = ModelParams(M=8, tau=0.1)
    u0 = np.full((8, 8), 0.2)
    u0[3, 5] = np.nan
    state, diagnostics, status = advance(u0, params, scheme, 3, collect=True)
    assert status == "blowup"
    assert state.step_index == 1
    assert diagnostics[-1].status == "blowup"


@pytest.mark.parametrize("M", [1, 3, 4, 5, 7, 16, 33])
@pytest.mark.parametrize("L", [1.0, 3.0])
def test_saturated_constant_is_a_fixed_point_of_the_projected_schemes(M, L):
    # a constant field at +-bound is admissible, and its mass, rounded
    # to or just above the saturated +-L^2 bound, is a target to accept
    params = ModelParams(M=M, L=L, tau=0.1)
    for value in (params.bound, -params.bound):
        u0 = np.full((M, M), value)
        for scheme in ("p-etd1", "p-etdrk2"):
            fields = []
            _, diagnostics, status = advance(
                u0, params, scheme, 3, collect=True, on_step=lambda s, d: fields.append(s.u)
            )
            assert status == "ok"
            assert all(np.max(np.abs(u - value)) <= 1e-12 for u in fields)
            assert all(d.sup_norm <= params.bound for d in diagnostics)
            assert all(abs(d.mass_increment) <= 1e-12 * L * L for d in diagnostics)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_rows_that_no_projection_made_read_zero(scheme):
    # row 0, the initial state, and every row of an unprojected run inside
    # the bound have no shift, multiplier, iteration or clamped entry;
    # row 0 sits at step 0, t = 0
    params = ModelParams(M=16, tau=0.1)
    u0 = random_initial(params.grid(), 0.2, 0.05, seed=7)
    _, diagnostics, status = advance(u0, params, scheme, 3, collect=True)
    assert status == "ok"
    assert (diagnostics[0].step, diagnostics[0].t) == (0, 0.0)
    unprojected = diagnostics[:1] if scheme.startswith("p-") else diagnostics
    for d in unprojected:
        assert (d.xi, d.lambda_sup, d.projection_iterations, d.clamped_fraction) == (0, 0, 0, 0)


class TestClassicSteps:
    def test_blowup_is_reported_not_raised(self):
        params = ModelParams(
            epsilon=0.02, theta=0.8, theta_c=1.6, delta=0.05, kappa=2.0, sigma=30.0,
            M=64, tau=0.1,
        )
        u0 = random_initial(params.grid(), 0.2, 0.05, seed=7)
        for scheme in ("etd1", "etdrk2"):
            state, diagnostics, status = advance(u0, params, scheme, 1000, collect=True)
            assert status == "blowup"
            assert diagnostics[-1].status == "blowup"
            assert diagnostics[-1].sup_norm >= 1.0
            assert state.step_index < 1000

    @staticmethod
    def _etdrk2_blowup(M, seed):
        params = ModelParams(
            epsilon=0.02, theta=0.8, theta_c=1.6, delta=0.05, kappa=2.0, sigma=30.0,
            M=M, tau=0.1,
        )
        u0 = random_initial(params.grid(), 0.2, 0.05, seed)
        states = []
        state, _, status = advance(
            u0, params, "etdrk2", 1000, on_step=lambda s, d: states.append(s)
        )
        assert status == "blowup"
        assert state.step_index == 12
        return params, states[-2], state

    def test_etdrk2_midpoint_blowup_records_the_midpoint(self):
        params, prev, state = self._etdrk2_blowup(16, 2)
        u_mid = predict(prev, params)
        assert np.max(np.abs(u_mid)) >= 1.0
        assert np.array_equal(state.u, u_mid)

    def test_etdrk2_final_stage_blowup_records_the_final_prediction(self):
        params, prev, state = self._etdrk2_blowup(8, 1)
        u_mid = predict(prev, params)
        assert np.max(np.abs(u_mid)) < 1.0
        assert np.array_equal(state.u, predict(prev, params, u_mid))

    def test_projected_variants_survive_the_same_scenario(self):
        params = ModelParams(
            epsilon=0.02, theta=0.8, theta_c=1.6, delta=0.05, kappa=2.0, sigma=30.0,
            M=64, tau=0.1,
        )
        u0 = random_initial(params.grid(), 0.2, 0.05, seed=7)
        for scheme in ("p-etd1", "p-etdrk2"):
            _, _, status = advance(u0, params, scheme, 200)
            assert status == "ok"


class TestInitialFields:
    def test_sine_profile_values(self):
        params = ModelParams(M=64)
        grid = params.grid()
        u = sine_initial(grid, 0.1)
        X, Y = grid.mesh()
        assert np.max(np.abs(u - 0.1 * np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y))) == 0.0
        assert abs(grid.mean(u)) < 1e-15

    def test_sine_profile_has_the_period_of_the_domain(self):
        grid = Grid(10, 2.5)
        u = sine_initial(grid, 0.1)
        X, Y = grid.mesh()
        expected = 0.1 * np.sin(2 * np.pi * X / 2.5) * np.sin(2 * np.pi * Y / 2.5)
        assert np.max(np.abs(u - expected)) <= 1e-15
        assert np.max(np.abs(u)) > 0.09

    def test_random_field_is_reproducible_and_in_range(self):
        grid = ModelParams(M=32).grid()
        a = random_initial(grid, 0.2, 0.05, seed=11)
        b = random_initial(grid, 0.2, 0.05, seed=11)
        c = random_initial(grid, 0.2, 0.05, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(np.abs(a - 0.2) <= 0.05)


class TestRun:
    def test_zero_initial_data_stays_zero(self, tmp_path):
        config = parse_config(
            "",
            {
                "scheme": "p-etd1",
                "M": "16",
                "tau": "0.01",
                "T_final": "0.1",
                "initial": "sine(0.0)",
                "snapshot_times": "0.0, 0.1",
                "output_dir": str(tmp_path / "out"),
            },
        )
        result = run(config)
        assert result.status == "ok"
        assert np.max(np.abs(result.state.u)) == 0.0
        assert len(result.snapshot_paths) == 2
        assert result.csv_path.exists()

    def test_same_config_gives_bitwise_identical_diagnostics(self, tmp_path):
        base = {
            "scheme": "p-etdrk2",
            "M": "32",
            "tau": "0.1",
            "T_final": "2.0",
            "kappa": "2.0",
            "initial": "random(0.2, 0.05, 42)",
        }
        cfg_a = parse_config("", {**base, "output_dir": str(tmp_path / "a")})
        cfg_b = parse_config("", {**base, "output_dir": str(tmp_path / "b")})
        run(cfg_a)
        run(cfg_b)
        bytes_a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
        bytes_b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
        assert bytes_a == bytes_b
        header = bytes_a.decode().splitlines()[0]
        assert header == (
            "step,t,sup_norm,mass,mass_increment,energy,xi,lambda_sup,"
            "projection_iterations,clamped_fraction,status"
        )

    def test_blowup_run_reports_event_time_and_nan_energy_row(self, tmp_path):
        config = parse_config(
            "",
            {
                "scheme": "etd1",
                "M": "64",
                "tau": "0.1",
                "T_final": "100.0",
                "kappa": "2.0",
                "initial": "random(0.2, 0.05, 7)",
                "output_dir": str(tmp_path / "blow"),
            },
        )
        result = run(config)
        assert result.status == "blowup"
        assert result.blowup_time == pytest.approx(result.state.t)
        last = result.diagnostics[-1]
        assert last.status == "blowup"
        assert np.isnan(last.energy)
        assert all(np.isfinite(d.energy) for d in result.diagnostics[:-1])


def test_projection_tolerance_is_per_unit_area(monkeypatch):
    # at L = 2 the solve may stop within PROJECTION_TOL * L^2
    monkeypatch.setattr(projection, "PROJECTION_MAX_ITER", 1)
    params = ModelParams(L=2.0, M=4)
    u = 1.3 * np.random.default_rng(0).uniform(-1.0, 1.0, (4, 4))
    with pytest.raises(ProjectionConvergenceError, match="tolerance 4.000e-13"):
        project(u, params, 0.5)


def test_thread_budget_env_override(monkeypatch):
    monkeypatch.setenv("NCH_THREADS", "3")
    assert thread_budget() == 3
    monkeypatch.setenv("NCH_THREADS", "0")
    with pytest.raises(ValueError):
        thread_budget()
    monkeypatch.delenv("NCH_THREADS")
    assert thread_budget() >= 1
