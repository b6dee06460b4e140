import numpy as np
import pytest

from nch import Grid, ModelParams, project, projection
from nch.errors import InfeasibleMassError, NonFiniteFieldError, ProjectionConvergenceError
from oracles import (
    PREDICTED_CASES,
    bisect_xi,
    clamp_with_multiplier,
    feasible_fields,
    predicted_field,
)

DELTA = 0.05
BOUND = 1.0 - DELTA


def random_overshooting(rng, grid, spread=1.3):
    return spread * rng.uniform(-1.0, 1.0, (grid.M, grid.M))


class TestClamp:
    def test_interior_is_untouched(self):
        u, lam = clamp_with_multiplier(np.zeros((4, 4)), 0.0, DELTA)
        assert np.array_equal(u, np.zeros((4, 4)))
        assert np.array_equal(lam, np.zeros((4, 4)))

    def test_high_branch_hand_value(self):
        u, lam = clamp_with_multiplier(np.array([[1.2]]), 0.0, DELTA)
        assert u[0, 0] == BOUND
        assert lam[0, 0] == pytest.approx(0.25 / 1.9, rel=1e-15)

    def test_low_branch_is_odd_symmetric(self):
        u, lam = clamp_with_multiplier(np.array([[-1.2]]), 0.0, DELTA)
        assert u[0, 0] == -BOUND
        assert lam[0, 0] == pytest.approx(0.25 / 1.9, rel=1e-15)

    def test_boundary_tie_stays_unclamped(self):
        u, lam = clamp_with_multiplier(np.array([[BOUND, -BOUND]]), 0.0, DELTA)
        assert np.array_equal(u, np.array([[BOUND, -BOUND]]))
        assert np.array_equal(lam, np.zeros((1, 2)))

    def test_multiplier_nonnegative_and_bound_exact(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            s = 2.0 * rng.uniform(-1, 1, (8, 8))
            u, lam = clamp_with_multiplier(s, rng.uniform(-0.3, 0.3), DELTA)
            assert np.all(lam >= 0.0)
            assert np.max(np.abs(u)) <= BOUND  # exact, no rounding excess

    def test_invalid_delta_rejected(self):
        with pytest.raises(ValueError):
            clamp_with_multiplier(np.zeros((2, 2)), 0.0, 1.5)


class TestMassResidual:
    def test_two_by_two_derived_root(self):
        # utilde = {1.2, 0.5, -0.3, 0.2}, target = <utilde, 1> = 0.4; with the
        # clamp pattern {high, in, in, in} the root is xi* = 0.25/3.
        grid = Grid(2, 1.0)
        u = np.array([[1.2, 0.5], [-0.3, 0.2]])
        target = grid.mass(u)
        assert target == pytest.approx(0.4, rel=1e-15)
        xi_star = bisect_xi(u, DELTA, target, grid.h, tol=1e-15)
        assert xi_star == pytest.approx(0.25 / 3.0, abs=1e-12)
        s = u + xi_star
        assert s[0, 0] > BOUND and np.all(np.abs(s.ravel()[1:]) <= BOUND)
        assert abs(grid.mass(np.clip(s, -BOUND, BOUND)) - target) < 1e-13


class TestSolveXi:
    def test_admissible_matching_mass_accepts_at_iteration_zero(self):
        params = ModelParams(M=8, delta=DELTA)
        rng = np.random.default_rng(3)
        u = 0.5 * rng.uniform(-1, 1, (8, 8))
        target = params.grid().mass(u)
        result = project(u, params, target)
        assert result.xi == 0.0
        assert result.iterations == 0
        assert result.mass - target == 0.0

    def test_two_by_two_case_agrees_with_bisection_oracle(self):
        params = ModelParams(M=2, L=1.0, delta=DELTA)
        u = np.array([[1.2, 0.5], [-0.3, 0.2]])
        target = params.grid().mass(u)
        result = project(u, params, target)
        assert result.xi == pytest.approx(0.25 / 3.0, abs=1e-12)
        assert abs(result.mass - target) <= 1e-13

    def test_random_instances_agree_with_bisection_oracle(self):
        rng = np.random.default_rng(4)
        for M in (1, 2, 3, 8, 16, 33):
            for _ in range(50):
                params = ModelParams(
                    M=M, L=rng.uniform(0.5, 8.0), delta=rng.uniform(0.01, 0.5)
                )
                grid = params.grid()
                u = random_overshooting(rng, grid, spread=rng.uniform(0.2, 3.0))
                # targets across the feasible interval (-area, area) * (1 - delta)
                target = rng.uniform(-0.99, 0.99) * grid.area * params.bound
                result = project(u, params, target)
                assert result.xi == pytest.approx(
                    bisect_xi(u, params.delta, target, grid.h), abs=1e-10
                )
                assert abs(result.mass - target) <= 1e-14 * grid.area

    def test_shift_property_for_interior_roots(self):
        # Shifting the field by c and the target by c L^2 leaves the root
        # unchanged as long as no entry clamps (clamped values do not
        # translate, so the identity is specific to the pure-translation
        # regime); instances here are built to keep every entry interior.
        params = ModelParams(M=8, delta=DELTA)
        grid = params.grid()
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = 0.5 * rng.uniform(-1.0, 1.0, (8, 8))
            target = grid.mass(u) + rng.uniform(-0.1, 0.1) * grid.area
            c = rng.uniform(-0.2, 0.2)
            xi = project(u, params, target).xi
            xi_shifted = project(u + c, params, target + c * grid.area).xi
            assert xi_shifted == pytest.approx(xi, abs=1e-12)

    def test_infeasible_target_rejected(self):
        params = ModelParams(M=4, delta=DELTA)
        with pytest.raises(InfeasibleMassError):
            project(np.zeros((4, 4)), params, params.grid().area)

    @pytest.mark.parametrize("target", [None, 0.1])
    def test_nan_entry_is_named_for_both_mass_targets(self, target):
        # None is the predictor's own (NaN) mass; 0.1 a finite initial mass
        params = ModelParams(M=8, delta=DELTA)
        u = np.zeros((8, 8))
        u[2, 5] = np.nan
        if target is None:
            target = params.grid().mass(u)
        with pytest.raises(NonFiniteFieldError):
            project(u, params, target)

    def test_iteration_budget_exhaustion_reports_residual(self, monkeypatch):
        monkeypatch.setattr(projection, "PROJECTION_MAX_ITER", 1)
        params = ModelParams(M=4, delta=DELTA)
        rng = np.random.default_rng(6)
        u = random_overshooting(rng, params.grid())
        with pytest.raises(ProjectionConvergenceError) as info:
            project(u, params, 0.123)
        assert np.isfinite(info.value.residual)


class TestProject:
    def test_admissible_field_is_a_fixed_point(self):
        params = ModelParams(M=8, delta=DELTA)
        rng = np.random.default_rng(7)
        u = 0.5 * rng.uniform(-1, 1, (8, 8))
        result = project(u, params, params.grid().mass(u))
        assert np.array_equal(result.u, u)
        assert np.max(result.lam) == 0.0
        assert result.xi == 0.0

    def test_idempotence(self):
        params = ModelParams(M=8, delta=DELTA)
        grid = params.grid()
        rng = np.random.default_rng(8)
        utilde = random_overshooting(rng, grid)
        first = project(utilde, params, grid.mass(utilde))
        second = project(first.u, params, grid.mass(first.u))
        assert np.array_equal(second.u, first.u)
        assert second.xi == 0.0
        assert np.max(second.lam) == 0.0

    def test_kkt_stationarity_and_complementarity(self):
        params = ModelParams(M=8, delta=DELTA)
        grid = params.grid()
        rng = np.random.default_rng(9)
        for _ in range(50):
            utilde = random_overshooting(rng, grid)
            target = 0.5 * grid.mass(np.clip(utilde, -BOUND, BOUND))
            res = project(utilde, params, target)
            g_prime = -2.0 * res.u
            stationarity = res.u - utilde - res.lam * g_prime - res.xi
            assert np.max(np.abs(stationarity)) < 1e-12
            slack = res.lam * (BOUND**2 - res.u**2)
            assert np.max(np.abs(slack)) < 1e-12
            assert np.all(res.lam >= 0.0)
            assert np.max(np.abs(res.u)) <= BOUND
            assert abs(grid.mass(res.u) - target) <= 1e-12 * max(1.0, abs(target))

    def test_minimizes_distance_among_feasible_fields(self):
        params = ModelParams(M=8, delta=DELTA)
        grid = params.grid()
        rng = np.random.default_rng(10)
        for _ in range(10):
            utilde = random_overshooting(rng, grid)
            target = 0.5 * grid.mass(np.clip(utilde, -BOUND, BOUND))
            res = project(utilde, params, target)
            objective = grid.norm2(res.u - utilde) ** 2
            rivals = feasible_fields(rng, 200, (8, 8), DELTA, target, grid.h)
            rival_objectives = grid.h**2 * np.sum((rivals - utilde) ** 2, axis=(1, 2))
            assert np.all(objective <= rival_objectives + 1e-12)

    def test_projection_is_contractive_toward_admissible_fields(self):
        params = ModelParams(M=8, delta=DELTA)
        grid = params.grid()
        rng = np.random.default_rng(11)
        for _ in range(20):
            utilde = random_overshooting(rng, grid)
            target = 0.5 * grid.mass(np.clip(utilde, -BOUND, BOUND))
            res = project(utilde, params, target)
            w = feasible_fields(rng, 1, (8, 8), DELTA, target, grid.h)[0]
            lhs = grid.norm2(res.u - w) ** 2 + grid.norm2(res.u - utilde) ** 2
            rhs = grid.norm2(utilde - w) ** 2
            assert lhs <= rhs + 1e-12


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("M", [1, 2, 3, 16, 33])
@pytest.mark.parametrize("case", PREDICTED_CASES)
def test_own_mass_diagnostics_are_bitwise_those_of_the_field(M, case):
    # under the default target (the predictor's own mass) an admissible
    # field exits at the probe; either way the diagnostics must read as
    # the full field and multiplier give them
    params = ModelParams(M=M, delta=DELTA)
    grid = params.grid()
    utilde = predicted_field(case, M, BOUND)
    _assert_diagnostics_are_those_of_the_field(
        project(utilde, params, grid.mass(utilde)), grid
    )


@pytest.mark.parametrize("M", [1, 3, 16, 33])
@pytest.mark.parametrize("case", PREDICTED_CASES)
def test_multiplier_is_bitwise_the_oracle_clamp(M, case):
    # lam is built from |s| - bound; the oracle builds each branch apart
    params = ModelParams(M=M, L=1.5, delta=DELTA)
    utilde = predicted_field(case, M, BOUND)
    for target in (params.mass(utilde), 0.3 * params.area):
        result = project(utilde, params, target)
        lam = clamp_with_multiplier(utilde, result.xi, DELTA)[1]
        assert result.lam.tobytes() == lam.tobytes()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_saturated_target_returns_the_constant_field(sign):
    # at +-L^2 bound, or within the tolerance above it, the one admissible
    # field is the constant +-bound, at the saturating end of the bracket;
    # further out no field is admissible
    params = ModelParams(M=4, L=3.0, delta=DELTA)
    grid = params.grid()
    utilde = sign * (BOUND + 0.2 * np.random.default_rng(12).uniform(-1.0, 1.0, (4, 4)))
    saturation = grid.area * BOUND
    for excess in (0.0, 0.5e-13):
        result = project(utilde, params, sign * (saturation + excess * grid.area))
        assert np.array_equal(result.u, np.full((4, 4), sign * BOUND))
        assert result.iterations == 0
        assert result.xi == (BOUND - utilde.min() if sign > 0 else -BOUND - utilde.max())
        _assert_diagnostics_are_those_of_the_field(result, grid)
    with pytest.raises(InfeasibleMassError):
        project(utilde, params, sign * (saturation + 1e-10 * grid.area))


def _assert_diagnostics_are_those_of_the_field(result, grid):
    assert _bits(result.sup_norm) == _bits(grid.norm_inf(result.u))
    assert _bits(result.mass) == _bits(grid.mass(result.u))
    assert _bits(result.lambda_sup) == _bits(float(np.max(result.lam)))
    assert result.clamped == np.count_nonzero(result.lam > 0.0)
