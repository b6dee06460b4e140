import numpy as np
import pytest

from nch import Grid, clamp_with_multiplier, mass_residual, project, solve_xi
from nch.errors import InfeasibleMassError, NonFiniteFieldError, ProjectionConvergenceError
from oracles import PREDICTED_CASES, bisect_xi, feasible_fields, predicted_field

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
    def test_saturation_value(self):
        grid = Grid(4, 1.0)
        u = np.zeros((4, 4))
        r = mass_residual(grid, u, xi=10.0, delta=DELTA, target_mass=0.2)
        assert r == pytest.approx(grid.area * BOUND - 0.2, rel=1e-14)

    def test_noop_at_matching_mass(self):
        grid = Grid(8)
        rng = np.random.default_rng(1)
        u = 0.5 * rng.uniform(-1, 1, (8, 8))
        assert mass_residual(grid, u, 0.0, DELTA, grid.mass(u)) == 0.0

    def test_nondecreasing_in_xi(self):
        grid = Grid(8)
        rng = np.random.default_rng(2)
        u = random_overshooting(rng, grid)
        values = [
            mass_residual(grid, u, xi, DELTA, 0.0) for xi in np.linspace(-3, 3, 201)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

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
        assert abs(mass_residual(grid, u, xi_star, DELTA, target)) < 1e-13


class TestSolveXi:
    def test_admissible_matching_mass_accepts_at_iteration_zero(self):
        grid = Grid(8)
        rng = np.random.default_rng(3)
        u = 0.5 * rng.uniform(-1, 1, (8, 8))
        xi, iterations, residual = solve_xi(grid, u, DELTA, grid.mass(u))
        assert xi == 0.0
        assert iterations == 0
        assert residual == 0.0

    def test_two_by_two_case_agrees_with_bisection_oracle(self):
        grid = Grid(2, 1.0)
        u = np.array([[1.2, 0.5], [-0.3, 0.2]])
        xi, _, residual = solve_xi(grid, u, DELTA, grid.mass(u))
        assert xi == pytest.approx(0.25 / 3.0, abs=1e-12)
        assert abs(residual) <= 1e-13

    def test_random_instances_agree_with_bisection_oracle(self):
        rng = np.random.default_rng(4)
        for M in (1, 2, 3, 8, 16, 33):
            for _ in range(50):
                grid = Grid(M, rng.uniform(0.5, 8.0))
                delta = rng.uniform(0.01, 0.5)
                u = random_overshooting(rng, grid, spread=rng.uniform(0.2, 3.0))
                # targets across the feasible interval (-area, area) * (1 - delta)
                target = rng.uniform(-0.99, 0.99) * grid.area * (1.0 - delta)
                xi, _, residual = solve_xi(grid, u, delta, target)
                assert xi == pytest.approx(
                    bisect_xi(u, delta, target, grid.h), abs=1e-10
                )
                assert abs(residual) <= 1e-14 * grid.area

    def test_shift_property_for_interior_roots(self):
        # Shifting the field by c and the target by c L^2 leaves the root
        # unchanged as long as no entry clamps (clamped values do not
        # translate, so the identity is specific to the pure-translation
        # regime); instances here are built to keep every entry interior.
        grid = Grid(8)
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = 0.5 * rng.uniform(-1.0, 1.0, (8, 8))
            target = grid.mass(u) + rng.uniform(-0.1, 0.1) * grid.area
            c = rng.uniform(-0.2, 0.2)
            xi, _, _ = solve_xi(grid, u, DELTA, target)
            xi_shifted, _, _ = solve_xi(grid, u + c, DELTA, target + c * grid.area)
            assert xi_shifted == pytest.approx(xi, abs=1e-12)

    def test_infeasible_target_rejected(self):
        grid = Grid(4)
        with pytest.raises(InfeasibleMassError):
            solve_xi(grid, np.zeros((4, 4)), DELTA, grid.area)

    @pytest.mark.parametrize("target", [None, 0.1])
    def test_nan_entry_is_named_for_both_mass_targets(self, target):
        # None is the predictor's own (NaN) mass; 0.1 a finite initial mass
        grid = Grid(8)
        u = np.zeros((8, 8))
        u[2, 5] = np.nan
        with pytest.raises(NonFiniteFieldError):
            project(grid, u, DELTA, target_mass=target)

    def test_iteration_budget_exhaustion_reports_residual(self):
        grid = Grid(4)
        rng = np.random.default_rng(6)
        u = random_overshooting(rng, grid)
        with pytest.raises(ProjectionConvergenceError) as info:
            solve_xi(grid, u, DELTA, 0.123, max_iter=1)
        assert np.isfinite(info.value.residual)


class TestProject:
    def test_admissible_field_is_a_fixed_point(self):
        grid = Grid(8)
        rng = np.random.default_rng(7)
        u = 0.5 * rng.uniform(-1, 1, (8, 8))
        result = project(grid, u, DELTA)
        assert np.array_equal(result.u, u)
        assert np.max(result.lam) == 0.0
        assert result.xi == 0.0

    def test_idempotence(self):
        grid = Grid(8)
        rng = np.random.default_rng(8)
        first = project(grid, random_overshooting(rng, grid), DELTA)
        second = project(grid, first.u, DELTA)
        assert np.array_equal(second.u, first.u)
        assert second.xi == 0.0
        assert np.max(second.lam) == 0.0

    def test_kkt_stationarity_and_complementarity(self):
        grid = Grid(8)
        rng = np.random.default_rng(9)
        for _ in range(50):
            utilde = random_overshooting(rng, grid)
            target = 0.5 * grid.mass(np.clip(utilde, -BOUND, BOUND))
            res = project(grid, utilde, DELTA, target)
            g_prime = -2.0 * res.u
            stationarity = res.u - utilde - res.lam * g_prime - res.xi
            assert np.max(np.abs(stationarity)) < 1e-12
            slack = res.lam * (BOUND**2 - res.u**2)
            assert np.max(np.abs(slack)) < 1e-12
            assert np.all(res.lam >= 0.0)
            assert np.max(np.abs(res.u)) <= BOUND
            assert abs(grid.mass(res.u) - target) <= 1e-12 * max(1.0, abs(target))

    def test_minimizes_distance_among_feasible_fields(self):
        grid = Grid(8)
        rng = np.random.default_rng(10)
        for _ in range(10):
            utilde = random_overshooting(rng, grid)
            target = 0.5 * grid.mass(np.clip(utilde, -BOUND, BOUND))
            res = project(grid, utilde, DELTA, target)
            objective = grid.norm2(res.u - utilde) ** 2
            rivals = feasible_fields(rng, 200, (8, 8), DELTA, target, grid.h)
            rival_objectives = grid.h**2 * np.sum((rivals - utilde) ** 2, axis=(1, 2))
            assert np.all(objective <= rival_objectives + 1e-12)

    def test_projection_is_contractive_toward_admissible_fields(self):
        grid = Grid(8)
        rng = np.random.default_rng(11)
        for _ in range(20):
            utilde = random_overshooting(rng, grid)
            target = 0.5 * grid.mass(np.clip(utilde, -BOUND, BOUND))
            res = project(grid, utilde, DELTA, target)
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
    grid = Grid(M)
    result = project(grid, predicted_field(case, M, BOUND), DELTA)
    assert _bits(result.sup_norm) == _bits(grid.norm_inf(result.u))
    assert _bits(result.mass) == _bits(grid.mass(result.u))
    assert _bits(result.lambda_sup) == _bits(float(np.max(result.lam)))
    assert result.clamped == np.count_nonzero(result.lam > 0.0)
