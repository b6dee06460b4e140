"""Acceptance criteria for the package, one test per criterion.

Each test prints one `PASS criterion-N: ...` line (run pytest with -s to see
them inline).  Criteria 1-2 share one fine-step benchmark solution; criteria
3-5 share the long random-start comparison runs.  Criterion 10 is the
documented soft check: isolated energy upticks beyond the slack warn instead
of failing, systematic ones fail.
"""

import warnings

import numpy as np
import pytest

from nch import ModelParams, laplace_symbol, phi0, phi1, phi2
from nch.experiments import (
    convergence_study,
    fit_loglog_slope,
    minority_structure_count,
    reference_field,
    sigma_sweep,
)
from nch.operators import apply_phi, nonlinear_F
from nch.projection import project
from nch.stepper import advance, random_initial, sine_initial
from oracles import bisect_xi, dense_phi_apply, feasible_fields
from test_operators import PHI_ORACLE

CONVERGENCE_SETUP = dict(
    epsilon=0.02, theta=0.8, theta_c=1.6, delta=0.05, kappa=1.0, sigma=30.0, M=128
)
COMPARISON_SETUP = dict(
    epsilon=0.02, theta=0.8, theta_c=1.6, delta=0.05, kappa=2.0, sigma=30.0, M=128
)
TAU_LIST = [1e-4 / 2**k for k in range(5)]
T_CONV = 0.02


def report(criterion, text):
    print(f"\nPASS criterion-{criterion}: {text}")


@pytest.fixture(scope="session")
def convergence_reports():
    """Both schemes against one shared fine-step benchmark."""
    params = ModelParams(**CONVERGENCE_SETUP)
    study = dict(T_final=T_CONV, amplitude=0.1)
    reference = reference_field(params, 1e-6, **study)
    return {
        scheme: convergence_study(scheme, params, TAU_LIST, 1e-6, reference, **study)
        for scheme in ("p-etd1", "p-etdrk2")
    }


@pytest.fixture(scope="session")
def comparison_runs():
    """The long random-start scenario for every scheme, seeded."""
    params = ModelParams(**COMPARISON_SETUP, tau=0.1)
    u0 = random_initial(params.grid(), 0.2, 0.05, seed=2024)
    runs = {}
    for scheme in ("p-etd1", "p-etdrk2", "etd1", "etdrk2"):
        runs[scheme] = advance(u0, params, scheme, 1000, collect=True)
    return runs


def test_criterion_1_temporal_order_p_etd1(convergence_reports):
    report_data = convergence_reports["p-etd1"]
    errors = [row.l2_error for row in report_data.rows]
    assert errors == sorted(errors, reverse=True), f"errors not monotone: {errors}"
    rates = report_data.rates
    assert len(rates) == 4
    assert all(0.75 <= r <= 1.3 for r in rates), f"rates out of window: {rates}"
    report(1, f"p-etd1 rates {[round(r, 4) for r in rates]} within [0.75, 1.3]")


def test_criterion_2_temporal_order_p_etdrk2(convergence_reports):
    report_data = convergence_reports["p-etdrk2"]
    errors = [row.l2_error for row in report_data.rows]
    assert errors == sorted(errors, reverse=True), f"errors not monotone: {errors}"
    rates = report_data.rates
    assert all(1.8 <= r <= 2.2 for r in rates), f"rates out of window: {rates}"
    report(2, f"p-etdrk2 rates {[round(r, 4) for r in rates]} within [1.8, 2.2]")


def test_criterion_3_bound_preservation(comparison_runs):
    bound = 1.0 - COMPARISON_SETUP["delta"]
    for scheme in ("p-etd1", "p-etdrk2"):
        state, diagnostics, status = comparison_runs[scheme]
        assert status == "ok"
        assert len(diagnostics) == 1001
        for d in diagnostics:
            assert d.sup_norm <= bound  # exact: clamped values never exceed
    report(3, f"sup-norm <= {bound} exactly over 1000 steps of both schemes")


def test_criterion_4_mass_conservation(comparison_runs):
    area = 1.0
    worst = {}
    for scheme in ("p-etd1", "p-etdrk2"):
        _, diagnostics, _ = comparison_runs[scheme]
        worst[scheme] = max(abs(d.mass_increment) for d in diagnostics)
        assert worst[scheme] <= 1e-12 * area, f"{scheme}: {worst[scheme]:.3e}"
    report(4, "mass increments over 1000 steps: " + ", ".join(
        f"{s}={worst[s]:.2e}" for s in worst) + " (<= 1e-12)")


def test_criterion_5_blowup_contrast(comparison_runs):
    for scheme in ("etd1", "etdrk2"):
        state, diagnostics, status = comparison_runs[scheme]
        assert status == "blowup", f"{scheme} unexpectedly survived"
        assert diagnostics[-1].status == "blowup"
        assert diagnostics[-1].sup_norm > 1.0
        assert state.step_index < 1000
    for scheme in ("p-etd1", "p-etdrk2"):
        assert comparison_runs[scheme][2] == "ok"
    steps = {s: comparison_runs[s][0].step_index for s in ("etd1", "etdrk2")}
    report(5, f"classic schemes blew up (at steps {steps}), projected ones completed")


def test_criterion_6_projection_correctness():
    params = ModelParams(M=8, delta=0.05)
    grid = params.grid()
    delta, bound = params.delta, params.bound
    rng = np.random.default_rng(123)
    worst_kkt = worst_oracle = worst_contraction = 0.0
    for _ in range(500):
        utilde = 1.3 * rng.uniform(-1.0, 1.0, (8, 8))
        target = 0.6 * grid.mass(np.clip(utilde, -bound, bound))
        result = project(utilde, params, target)

        stationarity = result.u - utilde - result.lam * (-2.0 * result.u) - result.xi
        slack = result.lam * (bound**2 - result.u**2)
        kkt = max(np.max(np.abs(stationarity)), np.max(np.abs(slack)))
        worst_kkt = max(worst_kkt, kkt)
        assert kkt <= 1e-12
        assert np.all(result.lam >= 0.0)
        assert np.max(np.abs(result.u)) <= bound
        assert abs(grid.mass(result.u) - target) <= 1e-12 * max(1.0, abs(target))

        xi_oracle = bisect_xi(utilde, delta, target, grid.h)
        worst_oracle = max(worst_oracle, abs(result.xi - xi_oracle))
        assert result.xi == pytest.approx(xi_oracle, abs=1e-10)

        rivals = feasible_fields(rng, 1000, (8, 8), delta, target, grid.h)
        objective = grid.norm2(result.u - utilde) ** 2
        rival_objectives = grid.h**2 * np.sum((rivals - utilde) ** 2, axis=(1, 2))
        assert np.all(objective <= rival_objectives + 1e-12)

        # contraction toward every admissible rival
        to_rivals = grid.h**2 * np.sum((rivals - result.u[None]) ** 2, axis=(1, 2))
        to_utilde = grid.norm2(result.u - utilde) ** 2
        from_utilde = grid.h**2 * np.sum((rivals - utilde[None]) ** 2, axis=(1, 2))
        gap = np.max(to_rivals + to_utilde - from_utilde)
        worst_contraction = max(worst_contraction, gap)
        assert gap <= 1e-12
    report(
        6,
        f"500 instances: KKT residual <= {worst_kkt:.1e}, xi vs bisection "
        f"<= {worst_oracle:.1e}, optimal vs 1000 rivals each, contraction "
        f"slack <= {worst_contraction:.1e}",
    )


def test_criterion_7_phi_accuracy():
    for text, p0, p1, p2 in PHI_ORACLE:
        a = float(text)
        assert phi0(a) == pytest.approx(p0, rel=1e-13)
        assert phi1(a) == pytest.approx(p1, rel=1e-13)
        assert phi2(a) == pytest.approx(p2, rel=1e-13)
    rng = np.random.default_rng(99)
    a = np.exp(rng.uniform(np.log(1e-6), np.log(700.0), 10_000))
    e0 = (1.0 + a) * phi0(a)
    e1 = (1.0 + a) * phi1(a)
    e2 = (1.0 + a) * phi2(a)
    e12 = (1.0 + a) * (phi1(a) - phi2(a))
    assert np.all((0.0 < e0) & (e0 < 1.0))
    assert np.all((1.0 < e1) & (e1 < 2.0))
    assert np.all((0.5 < e2) & (e2 < 1.0))
    assert np.all((0.0 < e12) & (e12 < 1.0))
    report(7, "phi kernels match the frozen oracle to 1e-13; scaled "
              "inequalities hold for 10^4 random arguments")


def test_criterion_8_stencil_spectral_equivalence():
    grid = ModelParams(M=64).grid()
    symbol = laplace_symbol(grid)[:, : grid.M // 2 + 1]
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        v = rng.uniform(-1.0, 1.0, (64, 64))
        worst = max(worst, float(np.max(np.abs(apply_phi(v, symbol) - grid.laplace(v)))))
    assert worst <= 1e-10
    report(8, f"stencil vs DFT-symbol application: max discrepancy {worst:.2e}")


def test_criterion_9_dense_eigendecomposition_oracle():
    params = ModelParams(**{**CONVERGENCE_SETUP, "M": 16}, tau=1e-4)
    grid = params.grid()
    u0 = sine_initial(grid, 0.1)

    f = nonlinear_F(u0, params)
    predictor_dense = dense_phi_apply(params, phi0, u0) + params.tau * dense_phi_apply(
        params, phi1, f
    )
    oracle = project(predictor_dense, params, grid.mass(predictor_dense))

    stepped, _, _ = advance(u0, params, "p-etd1", 1)
    gap = float(np.max(np.abs(stepped.u - oracle.u)))
    assert gap <= 1e-8
    report(9, f"one p-etd1 step vs dense eigendecomposition: max gap {gap:.2e}")


def test_criterion_10_energy_decrease_soft():
    params = ModelParams(
        epsilon=0.02, theta=0.8, theta_c=1.6, delta=0.05, kappa=2.0, sigma=70.0,
        M=128, tau=0.1,
    )
    u0 = random_initial(params.grid(), 0.3, 0.05, seed=2024)
    _, diagnostics, status = advance(u0, params, "p-etdrk2", 2000, collect=True)
    assert status == "ok"
    energies = np.array([d.energy for d in diagnostics])
    increments = np.diff(energies)
    violations = np.flatnonzero(increments > 1e-8)
    if violations.size:
        consecutive = np.max(np.diff(violations) == 1) if violations.size > 1 else False
        isolated = violations.size <= 10 and not consecutive
        message = (
            f"{violations.size} energy increase(s) beyond 1e-8 slack, "
            f"max {np.max(increments):.3e}"
        )
        assert isolated, message
        warnings.warn("criterion-10 soft warning: " + message)
        report(10, f"energy non-increasing up to {violations.size} isolated "
                   f"warned uptick(s) over 2000 steps")
    else:
        report(10, f"energy non-increasing over 2000 steps "
                   f"(max increment {np.max(increments):.2e} <= 1e-8)")


def test_criterion_11_sigma_scaling():
    params = ModelParams(
        epsilon=0.02, theta=0.8, theta_c=1.6, delta=0.05, kappa=2.0, M=256, tau=0.1
    )
    results, slope = sigma_sweep([10.0, 30.0, 70.0], params, T_final=500.0, seed=7)
    counts = [r.count for r in results]
    assert counts[0] < counts[1] < counts[2], f"counts not increasing: {counts}"
    assert slope is not None and 0.45 <= slope <= 0.9, f"slope {slope} out of window"
    report(11, f"structure counts {counts} for sigma (10, 30, 70), "
               f"log-log slope {slope:.3f} in [0.45, 0.9]")
