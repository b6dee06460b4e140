from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nch import (
    Grid,
    ModelParams,
    apply_phi,
    build_phi_table,
    energy,
    laplace_symbol,
    nonlinear_F,
    operator_eigenvalues,
    phi0,
    phi1,
    phi2,
)
from nch.errors import BoundViolationError
from nch.operators import chemical_potential
from nch.stepper import advance, random_initial
from oracles import complex_apply_phi, full_spectrum_energy, phi_series_fraction

# 60-digit evaluations of the closed forms, frozen before the implementation
# was written.
PHI_ORACLE = [
    ("1e-8", 0.99999999000000005, 0.99999999500000001667, 0.4999999983333333375),
    ("1e-4", 0.9999000049998333375, 0.99995000166662500083, 0.49998333374999166681),
    ("1e-2", 0.99004983374916805357, 0.99501662508319464261, 0.49833749168053573906),
    ("1", 0.3678794411714423216, 0.6321205588285576784, 0.3678794411714423216),
    ("10", 0.000045399929762484851536, 0.099995460007023751515, 0.090000453999297624849),
    ("100", 3.720075976020835963e-44, 0.01, 0.0099),
]


class TestPhiFunctions:
    def test_values_at_zero_are_the_limits(self):
        assert phi0(0.0) == 1.0
        assert phi1(0.0) == 1.0
        assert phi2(0.0) == 0.5

    def test_phi1_at_one(self):
        assert phi1(1.0) == pytest.approx(1.0 - np.exp(-1.0), rel=1e-15)

    @pytest.mark.parametrize("text,p0,p1,p2", PHI_ORACLE)
    def test_against_high_precision_oracle(self, text, p0, p1, p2):
        a = float(text)
        assert phi0(a) == pytest.approx(p0, rel=1e-13)
        assert phi1(a) == pytest.approx(p1, rel=1e-13)
        assert phi2(a) == pytest.approx(p2, rel=1e-13)

    def test_elementwise_on_arrays(self):
        a = np.array([0.0, 1e-6, 0.5, 40.0])
        np.testing.assert_allclose(phi0(a), np.exp(-a), rtol=1e-15)
        assert phi1(a).shape == a.shape

    @pytest.mark.parametrize("fn", [phi0, phi1, phi2])
    def test_domain_errors(self, fn):
        with pytest.raises(ValueError):
            fn(-1e-9)
        with pytest.raises(ValueError):
            fn(float("nan"))
        with pytest.raises(ValueError):
            fn(float("inf"))

    @given(st.floats(min_value=0.1, max_value=700.0))
    def test_defining_relations_above_series_cutoff(self, a):
        assert a * phi1(a) == pytest.approx(1.0 - phi0(a), rel=1e-13)
        assert a * a * phi2(a) == pytest.approx(phi0(a) - 1.0 + a, rel=1e-13)

    @given(st.floats(min_value=1e-12, max_value=0.0999))
    @settings(max_examples=200)
    def test_series_branch_matches_exact_rational_series(self, a):
        frac = Fraction(a)
        assert phi1(a) == pytest.approx(phi_series_fraction(frac, 1), rel=1e-14)
        assert phi2(a) == pytest.approx(phi_series_fraction(frac, 2), rel=1e-14)

    def test_scaled_phi_inequalities(self):
        # the bounds used throughout the stability arguments: for a > 0,
        # (1+a)phi0 in (0,1), (1+a)phi1 in (1,2), (1+a)phi2 in (1/2,1),
        # (1+a)(phi1-phi2) in (0,1)
        rng = np.random.default_rng(42)
        a = np.exp(rng.uniform(np.log(1e-6), np.log(700.0), 10_000))
        e0 = (1.0 + a) * phi0(a)
        e1 = (1.0 + a) * phi1(a)
        e2 = (1.0 + a) * phi2(a)
        e12 = (1.0 + a) * (phi1(a) - phi2(a))
        assert np.all((0.0 < e0) & (e0 < 1.0))
        assert np.all((1.0 < e1) & (e1 < 2.0))
        assert np.all((0.5 < e2) & (e2 < 1.0))
        assert np.all((0.0 < e12) & (e12 < 1.0))

    def test_decay_factor_bound_along_the_step(self):
        # The literal claim 0 < (1+a*tau)exp(-a(tau-s)) < 1 for 0 < s < tau
        # is false (take s -> tau); what holds, and what the schemes rely
        # on, is the first inequality above at the actual exponent argument
        # b = a(tau-s): 0 < (1+b)exp(-b) <= 1, strict for resolvable b.
        rng = np.random.default_rng(7)
        tau = rng.uniform(0.0, 1.0, 10_000)
        s = rng.uniform(0.0, 1.0, 10_000) * tau
        a = np.exp(rng.uniform(np.log(1e-6), np.log(1e3), 10_000))
        b = a * (tau - s)
        q = (1.0 + b) * np.exp(-b)
        assert np.all(q[b < 700] > 0.0)  # exp underflows to 0 past ~745
        assert np.all(q <= 1.0 + 1e-15)  # roundoff can land one ulp above 1
        resolvable = b > 1e-6
        assert np.all(q[resolvable] < 1.0)


class TestLaplaceSymbol:
    def test_closed_form_and_signs(self):
        grid = Grid(8, 2.0)
        d = laplace_symbol(grid)
        assert d[0, 0] == 0.0
        k, l = 3, 5
        expected = -(4.0 / grid.h**2) * (
            np.sin(np.pi * k / 8) ** 2 + np.sin(np.pi * l / 8) ** 2
        )
        assert d[k, l] == pytest.approx(expected, rel=1e-15)
        off_dc = d.copy()
        off_dc[0, 0] = -1.0
        assert np.all(off_dc < 0)

    def test_symbol_reproduces_stencil(self):
        grid = Grid(64)
        d = laplace_symbol(grid)
        rng = np.random.default_rng(0)
        v = rng.uniform(-1, 1, (64, 64))
        assert np.max(np.abs(apply_phi(v, d[:, :33]) - grid.laplace(v))) < 1e-10


class TestPhiTable:
    def test_dc_mode_reduces_to_sigma(self):
        params = ModelParams(M=16, sigma=30.0, tau=0.01)
        table = build_phi_table(params)
        assert operator_eigenvalues(params)[0, 0] == pytest.approx(30.0, rel=1e-15)
        assert table.phi0[0, 0] == pytest.approx(np.exp(-0.01 * 30.0), rel=1e-14)

    def test_hand_evaluated_two_mode_case(self):
        params = ModelParams(epsilon=0.02, kappa=1.0, sigma=30.0, M=2, L=1.0)
        # h = 1/2: d(1,0) = -(4/h^2) sin^2(pi/2) = -16
        ell = operator_eigenvalues(params)
        assert ell[1, 0] == pytest.approx(0.02**2 * 256 + 16 + 30, rel=1e-14)

    def test_eigenvalues_dominate_sigma(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            params = ModelParams(
                epsilon=rng.uniform(0.005, 0.1),
                sigma=rng.uniform(1.0, 100.0),
                kappa=rng.uniform(0.0, 3.0),
                M=16,
            )
            assert np.all(operator_eigenvalues(params) >= params.sigma)

    def test_table_entry_ranges(self):
        params = ModelParams(M=16, tau=1e-3)  # arguments stay representable
        table = build_phi_table(params)
        for column in (table.phi0, table.phi1, table.phi2, table.phi1m2):
            assert np.all(column > 0.0) and np.all(column <= 1.0)
        assert np.all(table.phi2 <= 0.5)
        np.testing.assert_allclose(table.phi1m2, table.phi1 - table.phi2, rtol=0, atol=0)

    def test_stiff_table_stays_in_range(self):
        # at tau*ell ~ 4e3 phi0 underflows to exactly 0; the rest stay positive
        table = build_phi_table(ModelParams(M=32, tau=0.1))
        assert np.all(table.phi0 >= 0.0) and np.all(table.phi0 <= 1.0)
        for column in (table.phi1, table.phi2, table.phi1m2):
            assert np.all(column > 0.0) and np.all(column <= 1.0)


def count_transforms(monkeypatch):
    """Count the calls of numpy's 2-D and n-D transforms by name, from now on:
    every entry point the benchmark's transform counter sees."""
    calls = {}

    def counted(name):
        original = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counted(name))
    return calls


def symmetric_table(rng, M):
    """Random full-spectrum table symmetric under (k, l) -> (M-k, M-l)."""
    t = rng.uniform(0.0, 1.0, (M, M))
    neg = -np.arange(M) % M
    return 0.5 * (t + t[np.ix_(neg, neg)])


class TestApplyPhi:
    @pytest.mark.parametrize("M", [1, 2, 3, 8, 15, 16, 33])
    def test_half_and_full_columns_match_the_complex_pair(self, M):
        rng = np.random.default_rng(M)
        v = rng.uniform(-1.0, 1.0, (M, M))
        full = symmetric_table(rng, M)
        reference = complex_apply_phi(v, full)
        out = apply_phi(v, full[:, : M // 2 + 1])
        assert out.shape == (M, M)
        assert np.max(np.abs(out - reference)) <= 1e-14 * np.max(np.abs(v))

    @pytest.mark.parametrize("M", [1, 3, 16, 33])
    def test_out_and_complex_columns_give_bitwise_the_allocating_call(self, M):
        rng = np.random.default_rng(M)
        v = rng.uniform(-1.0, 1.0, (M, M))
        column = symmetric_table(rng, M)[:, : M // 2 + 1]
        reference = apply_phi(v, column)
        out = np.empty((M, M))
        assert apply_phi(v, column, out=out) is out
        assert out.tobytes() == reference.tobytes()
        assert apply_phi(v, column.astype(complex)).tobytes() == reference.tobytes()
        in_place = v.copy()
        assert apply_phi(in_place, column, out=in_place) is in_place
        assert in_place.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("M", [1, 2, 7, 16])
    def test_phi_table_holds_the_half_spectrum(self, M):
        params = ModelParams(M=M, tau=1e-3)
        table = build_phi_table(params)
        full = params.tau * operator_eigenvalues(params)
        for column, fn in ((table.phi0, phi0), (table.phi1, phi1), (table.phi2, phi2)):
            assert column.shape == (M, M // 2 + 1)
            assert np.array_equal(column, fn(full)[:, : M // 2 + 1])

    def test_one_etdrk2_step_runs_four_real_pairs(self, monkeypatch):
        calls = count_transforms(monkeypatch)
        params = ModelParams(M=16, tau=0.1)
        u0 = random_initial(params.grid(), 0.2, 0.05, 1)
        advance(u0, params, "p-etdrk2", 1)
        assert calls == {"rfft2": 4, "irfftn": 4}

    def test_identity_table(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(-1, 1, (32, 32))
        assert np.max(np.abs(apply_phi(v, np.ones((32, 17))) - v)) < 1e-13

    def test_eigenvalue_table_matches_stencil_composition(self):
        params = ModelParams(epsilon=0.02, kappa=1.0, sigma=30.0, M=64)
        grid = params.grid()
        X, Y = grid.mesh()
        v = np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y)
        ell = operator_eigenvalues(params)
        via_table = apply_phi(v, ell[:, :33])
        lap = grid.laplace(v)
        via_stencil = (
            params.epsilon**2 * grid.laplace(lap) - params.kappa * lap + params.sigma * v
        )
        assert np.max(np.abs(via_table - via_stencil)) < 1e-8 * np.max(np.abs(ell))

    def test_vanishing_step_is_near_identity(self):
        params = ModelParams(M=8, kappa=2.0, tau=1e-12)
        table = build_phi_table(params)
        rng = np.random.default_rng(11)
        v = rng.uniform(-1, 1, (8, 8))
        assert np.max(np.abs(apply_phi(v, table.phi0) - v)) < 1e-9

    def test_shape_mismatch_rejected(self):
        # (8, 4) is a half spectrum without its Nyquist column, (8, 8) the
        # full spectrum
        for shape in [(4, 4), (8, 4), (8, 6), (5, 8), (8, 8)]:
            with pytest.raises(ValueError, match="shape"):
                apply_phi(np.ones((8, 8)), np.ones(shape))


class TestNonlinearF:
    def test_constant_field_maps_to_sigma_scaled_constant(self):
        params = ModelParams(M=16, sigma=30.0)
        out = nonlinear_F(np.full((16, 16), 0.4), params)
        np.testing.assert_allclose(out, 30.0 * 0.4, rtol=0, atol=1e-11)

    def test_zero_maps_to_zero(self):
        params = ModelParams(M=16)
        assert np.max(np.abs(nonlinear_F(np.zeros((16, 16)), params))) == 0.0

    def test_mean_is_sigma_scaled_mean(self):
        params = ModelParams(M=16, sigma=30.0)
        grid = params.grid()
        rng = np.random.default_rng(4)
        for _ in range(5):
            u = 0.8 * rng.uniform(-1, 1, (16, 16))
            residue = grid.mean(nonlinear_F(u, params)) - params.sigma * grid.mean(u)
            assert abs(residue) < 1e-12

    def test_bound_violation_names_the_worst_entry(self):
        params = ModelParams(M=8)
        u = np.zeros((8, 8))
        u[3, 5] = 1.0
        with pytest.raises(BoundViolationError, match=r"\(3, 5\)"):
            nonlinear_F(u, params)
        u[3, 5] = -1.2
        with pytest.raises(BoundViolationError, match="-1.2"):
            nonlinear_F(u, params)


@pytest.mark.parametrize("M", [1, 3, 16, 33])
def test_chemical_potential_out_is_bitwise_the_allocating_call(M):
    params = ModelParams(M=M)
    u = 0.9 * np.random.default_rng(M).uniform(-1.0, 1.0, (M, M))
    out = np.empty((M, M))
    assert chemical_potential(u, params, out=out) is out
    assert out.tobytes() == chemical_potential(u, params).tobytes()


class TestEnergy:
    def test_zero_field_has_zero_energy(self):
        assert energy(np.zeros((16, 16)), ModelParams(M=16)) == 0.0

    def test_constant_field_closed_form(self):
        params = ModelParams(M=16, L=2.0)
        c = 0.3
        expected = params.L**2 * (
            0.5 * params.theta * ((1 + c) * np.log(1 + c) + (1 - c) * np.log(1 - c))
            - 0.5 * params.theta_c * c**2
        )
        assert energy(np.full((16, 16), c), params) == pytest.approx(expected, rel=1e-13)

    def test_nonlocal_term_against_poisson_solve(self):
        # independent route: solve Lap_h w = u - mean(u) spectrally and
        # evaluate -<w, u - mean(u)>
        params = ModelParams(M=32, epsilon=0.02, sigma=30.0)
        grid = params.grid()
        rng = np.random.default_rng(8)
        u = 0.5 * rng.uniform(-1, 1, (32, 32))
        d = laplace_symbol(grid).copy()
        d[0, 0] = 1.0
        fluct = u - grid.mean(u)
        spec = np.fft.fft2(fluct) / d
        spec[0, 0] = 0.0
        w = np.fft.ifft2(spec).real
        oracle = -grid.inner(w, fluct)

        base = dict(
            epsilon=params.epsilon,
            theta=params.theta,
            theta_c=params.theta_c,
            kappa=params.kappa,
            M=params.M,
        )
        with_nonlocal = energy(u, ModelParams(sigma=30.0, **base))
        tiny_nonlocal = energy(u, ModelParams(sigma=1e-12, **base))
        nonlocal_term = with_nonlocal - tiny_nonlocal
        assert nonlocal_term == pytest.approx(0.5 * 30.0 * oracle, rel=1e-9)

    def test_nonlocal_term_closed_form_for_eigenmode(self):
        params = ModelParams(M=64, sigma=2.0)
        grid = params.grid()
        X, Y = grid.mesh()
        u = 0.1 * np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y)
        mode_eigenvalue = (8.0 / grid.h**2) * np.sin(np.pi * grid.h) ** 2
        base = dict(M=params.M)
        diff = energy(u, ModelParams(sigma=2.0, **base)) - energy(
            u, ModelParams(sigma=1e-12, **base)
        )
        expected = 0.5 * 2.0 * grid.norm2(u) ** 2 / mode_eigenvalue
        assert diff == pytest.approx(expected, rel=1e-9)

    def test_saturated_entries_use_xlogx_limit(self):
        params = ModelParams(M=8)
        u = np.full((8, 8), 1.0)
        expected = params.L**2 * (
            0.5 * params.theta * 2.0 * np.log(2.0) - 0.5 * params.theta_c
        )
        assert energy(u, params) == pytest.approx(expected, rel=1e-13)

    def test_bound_violation_rejected(self):
        with pytest.raises(BoundViolationError):
            energy(np.full((8, 8), 1.0 + 1e-12), ModelParams(M=8))

    def test_entries_at_minus_one_use_the_xlogx_limit(self):
        # energy admits u = -1 through the limit; the logarithms of the
        # chemical potential do not, and energy refuses anything below
        params = ModelParams(M=8)
        u = 0.5 * np.random.default_rng(5).uniform(-1.0, 1.0, (8, 8))
        u[::3, 1::2] = -1.0
        value = energy(u, params)
        assert np.isfinite(value)
        assert value == pytest.approx(full_spectrum_energy(u, params), rel=1e-12)
        with pytest.raises(BoundViolationError):
            chemical_potential(u, params)
        u[0, 1] = -1.0 - 1e-12
        with pytest.raises(BoundViolationError):
            energy(u, params)

    def test_makes_one_forward_transform(self, monkeypatch):
        calls = count_transforms(monkeypatch)
        params = ModelParams(M=16)
        energy(random_initial(params.grid(), 0.2, 0.05, 1), params)
        assert calls == {"rfft2": 1}

    @pytest.mark.parametrize("M", [1, 2, 3, 15, 16, 33])
    def test_matches_the_full_spectrum_sum(self, M):
        # only even M has a Nyquist column, which the half spectrum counts
        # once; the alternating field lives on it.  The oracle takes the
        # interface term from rolled differences, not by summation by parts;
        # at L = 1, epsilon = sigma = 0.1 that term dominates from M = 16 on
        setups = (
            dict(L=1.7, sigma=300.0),
            dict(L=100.0, epsilon=0.1, sigma=0.1),
            dict(L=1.0, epsilon=0.1, sigma=0.1),
        )
        for setup in setups:
            params = ModelParams(M=M, **setup)
            rng = np.random.default_rng(M)
            for u in (0.9 * rng.uniform(-1.0, 1.0, (M, M)), 0.5 * (-1.0) ** np.arange(M)):
                u = np.broadcast_to(u, (M, M))
                assert energy(u, params) == pytest.approx(
                    full_spectrum_energy(u, params), rel=1e-13
                ), setup
