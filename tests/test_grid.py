import math

import numpy as np
import pytest

from nch import Grid, ModelParams, read_snapshot, write_snapshot
from nch.grid import write_pgm
from oracles import roll_gradient, roll_laplace


def random_field(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.uniform(-1.0, 1.0, (grid.M, grid.M))


class TestLaplace:
    def test_constant_lies_in_kernel(self):
        grid = Grid(16)
        out = grid.laplace(np.full((16, 16), 3.7))
        assert np.max(np.abs(out)) == 0.0

    def test_product_sine_is_eigenfunction(self):
        grid = Grid(64, 1.0)
        X, Y = grid.mesh()
        v = np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y)
        d = -(4.0 / grid.h**2) * 2.0 * np.sin(np.pi * grid.h) ** 2
        assert np.max(np.abs(grid.laplace(v) - d * v)) < 1e-10

    def test_unit_impulse_stencil_readout(self):
        grid = Grid(4, 4.0)  # h = 1
        v = np.zeros((4, 4))
        v[1, 1] = 1.0
        out = grid.laplace(v)
        expected = np.zeros((4, 4))
        expected[1, 1] = -4.0
        for i, j in ((0, 1), (2, 1), (1, 0), (1, 2)):
            expected[i, j] = 1.0
        assert np.array_equal(out, expected)

    def test_negative_semidefinite(self):
        grid = Grid(32)
        for seed in range(5):
            v = random_field(grid, seed)
            assert grid.inner(v, grid.laplace(v)) <= 1e-12 * grid.norm2(v) ** 2

    def test_zero_mean_output(self):
        grid = Grid(32)
        for seed in range(5):
            assert abs(grid.mean(grid.laplace(random_field(grid, seed)))) < 1e-13


@pytest.mark.parametrize("M", [1, 2, 3, 4, 7, 16, 33])
def test_stencils_are_bitwise_the_rolled_sums(M):
    grid = Grid(M, 0.7)
    v = random_field(grid, M)
    for field in (v, np.asfortranarray(v)):
        assert grid.laplace(field).tobytes() == roll_laplace(v, grid.h).tobytes()


class TestInnerProduct:
    def test_unit_inner_product_is_area(self):
        grid = Grid(8, 1.0)
        ones = np.ones((8, 8))
        assert grid.inner(ones, ones) == pytest.approx(1.0, abs=1e-15)

    def test_summation_by_parts(self):
        grid = Grid(32)
        for seed in range(5):
            v, w = random_field(grid, seed), random_field(grid, seed + 100)
            lhs = grid.inner(v, grid.laplace(w))
            rhs = grid.inner(grid.laplace(v), w)
            (gvx, gvy), (gwx, gwy) = roll_gradient(v, grid.h), roll_gradient(w, grid.h)
            grad_form = -(grid.inner(gvx, gwx) + grid.inner(gvy, gwy))
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) / scale < 1e-12
            assert abs(lhs - grad_form) / scale < 1e-12

    def test_shape_mismatch_rejected(self):
        grid = Grid(8)
        with pytest.raises(ValueError, match="shape"):
            grid.inner(np.ones((8, 8)), np.ones((4, 4)))

    def test_mean_is_inner_with_ones_over_area(self):
        grid = Grid(16, 2.0)
        v = random_field(grid, 3)
        ones = np.ones((16, 16))
        assert grid.mean(v) == pytest.approx(grid.inner(v, ones) / grid.area, rel=1e-14)


class TestDft:
    """numpy's fft2/ifft2 under the DFT convention of the grid module, on
    which energy's half-spectrum Parseval weights rely."""

    def test_round_trip_identity(self):
        grid = Grid(32)
        v = random_field(grid, 0)
        back = np.fft.ifft2(np.fft.fft2(v)).real
        assert np.max(np.abs(back - v)) < 1e-12

    def test_forward_of_real_field_is_conjugate_symmetric(self):
        grid = Grid(16)
        s = np.fft.fft2(random_field(grid, 1))
        flipped = np.conj(s[np.mod(-np.arange(16)[:, None], 16), np.mod(-np.arange(16)[None, :], 16)])
        assert np.max(np.abs(s - flipped)) < 1e-9 * np.max(np.abs(s))

    def test_constant_field_spectrum_is_dc_only(self):
        grid = Grid(8)
        s = np.fft.fft2(np.full((8, 8), 0.3))
        assert s[0, 0] == pytest.approx(8 * 8 * 0.3, rel=1e-14)
        s = s.copy()
        s[0, 0] = 0.0
        assert np.max(np.abs(s)) < 1e-12

    def test_dc_mode_equals_scaled_mean(self):
        grid = Grid(16)
        v = random_field(grid, 2)
        assert np.fft.fft2(v)[0, 0].real == pytest.approx(16 * 16 * grid.mean(v), rel=1e-12)

    def test_parseval(self):
        grid = Grid(32, 2.0)
        for seed in range(3):
            v = random_field(grid, seed)
            physical = grid.h**2 * np.sum(v * v)
            spectral = (grid.area / grid.M**4) * np.sum(np.abs(np.fft.fft2(v)) ** 2)
            assert spectral == pytest.approx(physical, rel=1e-12)


class TestModelParams:
    def test_defaults_are_valid(self):
        p = ModelParams()
        assert p.grid().h == pytest.approx(1.0 / 128)
        assert p.bound == pytest.approx(0.95)

    def test_is_a_grid_whose_grid_is_the_bare_mesh(self):
        p = ModelParams(M=12, L=2.5)
        assert isinstance(p, Grid)
        assert type(p.grid()) is Grid and p.grid() == Grid(12, 2.5)

    def test_infinite_edge_rejected(self):
        with pytest.raises(ValueError, match="L must be finite, got inf"):
            Grid(8, math.inf)
        with pytest.raises(ValueError, match="L must be finite, got inf"):
            ModelParams(L=math.inf)

    def test_temperature_ordering_enforced(self):
        with pytest.raises(ValueError, match="theta"):
            ModelParams(theta=0.8, theta_c=0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"sigma": -1.0},
            {"kappa": -0.1},
            {"delta": 1.0},
            {"delta": 0.0},
            {"L": 0.0},
            {"M": 0},
            {"tau": 0.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestSnapshotIO:
    def test_round_trip_is_exact(self, tmp_path):
        grid = Grid(12, 2.5)
        u = random_field(grid, 9)
        path = tmp_path / "state.grid"
        write_snapshot(path, grid, u, t=0.125)
        grid2, u2, t2 = read_snapshot(path)
        assert grid2 == grid
        assert t2 == 0.125
        assert np.array_equal(u2, u)

    def test_file_rows_sweep_y(self, tmp_path):
        grid = Grid(3, 3.0)
        u = np.arange(9.0).reshape(3, 3)  # u[i, j]
        path = tmp_path / "layout.grid"
        write_snapshot(path, grid, u, t=0.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "NCHGRID M=3 L=3 t=0"
        first_row = [float(x) for x in lines[1].split()]
        assert first_row == [u[0, 0], u[1, 0], u[2, 0]]

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.grid"
        path.write_text("not a snapshot\n1 2 3\n")
        with pytest.raises(ValueError, match="NCHGRID"):
            read_snapshot(path)

    def test_pgm_export(self, tmp_path):
        grid = Grid(4)
        u = np.linspace(-1.0, 1.0, 16).reshape(4, 4)
        path = tmp_path / "u.pgm"
        write_pgm(path, u)
        text = path.read_text().split()
        assert text[0] == "P2"
        values = [int(x) for x in text[4:]]
        assert min(values) == 0 and max(values) == 255
