"""Uniform periodic mesh, grid-function arithmetic and snapshot I/O.

A grid function is a dense (M, M) float array; entry (i, j) holds the value
at the mesh point (x_i, y_j) = ((i+1)h, (j+1)h) with spacing h = L/M.
Periodicity is realized by index wrapping, never by ghost cells.
All operations here are pure and leave their inputs untouched.

DFT convention, fixed once for the whole package: unnormalized forward
transform, 1/M^2-scaled inverse (numpy's default), so the (0, 0) coefficient
of a field equals M^2 times its mean and Parseval reads
h^2 sum|v|^2 = (L^2/M^4) sum|v_hat|^2.  The operators use the half spectrum
of this transform (numpy's rfft2 / irfft2, modes l <= M//2): a real field's
other modes are the complex conjugates of these, so in Parseval each mode
0 < l < M/2 stands for two.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

SNAPSHOT_MAGIC = "NCHGRID"
_FLOAT_FMT = "%.17g"

#: default mass-residual tolerance of the projection, per unit area
PROJECTION_TOL = 1e-13


def roll_into(v: Array, shift: int, axis: int, out: Array, add: bool = False) -> None:
    """out = np.roll(v, shift, axis), or out += it, for C-contiguous v and out.

    Along axis 1 the whole array is taken as one flat block shifted by
    `shift` entries, which is right for every entry but those of the
    wrapped columns, and the wrapped columns are then redone from their
    own values: numpy runs one contiguous block several times faster than
    M strided row pieces.
    """
    n = v.shape[axis]
    k = shift % n
    if axis == 0:
        _put(out[k:], v[: n - k], add)
        _put(out[:k], v[n - k :], add)
        return
    if 2 * k > n:
        k -= n  # the same roll, as a shift by fewer than n/2 entries
    wrapped, source = (slice(0, k), slice(n - k, n)) if k >= 0 else (slice(n + k, n), slice(0, -k))
    kept = out[:, wrapped].copy()
    lo, hi = max(k, 0), v.size + min(k, 0)
    _put(out.reshape(-1)[lo:hi], v.reshape(-1)[lo - k : hi - k], add)
    out[:, wrapped] = kept
    _put(out[:, wrapped], v[:, source], add)


def _put(dst: Array, src: Array, add: bool) -> None:
    if add:
        dst += src
    else:
        dst[...] = src


@dataclass(frozen=True)
class Grid:
    """Uniform M x M periodic mesh on the square of edge L."""

    M: int
    L: float = 1.0

    def __post_init__(self) -> None:
        if self.M < 1:
            raise ValueError(f"mesh count must be a positive integer, got M={self.M}")
        if not self.L > 0:
            raise ValueError(f"domain edge must be positive, got L={self.L}")

    @property
    def h(self) -> float:
        return self.L / self.M

    @property
    def area(self) -> float:
        return self.L * self.L

    def mesh(self) -> tuple[Array, Array]:
        """Coordinate arrays X, Y with X[i, j] = (i+1)h and Y[i, j] = (j+1)h."""
        x = (np.arange(self.M) + 1.0) * self.h
        return tuple(np.meshgrid(x, x, indexing="ij"))

    def check(self, v: Array, name: str = "field") -> Array:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.M, self.M):
            raise ValueError(
                f"{name} has shape {v.shape}, expected ({self.M}, {self.M})"
            )
        return v

    # -- differential operators ------------------------------------------

    def laplace(self, v: Array) -> Array:
        """Five-point periodic Laplacian.

        The neighbours are added in the order of the rolled sum
        roll(v, -1, 0) + roll(v, 1, 0) + roll(v, -1, 1) + roll(v, 1, 1),
        so the result is bitwise that sum's, without the rolled copies.
        """
        v = np.ascontiguousarray(self.check(v))
        out = np.empty_like(v)
        roll_into(v, -1, 0, out)
        for shift, axis in ((1, 0), (-1, 1), (1, 1)):
            roll_into(v, shift, axis, out, add=True)
        out -= 4.0 * v
        out /= self.h * self.h
        return out

    # -- inner products and norms ----------------------------------------

    def inner(self, v: Array, w: Array) -> float:
        """Discrete L2 inner product h^2 sum v w."""
        v = self.check(v, "first argument")
        w = self.check(w, "second argument")
        return self.h * self.h * float(np.sum(v * w))

    def norm2(self, v: Array) -> float:
        return math.sqrt(self.inner(v, v))

    def norm_inf(self, v: Array) -> float:
        return float(np.max(np.abs(self.check(v))))

    def mass(self, v: Array) -> float:
        """<v, 1> = h^2 sum v."""
        return self.h * self.h * float(np.sum(self.check(v)))

    def mean(self, v: Array) -> float:
        return self.mass(v) / self.area


@dataclass(frozen=True)
class ModelParams:
    """Physical and numerical constants of one solver setup.

    epsilon  capillary width, > 0
    theta, theta_c  mixture temperatures, 0 < theta < theta_c
    sigma    nonlocal interaction strength, > 0
    kappa    stabilization shift, >= 0
    delta    gap of the sup-norm bound 1 - delta, in (0, 1)
    L, M     domain edge and mesh count
    tau      uniform time step, > 0
    projection_tol  mass-residual tolerance of the projection per unit
             area, > 0: the solve stops within projection_tol * L^2
    projection_max_iter  iteration budget of that solve, >= 1
    """

    epsilon: float = 0.02
    theta: float = 0.8
    theta_c: float = 1.6
    sigma: float = 30.0
    kappa: float = 2.0
    delta: float = 0.05
    L: float = 1.0
    M: int = 128
    tau: float = 1e-4
    projection_tol: float = PROJECTION_TOL
    projection_max_iter: int = 100

    def __post_init__(self) -> None:
        finite = ("epsilon", "theta", "theta_c", "sigma", "kappa", "L", "tau", "projection_tol")
        for name in finite:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 < self.theta < self.theta_c:
            raise ValueError(
                "temperatures must satisfy 0 < theta < theta_c, got "
                f"theta={self.theta}, theta_c={self.theta_c}"
            )
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if self.M < 1:
            raise ValueError(f"M must be a positive integer, got {self.M}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.projection_tol > 0:
            raise ValueError(f"projection_tol must be positive, got {self.projection_tol}")
        if self.projection_max_iter < 1:
            raise ValueError(
                f"projection_max_iter must be >= 1, got {self.projection_max_iter}"
            )

    def grid(self) -> Grid:
        return Grid(self.M, self.L)

    @property
    def bound(self) -> float:
        """Admissible sup-norm bound 1 - delta."""
        return 1.0 - self.delta


# -- snapshot format -------------------------------------------------------
#
# One ASCII header line `NCHGRID M=<int> L=<float> t=<float>` followed by M
# lines of M space-separated floats; file row j sweeps the y index, columns
# sweep x.  Floats carry 17 significant digits, enough to round-trip doubles.

_HEADER_RE = re.compile(
    r"^NCHGRID\s+M=(\d+)\s+L=([^\s]+)\s+t=([^\s]+)\s*$"
)


def write_snapshot(path, grid: Grid, u: Array, t: float) -> None:
    u = grid.check(u)
    with open(path, "w") as f:
        f.write(
            f"{SNAPSHOT_MAGIC} M={grid.M} L={_FLOAT_FMT % grid.L} t={_FLOAT_FMT % t}\n"
        )
        np.savetxt(f, u.T, fmt=_FLOAT_FMT, delimiter=" ")


def read_snapshot(path) -> tuple[Grid, Array, float]:
    with open(path) as f:
        header = f.readline()
        m = _HEADER_RE.match(header)
        if m is None:
            raise ValueError(f"{path}: not a {SNAPSHOT_MAGIC} snapshot")
        M, L, t = int(m.group(1)), float(m.group(2)), float(m.group(3))
        data = np.loadtxt(f, ndmin=2)
    if data.shape != (M, M):
        raise ValueError(
            f"{path}: data block has shape {data.shape}, header says M={M}"
        )
    return Grid(M, L), np.ascontiguousarray(data.T), t


def write_pgm(path, u: Array) -> None:
    """Quick-look grayscale export: u in [-1, 1] mapped linearly to 0..255."""
    u = np.asarray(u, dtype=float)
    gray = np.rint((np.clip(u, -1.0, 1.0) + 1.0) * 127.5).astype(int)
    with open(path, "w") as f:
        f.write(f"P2\n{u.shape[0]} {u.shape[1]}\n255\n")
        np.savetxt(f, gray.T, fmt="%d", delimiter=" ")
