"""Uniform periodic mesh, grid-function arithmetic and snapshot I/O.

A grid function is a dense (M, M) float array; entry (i, j) holds the value
at the mesh point (x_i, y_j) = ((i+1)h, (j+1)h) with spacing h = L/M.
Periodicity is realized by index wrapping, never by ghost cells.
All operations here are pure and leave their inputs untouched.

DFT convention, fixed once for the whole package: unnormalized forward
transform, 1/M^2-scaled inverse (numpy's default), so the (0, 0) coefficient
of a field equals M^2 times its mean and Parseval reads
h^2 sum|v|^2 = (L^2/M^4) sum|v_hat|^2.  The operators use the half spectrum
of this transform (numpy's rfft2 and its inverse irfftn over the last two
axes, modes l <= M//2): a real field's other modes are the complex
conjugates of these, so in Parseval each mode 0 < l < M/2 stands for two.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Array = np.ndarray

SNAPSHOT_MAGIC = "NCHGRID"
_FLOAT_FMT = "%.17g"


@lru_cache(maxsize=16)
def work_array(slot: str, shape: tuple[int, ...], dtype: type = float) -> Array:
    """The process-wide scratch array named slot, of that shape and dtype.

    Every call with the same arguments returns the same uninitialized
    array, so its user writes it before reading it, is done with it before
    calling anything else that takes the same slot, and never returns it.
    The operators and the projection share the slots "spectrum" (the half
    spectrum) and "field" (one field within a call), so that a step keeps
    one of each.  Not for use from two threads at once; nch runs parallel
    work in processes.
    """
    return np.empty(shape, dtype)


@dataclass(frozen=True)
class Grid:
    """Uniform M x M periodic mesh on the square of edge L."""

    M: int
    L: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.M, numbers.Integral) or self.M < 1:
            raise ValueError(f"mesh count must be a positive integer, got M={self.M!r}")
        if not math.isfinite(self.L):
            raise ValueError(f"L must be finite, got {self.L}")
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
        """Five-point periodic Laplacian."""
        v = self.check(v)
        out = np.roll(v, -1, 0) + np.roll(v, 1, 0) + np.roll(v, -1, 1) + np.roll(v, 1, 1)
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
class ModelParams(Grid):
    """The mesh plus the physical and numerical constants of one solver setup.

    M, L     mesh count and domain edge, checked by Grid
    epsilon  capillary width, > 0
    theta, theta_c  mixture temperatures, 0 < theta < theta_c
    sigma    nonlocal interaction strength, > 0
    kappa    stabilization shift, >= 0
    delta    gap of the sup-norm bound 1 - delta, in (0, 1)
    tau      uniform time step, > 0

    It is a Grid, so it is passed wherever a mesh is wanted.
    """

    M: int = 128
    L: float = 1.0
    epsilon: float = 0.02
    theta: float = 0.8
    theta_c: float = 1.6
    sigma: float = 30.0
    kappa: float = 2.0
    delta: float = 0.05
    tau: float = 1e-4

    def __post_init__(self) -> None:
        super().__post_init__()
        finite = ("epsilon", "theta", "theta_c", "sigma", "kappa", "tau")
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
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")

    def grid(self) -> Grid:
        """The bare mesh, without the model constants."""
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
        if not (math.isfinite(L) and math.isfinite(t)):
            raise ValueError(f"{path}: header has a non-finite L={L} or t={t}")
        data = np.loadtxt(f, ndmin=2)
    if data.shape != (M, M):
        raise ValueError(
            f"{path}: data block has shape {data.shape}, header says M={M}"
        )
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: data block holds a non-finite entry")
    return Grid(M, L), np.ascontiguousarray(data.T), t


def write_pgm(path, u: Array) -> None:
    """Quick-look grayscale export: u in [-1, 1] mapped linearly to 0..255."""
    u = np.asarray(u, dtype=float)
    gray = np.rint((np.clip(u, -1.0, 1.0) + 1.0) * 127.5).astype(int)
    with open(path, "w") as f:
        f.write(f"P2\n{u.shape[0]} {u.shape[1]}\n255\n")
        np.savetxt(f, gray.T, fmt="%d", delimiter=" ")
