"""Spectral operator machinery, phi kernels, nonlinearity and free energy.

The stiff linear operator of the semi-discrete flow,

    eps^2 Lap_h^2 - kappa Lap_h + sigma I,

is diagonalized by the 2-D DFT because the periodic five-point Laplacian is.
Every function of it therefore acts as a per-mode multiplication; the dense
M^2 x M^2 matrix is never formed (O(M^2 log M) per application instead of
O(M^4)).

Fields are real and every per-mode table is symmetric under mode negation
(k, l) -> (M-k, M-l), so the operators work on the half spectrum: a
real-to-complex rfft2 / irfftn pair over the M x (M//2+1) modes l <= M//2.
The phi tables are stored at that shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BoundViolationError
from .grid import Grid, ModelParams, work_array

Array = np.ndarray

# Below this argument phi1 and phi2 are evaluated by their truncated Taylor
# series.  The closed forms lose up to ~5e-14 relative accuracy just above
# the cutoff (cancellation in expm1(-a) + a grows like 1/a), the series
# truncation is below 1e-16 there, so the worst case over all a >= 0 stays
# under 1e-14 relative.
PHI_SERIES_CUTOFF = 0.1
_PHI_SERIES_TERMS = 14


def _phi_series(a: Array, shift: int) -> Array:
    # sum_{j>=0} (-a)^j / (j+shift)!  by Horner
    acc = np.zeros_like(a)
    for j in reversed(range(_PHI_SERIES_TERMS)):
        acc = 1.0 / math.factorial(j + shift) - a * acc
    return acc


def _checked_argument(a):
    arr = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("phi functions require finite arguments")
    if np.any(arr < 0):
        raise ValueError(
            f"phi functions are defined for a >= 0, got min value {arr.min()}"
        )
    scalar = np.ndim(a) == 0
    return np.atleast_1d(arr), scalar


def phi0(a):
    """exp(-a) for a >= 0; scalar in, scalar out, elementwise on arrays."""
    arr, scalar = _checked_argument(a)
    out = np.exp(-arr)
    return float(out[0]) if scalar else out


def phi1(a):
    """(1 - exp(-a))/a with the limit 1 at a = 0."""
    arr, scalar = _checked_argument(a)
    out = np.empty_like(arr)
    small = arr < PHI_SERIES_CUTOFF
    out[small] = _phi_series(arr[small], 1)
    big = ~small
    out[big] = -np.expm1(-arr[big]) / arr[big]
    return float(out[0]) if scalar else out


def phi2(a):
    """(exp(-a) - 1 + a)/a^2 with the limit 1/2 at a = 0."""
    arr, scalar = _checked_argument(a)
    out = np.empty_like(arr)
    small = arr < PHI_SERIES_CUTOFF
    out[small] = _phi_series(arr[small], 2)
    big = ~small
    ab = arr[big]
    out[big] = (np.expm1(-ab) + ab) / (ab * ab)
    return float(out[0]) if scalar else out


@lru_cache(maxsize=16)
def _symbol_cached(M: int, L: float) -> Array:
    h = L / M
    s = np.sin(np.pi * np.arange(M) / M) ** 2
    d = -(4.0 / (h * h)) * (s[:, None] + s[None, :])
    d[0, 0] = 0.0
    d.flags.writeable = False
    return d


def laplace_symbol(grid: Grid) -> Array:
    """DFT eigenvalues of the five-point Laplacian.

    d[k, l] = -(4/h^2)(sin^2(pi k/M) + sin^2(pi l/M)); all entries <= 0 and
    only the (0, 0) mode is zero.  The returned array is cached and
    read-only.
    """
    return _symbol_cached(grid.M, grid.L)


def operator_eigenvalues(params: ModelParams) -> Array:
    """Per-mode eigenvalues eps^2 d^2 - kappa d + sigma >= sigma > 0."""
    d = laplace_symbol(params)
    return params.epsilon**2 * d * d - params.kappa * d + params.sigma


@dataclass(frozen=True)
class PhiTable:
    """Per-mode phi kernels evaluated at tau * ell, ready for apply_phi.

    Every column holds the half spectrum, shape (M, M//2+1); phi1m2 is the
    entrywise difference phi1 - phi2 used by the second-order predictor.
    """

    phi0: Array
    phi1: Array
    phi2: Array
    phi1m2: Array


def build_phi_table(params: ModelParams) -> PhiTable:
    a = params.tau * operator_eigenvalues(params)[:, : params.M // 2 + 1]
    p0, p1, p2 = phi0(a), phi1(a), phi2(a)
    return PhiTable(phi0=p0, phi1=p1, phi2=p2, phi1m2=p1 - p2)


def apply_phi(v: Array, column: Array, out: Array | None = None) -> Array:
    """Apply a diagonal-in-Fourier operator: IDFT(column * DFT(v)).

    column is one per-mode table symmetric under mode negation, given on
    the half spectrum, shape (M, M//2+1) like a PhiTable column.  It is
    real, or complex with a zero imaginary part: a complex column gives
    bitwise the same result and spares the multiply its float-to-complex
    cast.  Costs one real-to-complex transform pair.

    The result goes to out when it is given, an (M, M) float array that
    may be v itself, and out is returned; otherwise to a new array.  The
    spectrum is taken into the process-wide complex scratch of
    grid.work_array, so apply_phi must not run on two threads at once.
    numpy's irfftn still allocates one half-spectrum temporary per call.
    """
    v = np.asarray(v, dtype=float)
    column = np.asarray(column)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError(f"expected a square field, got shape {v.shape}")
    half = (v.shape[0], v.shape[0] // 2 + 1)
    if column.shape != half:
        raise ValueError(
            f"table shape {column.shape} is not the half spectrum {half} of the field"
        )
    spectrum = np.fft.rfft2(v, out=work_array("spectrum", half, complex))
    spectrum *= column
    # irfft2 ignores out= (numpy 2.4) where irfftn honours it; irfftn needs
    # the axes along with s
    return np.fft.irfftn(spectrum, s=v.shape, axes=(-2, -1), out=out)


def _require_inside_bound(u: Array, limit: float, strict: bool) -> tuple[float, float]:
    """Raise unless |u| < limit (strict) or <= limit; returns (min u, max u).

    One min/max pair decides; the worst entry is located only to report
    it.  A NaN entry makes both NaN and passes, as NaN fails no comparison.
    """
    lo, hi = float(u.min()), float(u.max())
    if (hi >= limit or lo <= -limit) if strict else (hi > limit or lo < -limit):
        worst = np.unravel_index(np.argmax(np.abs(u)), u.shape)
        cmp = ">=" if strict else ">"
        raise BoundViolationError(
            f"|u| {cmp} {limit} at index {tuple(int(k) for k in worst)}: u = {u[worst]!r}"
        )
    return lo, hi


def chemical_potential(u: Array, params: ModelParams, out: Array | None = None) -> Array:
    """Stabilized chemical potential theta arctanh(u) - (theta_c + kappa) u.

    theta arctanh(u) = (theta/2)[ln(1+u) - ln(1-u)], so |u| < 1 is required
    strictly for the logarithms.  The result goes to out when it is given,
    an (M, M) float array that may be u itself, and out is returned.
    """
    u = params.check(u)
    _require_inside_bound(u, 1.0, strict=True)
    linear = np.multiply(params.theta_c + params.kappa, u, out=work_array("field", u.shape))
    chem = np.arctanh(u, out=out)
    chem *= params.theta
    chem -= linear
    return chem


def nonlinear_F(u: Array, params: ModelParams) -> Array:
    """Stabilized nonlinear right-hand side Lap_h[chem(u)] + sigma * mean(u).

    The reference form of the forcing; the stepper applies Lap_h through
    its phi kernels instead (see stepper).
    """
    out = params.laplace(chemical_potential(u, params))
    out += params.sigma * params.mean(u)
    return out


@lru_cache(maxsize=16)
def _energy_root_weights_cached(M: int, L: float, epsilon: float, sigma: float) -> Array:
    # sqrt of (L^2/M^4)/2 (eps^2 (-d) + sigma/(-d)), the interface plus
    # nonlocal weight of each half-spectrum mode, 0 at the zero mode; the
    # columns 1 .. ceil(M/2)-1 count twice, for their mirror images too.
    # Stored complex, as the step kernels are, so the multiply needs no cast
    minus_d = -_symbol_cached(M, L)[:, : M // 2 + 1]
    w = np.zeros_like(minus_d)
    np.divide(sigma, minus_d, out=w, where=minus_d > 0)
    w += epsilon**2 * minus_d
    w *= 0.5 * L**2 / M**4
    w[:, 1 : (M + 1) // 2] *= 2.0
    np.sqrt(w, out=w)
    w = w.astype(complex)
    w.flags.writeable = False
    return w


def _sum_of_products(a: Array, b: Array) -> float:
    # sum(a * b) in one pass and no temporary of a's size.  einsum without
    # optimize runs its own loop, where np.vdot would start BLAS threads
    # (tests/test_no_blas.py).  It sums each row in one accumulator, so the
    # row sums are added pairwise: one accumulator over all entries lost
    # 3e-14 of the energy (relative) to the cancellation between the two
    # entropy sums.
    return float(np.einsum("...j,...j->...", a, b).sum())


def energy(u: Array, params: ModelParams) -> float:
    """Discrete free energy.

    Entropy and quadratic bulk terms integrated with weight h^2; interface
    and nonlocal terms from one rfft2.  Summation by parts turns the summed
    squared forward differences into (h^2/M^2) sum (-d_kl) |u_hat|^2, and
    the nonlocal term is sum_{(k,l) != (0,0)} |u_hat|^2 / (-d_kl) scaled
    per the package Parseval convention (the zero mode carries
    u - mean(u) = 0, so excluding it realizes the inverse Laplacian on
    mean-free fields).  Both are one weighted sum over the half spectrum,
    each interior column weighted twice for its mirror image.  Entries at
    exactly +-1 are admitted through the x ln x -> 0 limit.
    """
    u = np.ascontiguousarray(params.check(u))
    lo, hi = _require_inside_bound(u, 1.0, strict=False)
    inside = -1.0 < lo and hi < 1.0

    # two work arrays of u's size, reused by both sides and by every call:
    # at M=128, arrays of this size are mapped and unmapped by malloc when
    # they are allocated per call, at about 100 page faults
    side, logs = work_array("field", u.shape), work_array("logs", u.shape)
    entropy = 0.0
    for one_side in (np.add, np.subtract):
        one_side(1.0, u, out=side)
        if inside:
            np.log(side, out=logs)
        else:
            # x ln x -> 0 at x = 0, where u sits at exactly +-1
            logs.fill(0.0)
            np.log(side, out=logs, where=side > 0)
        entropy += _sum_of_products(side, logs)
    bulk = params.h**2 * (
        0.5 * params.theta * entropy - 0.5 * params.theta_c * _sum_of_products(u, u)
    )

    half = (params.M, params.M // 2 + 1)
    spectrum = np.fft.rfft2(u, out=work_array("spectrum", half, complex))
    spectrum *= _energy_root_weights_cached(params.M, params.L, params.epsilon, params.sigma)
    parts = spectrum.view(float)
    return bulk + _sum_of_products(parts, parts)
