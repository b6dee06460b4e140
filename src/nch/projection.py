"""Correction step: discrete-L2 projection onto the admissible set.

The admissible set is {v : sup|v| <= 1 - delta, <v, 1> = target}.  The
minimizer of 1/2 ||v - utilde||^2 over it is a pointwise clamp of
utilde + xi at +-(1 - delta); the scalar shift xi is the root of the
piecewise-linear, nondecreasing mass residual, which solve_xi finds by
Newton steps on the clamp pattern.  The pointwise multiplier
field lam >= 0 attached to the clamp makes the KKT system explicit for
downstream checks:

    u - utilde - lam * g'(u) - xi = 0,   g(x) = (1 - delta)^2 - x^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InfeasibleMassError, NonFiniteFieldError, ProjectionConvergenceError
from .grid import PROJECTION_TOL, Grid

Array = np.ndarray


@dataclass(frozen=True)
class ProjectionResult:
    """Corrected field, its multipliers and the diagnostics of the field.

    u           clamped field, sup|u| <= 1 - delta exactly
    xi          scalar mass multiplier
    iterations  residual evaluations after the xi = 0 probe (Newton steps
                and bisections of solve_xi)
    sup_norm    max |u|
    mass        <u, 1>
    lambda_sup  max of lam
    clamped     number of entries with lam > 0
    utilde      the predicted field
    delta       gap of the bound 1 - delta

    The four diagnostics are bitwise what u and lam give.  lam, the
    pointwise multiplier (>= 0, nonzero only on clamped entries), is built
    from utilde and xi on first read.
    """

    u: Array
    xi: float
    iterations: int
    sup_norm: float
    mass: float
    lambda_sup: float
    clamped: int
    utilde: Array = field(repr=False)
    delta: float

    @cached_property
    def lam(self) -> Array:
        return clamp_with_multiplier(self.utilde, self.xi, self.delta)[1]


def clamp_with_multiplier(
    utilde: Array, xi: float, delta: float
) -> tuple[Array, Array]:
    """Closed-form pointwise minimizer and its multiplier for a fixed shift.

    Per entry s = utilde + xi: inside the bound, (u, lam) = (s, 0); on the
    clamped branches u = +-(1 - delta) and lam = (u - s)/g'(u), which the
    sign of the overshoot makes nonnegative.  Ties |s| = 1 - delta stay
    unclamped with lam = 0.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    bound = 1.0 - delta
    s = np.asarray(utilde, dtype=float) + xi
    u = np.clip(s, -bound, bound)
    lam = np.zeros_like(s)
    over = s > bound
    under = s < -bound
    # g'(+-bound) = -+2*bound
    lam[over] = (s[over] - bound) / (2.0 * bound)
    lam[under] = (-bound - s[under]) / (2.0 * bound)
    return u, lam


def mass_residual(
    grid: Grid, utilde: Array, xi: float, delta: float, target_mass: float
) -> float:
    """<clamp(utilde + xi), 1> - target_mass.

    Piecewise linear and nondecreasing in xi, strictly increasing while any
    entry is unclamped; saturates at +-L^2(1 - delta) - target_mass.
    """
    bound = 1.0 - delta
    clamped = np.clip(np.asarray(utilde, dtype=float) + xi, -bound, bound)
    return grid.h * grid.h * float(np.sum(clamped)) - target_mass


def solve_xi(
    grid: Grid,
    utilde: Array,
    delta: float,
    target_mass: float,
    tol: float | None = None,
    max_iter: int = 100,
) -> tuple[float, int, float]:
    """Root of the mass residual; returns (xi, iterations, residual).

    Newton's method on the clamp pattern (Cominetti, Mascarenhas & Silva,
    Math. Program. Comput. 6, 2014): on the pattern of the current shift the
    residual is linear with slope h^2 * #{|utilde + xi| < 1 - delta}, so one
    Newton step lands on that pattern's exact root.  When the slope is 0 or
    the step leaves the bracket built from the saturation shifts, the
    bracket is bisected instead; the residual is monotone, so the bracket
    never loses the root.  An iterate is accepted only when its residual is
    exactly 0, or within tol at a Newton landing, so the result carries no
    bias from stopping anywhere inside the tolerance.  Raises
    ProjectionConvergenceError after max_iter iterations without one, and
    NonFiniteFieldError, before any iteration, for a NaN or infinite entry
    of utilde or target mass.
    """
    result, residual = _project(grid, utilde, delta, target_mass, tol, max_iter)
    return result.xi, result.iterations, residual


def project(
    grid: Grid,
    utilde: Array,
    delta: float,
    target_mass: float | None = None,
    tol: float | None = None,
    max_iter: int = 100,
) -> ProjectionResult:
    """Project a predicted field onto the admissible set.

    target_mass defaults to the predictor's own mass <utilde, 1>, under
    which an already-admissible field is returned unchanged with xi = 0 and
    lam = 0.  The result is the unique minimizer of the convex problem, at
    the shift solve_xi finds.
    """
    return _project(grid, utilde, delta, target_mass, tol, max_iter)[0]


def _project(
    grid: Grid,
    utilde: Array,
    delta: float,
    target_mass: float | None,
    tol: float | None,
    max_iter: int,
) -> tuple[ProjectionResult, float]:
    # Every residual evaluation writes s = utilde + xi and u = clamp(s) into
    # the same two arrays; the last one is the result.  Rounding is
    # monotone, so max s = fl(max utilde + xi), and the extremes of s give
    # sup|u| and max lam without another pass over the field.
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    bound = 1.0 - delta
    if tol is None:
        tol = PROJECTION_TOL * grid.area
    utilde = grid.check(utilde)
    if target_mass is None:
        target_mass = grid.mass(utilde)
    cell = grid.h * grid.h
    shifted, u = np.empty_like(utilde), np.empty_like(utilde)

    def clamped_sum(xi: float) -> float:
        np.add(utilde, xi, out=shifted)
        np.clip(shifted, -bound, bound, out=u)
        return float(u.sum())

    top, bottom = float(utilde.max()), float(utilde.min())
    total = clamped_sum(0.0)
    f = cell * total - target_mass
    # all-clamped-low / all-clamped-high shifts bracket every root; the
    # probe is NaN or infinite whenever the target or an entry of utilde is
    # NaN, or the target is infinite, and an infinite entry shows here
    lo, hi = -bound - top, bound - bottom
    if not (math.isfinite(f) and math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteFieldError(
            f"predicted field or target mass {target_mass} is not finite "
            f"(mass residual at xi = 0: {f})"
        )
    saturation = grid.area * bound
    if not -saturation < target_mass < saturation:
        raise InfeasibleMassError(
            f"target mass {target_mass} is outside the feasible interval "
            f"(-{saturation}, {saturation})"
        )

    xi, iterations = 0.0, 0
    while f != 0.0:
        if f > 0.0:
            hi = min(hi, xi)
        else:
            lo = max(lo, xi)
        if iterations == max_iter:
            raise ProjectionConvergenceError(
                f"no Newton landing within tolerance {tol:.3e} after "
                f"{iterations} iterations (mass residual {f:.3e})",
                residual=f,
            )
        # entries with |s| < bound; a side whose extreme is inside counts none
        interior = shifted.size
        if top + xi >= bound:
            interior -= np.count_nonzero(shifted >= bound)
        if bottom + xi <= -bound:
            interior -= np.count_nonzero(shifted <= -bound)
        step = xi - f / (cell * interior) if interior else math.nan
        newton = lo < step < hi
        xi = float(step) if newton else 0.5 * (lo + hi)
        total = clamped_sum(xi)
        f = cell * total - target_mass
        iterations += 1
        if newton and abs(f) <= tol:
            break

    def clip(x: float) -> float:
        return min(max(x, -bound), bound)

    high, low = top + xi, bottom + xi  # max and min of shifted
    clamped, lambda_sup = 0, 0.0
    if high > bound:
        clamped += np.count_nonzero(shifted > bound)
        lambda_sup = (high - bound) / (2.0 * bound)
    if low < -bound:
        clamped += np.count_nonzero(shifted < -bound)
        lambda_sup = max(lambda_sup, (-bound - low) / (2.0 * bound))
    result = ProjectionResult(
        u=u,
        xi=xi,
        iterations=iterations,
        sup_norm=max(abs(clip(high)), abs(clip(low))),
        mass=cell * total,
        lambda_sup=lambda_sup,
        clamped=clamped,
        utilde=utilde,
        delta=delta,
    )
    return result, f
