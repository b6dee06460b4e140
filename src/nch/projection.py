"""Correction step: discrete-L2 projection onto the admissible set.

The admissible set is {v : sup|v| <= 1 - delta, <v, 1> = target}.  The
minimizer of 1/2 ||v - utilde||^2 over it is a pointwise clamp of
utilde + xi at +-(1 - delta); the scalar shift xi is the root of the
piecewise-linear, nondecreasing mass residual.  The pointwise multiplier
field lam >= 0 attached to the clamp makes the KKT system explicit for
downstream checks:

    u - utilde - lam * g'(u) - xi = 0,   g(x) = (1 - delta)^2 - x^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleMassError, NonFiniteFieldError, ProjectionConvergenceError
from .grid import Grid

Array = np.ndarray

#: secant step is abandoned for a bisection of the bracket when the residual
#: difference underflows
_SECANT_DENOM_FLOOR = 1e-300


@dataclass(frozen=True)
class ProjectionResult:
    """Corrected field plus the multipliers that produced it.

    u           clamped field, sup|u| <= 1 - delta exactly
    lam         pointwise multiplier, >= 0, nonzero only on clamped entries
    xi          scalar mass multiplier
    iterations  residual evaluations performed beyond the xi = 0 probe
    """

    u: Array
    lam: Array
    xi: float
    iterations: int


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
    xi1: float | None = None,
) -> tuple[float, int, float]:
    """Root of the mass residual; returns (xi, iterations, residual).

    Secant iteration from xi = 0 and xi = xi1 (the time step, when driven by
    a stepper), safeguarded by a bracket built from the saturation shifts:
    whenever a secant step leaves the bracket or its denominator underflows,
    the bracket is bisected instead.  The residual is piecewise linear, so
    the bracket never loses the root.  A NaN or infinite entry of utilde or
    target mass raises NonFiniteFieldError before any iteration.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    bound = 1.0 - delta
    if tol is None:
        tol = 1e-13 * grid.area
    utilde = grid.check(utilde)

    def residual(x: float) -> float:
        return mass_residual(grid, utilde, x, delta, target_mass)

    # The xi = 0 probe is NaN or infinite whenever the target or an entry
    # of utilde is NaN, or the target is infinite; an infinite entry shows
    # in the saturation shifts.  Both are needed below anyway.
    f_zero = residual(0.0)
    # all-clamped-low / all-clamped-high shifts bracket every root
    lo = -bound - float(np.max(utilde))
    hi = bound - float(np.min(utilde))
    if not (math.isfinite(f_zero) and math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteFieldError(
            f"predicted field or target mass {target_mass} is not finite "
            f"(mass residual at xi = 0: {f_zero})"
        )
    saturation = grid.area * bound
    if not -saturation < target_mass < saturation:
        raise InfeasibleMassError(
            f"target mass {target_mass} is outside the feasible interval "
            f"(-{saturation}, {saturation})"
        )

    def polished(xi: float, f: float, iterations: int) -> tuple[float, int, float]:
        # The residual is linear on the segment of the current clamp pattern
        # with slope h^2 * (#unclamped), so one Newton step lands on the
        # locally exact root; this polish removes the accepted-anywhere-
        # within-tol bias that would otherwise accumulate as mass drift over
        # long runs.  Kept only when it improves.
        if f == 0.0:
            return xi, iterations, f
        interior = np.count_nonzero(np.abs(utilde + xi) < bound)
        slope = grid.h * grid.h * interior
        if slope <= 0.0:
            return xi, iterations, f
        candidate = xi - f / slope
        f_candidate = residual(candidate)
        if abs(f_candidate) < abs(f):
            return candidate, iterations + 1, f_candidate
        return xi, iterations + 1, f

    xi_prev, f_prev = 0.0, f_zero
    if abs(f_prev) <= tol:
        return polished(0.0, f_prev, 0)
    if f_prev > 0.0:
        hi = min(hi, 0.0)
    else:
        lo = max(lo, 0.0)

    xi_cur = float(xi1) if xi1 is not None else 0.5 * (lo + hi)
    if xi_cur == xi_prev:
        xi_cur = 0.5 * (lo + hi)
    f_cur = residual(xi_cur)
    iterations = 1
    if f_cur > 0.0:
        hi = min(hi, xi_cur)
    elif f_cur < 0.0:
        lo = max(lo, xi_cur)

    while iterations < max_iter:
        if abs(f_cur) <= tol:
            return polished(xi_cur, f_cur, iterations)
        denom = f_cur - f_prev
        if abs(denom) > _SECANT_DENOM_FLOOR:
            candidate = xi_cur - f_cur * (xi_cur - xi_prev) / denom
        else:
            candidate = 0.5 * (lo + hi)
        if not np.isfinite(candidate) or not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        xi_prev, f_prev = xi_cur, f_cur
        xi_cur = candidate
        f_cur = residual(xi_cur)
        iterations += 1
        if f_cur > 0.0:
            hi = xi_cur
        elif f_cur < 0.0:
            lo = xi_cur

    if abs(f_cur) <= tol:
        return polished(xi_cur, f_cur, iterations)
    raise ProjectionConvergenceError(
        f"mass residual {f_cur:.3e} still above tolerance {tol:.3e} "
        f"after {iterations} iterations",
        residual=f_cur,
    )


def project(
    grid: Grid,
    utilde: Array,
    delta: float,
    target_mass: float | None = None,
    tol: float | None = None,
    max_iter: int = 100,
    xi1: float | None = None,
) -> ProjectionResult:
    """Project a predicted field onto the admissible set.

    target_mass defaults to the predictor's own mass <utilde, 1>, under
    which an already-admissible field is returned unchanged with xi = 0 and
    lam = 0.  The result is the unique minimizer of the convex problem.
    """
    utilde = grid.check(utilde)
    if target_mass is None:
        target_mass = grid.mass(utilde)
    xi, iterations, _ = solve_xi(
        grid, utilde, delta, target_mass, tol=tol, max_iter=max_iter, xi1=xi1
    )
    u, lam = clamp_with_multiplier(utilde, xi, delta)
    return ProjectionResult(u=u, lam=lam, xi=xi, iterations=iterations)
