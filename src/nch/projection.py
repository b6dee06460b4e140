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
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleMassError, NonFiniteFieldError, ProjectionConvergenceError
from .grid import Grid

Array = np.ndarray

@dataclass(frozen=True)
class ProjectionResult:
    """Corrected field plus the multipliers that produced it.

    u           clamped field, sup|u| <= 1 - delta exactly
    lam         pointwise multiplier, >= 0, nonzero only on clamped entries
    xi          scalar mass multiplier
    iterations  residual evaluations after the xi = 0 probe (Newton steps
                and bisections of solve_xi)
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
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    bound = 1.0 - delta
    if tol is None:
        tol = 1e-13 * grid.area
    utilde = grid.check(utilde)

    # The xi = 0 probe is NaN or infinite whenever the target or an entry
    # of utilde is NaN, or the target is infinite; an infinite entry shows
    # in the saturation shifts.  Both are needed below anyway.
    f = mass_residual(grid, utilde, 0.0, delta, target_mass)
    # all-clamped-low / all-clamped-high shifts bracket every root
    lo = -bound - float(np.max(utilde))
    hi = bound - float(np.min(utilde))
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
        interior = np.count_nonzero(np.abs(utilde + xi) < bound)
        step = xi - f / (grid.h * grid.h * interior) if interior else math.nan
        newton = lo < step < hi
        xi = float(step) if newton else 0.5 * (lo + hi)
        f = mass_residual(grid, utilde, xi, delta, target_mass)
        iterations += 1
        if newton and abs(f) <= tol:
            break
    return xi, iterations, f


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
    lam = 0.  The result is the unique minimizer of the convex problem.
    """
    utilde = grid.check(utilde)
    if target_mass is None:
        target_mass = grid.mass(utilde)
    xi, iterations, _ = solve_xi(
        grid, utilde, delta, target_mass, tol=tol, max_iter=max_iter
    )
    u, lam = clamp_with_multiplier(utilde, xi, delta)
    return ProjectionResult(u=u, lam=lam, xi=xi, iterations=iterations)
