"""Correction step: discrete-L2 projection onto the admissible set.

The admissible set is {v : sup|v| <= 1 - delta, <v, 1> = target}.  The
minimizer of 1/2 ||v - utilde||^2 over it is a pointwise clamp of
utilde + xi at +-(1 - delta); the scalar shift xi is the root of the
piecewise-linear, nondecreasing mass residual, which project finds by
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
from .grid import ModelParams

Array = np.ndarray

#: mass-residual tolerance of the shift per unit area: a Newton landing
#: within PROJECTION_TOL * L^2 of the target mass is accepted
PROJECTION_TOL = 1e-13
#: iterations after which the solve for the shift gives up
PROJECTION_MAX_ITER = 100


@dataclass(frozen=True)
class ProjectionResult:
    """Corrected field, its multipliers and the diagnostics of the field.

    u           clamped field, sup|u| <= 1 - delta exactly
    xi          scalar mass multiplier
    iterations  residual evaluations after the xi = 0 probe (Newton steps
                and bisections)
    sup_norm    max |u|
    mass        <u, 1>
    lambda_sup  max of lam
    clamped     number of entries with lam > 0
    utilde      the predicted field
    bound       the sup-norm bound 1 - delta

    The four diagnostics are bitwise what u and lam give.  lam, the
    pointwise multiplier (u - s)/g'(u) = (|s| - bound)/(2 bound) on the
    clamped entries of s = utilde + xi and 0 elsewhere, is built on first
    read.
    """

    u: Array
    xi: float
    iterations: int
    sup_norm: float
    mass: float
    lambda_sup: float
    clamped: int
    utilde: Array = field(repr=False)
    bound: float

    @cached_property
    def lam(self) -> Array:
        return np.maximum(np.abs(self.utilde + self.xi) - self.bound, 0.0) / (2.0 * self.bound)


def project(utilde: Array, params: ModelParams, target_mass: float) -> ProjectionResult:
    """Project utilde onto {sup|v| <= params.bound, <v, 1> = target_mass}.

    The result is the unique minimizer of the convex problem, at the root xi
    of the mass residual <clamp(utilde + xi), 1> - target_mass.  The root is
    found by Newton's method on the clamp pattern (Cominetti, Mascarenhas &
    Silva, Math. Program. Comput. 6, 2014): on the pattern of the current
    shift the residual is linear with slope h^2 * #{|utilde + xi| < bound},
    so one Newton step lands on that pattern's exact root.  When the slope
    is 0 or the step leaves the bracket built from the saturation shifts,
    the bracket is bisected instead; the residual is monotone, so the
    bracket never loses the root.  An iterate is accepted only when its
    residual is exactly 0, or within PROJECTION_TOL * L^2 at a Newton
    landing, so the result carries no bias from stopping anywhere inside
    the tolerance.  A target at +-L^2 bound, the saturated mass, or up to
    that tolerance beyond it gets the one field of that mass, the constant
    +-bound, at the saturating end of the bracket after 0 iterations.
    Raises ProjectionConvergenceError after PROJECTION_MAX_ITER iterations
    without an accepted iterate, NonFiniteFieldError, before any iteration,
    for a NaN or infinite entry of utilde or target mass, and
    InfeasibleMassError for a target farther out.
    """
    # Every residual evaluation writes s = utilde + xi and u = clamp(s) into
    # the same two arrays; the last one is the result.  Rounding is
    # monotone, so max s = fl(max utilde + xi), and the extremes of s give
    # sup|u| and max lam without another pass over the field.
    bound, tol = params.bound, PROJECTION_TOL * params.area
    utilde = params.check(utilde)
    cell = params.h * params.h
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
    saturation = params.area * bound
    if not abs(target_mass) <= saturation + tol:
        raise InfeasibleMassError(
            f"target mass {target_mass} is outside the feasible interval "
            f"[-{saturation}, {saturation}] (tolerance {tol:.3e})"
        )

    xi, iterations = 0.0, 0
    if abs(target_mass) >= saturation:
        # the one admissible field is the constant sign(target) * bound
        xi = hi if target_mass > 0 else lo
        np.add(utilde, xi, out=shifted)
        u.fill(math.copysign(bound, target_mass))
        total, f = float(u.sum()), 0.0
    while f != 0.0:
        if f > 0.0:
            hi = min(hi, xi)
        else:
            lo = max(lo, xi)
        if iterations == PROJECTION_MAX_ITER:
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
    return ProjectionResult(
        u=u,
        xi=xi,
        iterations=iterations,
        sup_norm=max(abs(clip(high)), abs(clip(low))),
        mass=cell * total,
        lambda_sup=lambda_sup,
        clamped=clamped,
        utilde=utilde,
        bound=bound,
    )
