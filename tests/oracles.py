"""Independent oracles shared by the test modules.

Everything here is deliberately written against the raw definitions (dense
matrices, bisection, exact rationals, quadrature) rather than the package's
own code paths, so the tests compare two routes to each quantity.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np
from scipy import ndimage
from scipy.special import xlogy


def phi_series_fraction(a: Fraction, shift: int, terms: int = 30) -> float:
    """Exact-rational truncated series sum_j (-a)^j / (j+shift)!."""
    total = Fraction(0)
    for j in range(terms):
        total += Fraction(-1) ** j * a**j / factorial(j + shift)
    return float(total)


def bisect_xi(utilde, delta, target_mass, h, tol=1e-14, steps=200):
    """Fine bisection for the clamp shift, independent of solve_xi."""
    bound = 1.0 - delta
    utilde = np.asarray(utilde, dtype=float)

    def residual(xi):
        clamped = np.minimum(np.maximum(utilde + xi, -bound), bound)
        return h * h * clamped.sum() - target_mass

    lo = -bound - utilde.max()
    hi = bound - utilde.min()
    assert residual(lo) <= 0 <= residual(hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


def feasible_fields(rng, n, shape, delta, target_mass, h, mass_tol=1e-13):
    """Random fields satisfying |w| <= 1-delta and <w,1> = target to mass_tol.

    Built by alternating a uniform shift toward the target mass with a clip
    back into the bound; converges geometrically while any entry is interior.
    """
    bound = 1.0 - delta
    w = rng.uniform(-bound, bound, (n,) + shape)
    cell = h * h
    area = cell * shape[0] * shape[1]
    for _ in range(400):
        defect = target_mass - cell * w.sum(axis=(1, 2))
        if np.max(np.abs(defect)) <= mass_tol:
            break
        w = np.clip(w + (defect / area)[:, None, None], -bound, bound)
    defect = target_mass - cell * w.sum(axis=(1, 2))
    assert np.max(np.abs(defect)) <= mass_tol, "feasible-field generator stalled"
    return w


PREDICTED_CASES = ("no-op", "one-sided", "two-sided", "at-bound")


def predicted_field(case, M, bound):
    """An M x M predictor of the named case, seeded by M: inside the bound,
    over it on one side, over it on both, or with entries exactly at it."""
    base = np.random.default_rng(M).uniform(-0.5, 0.5, (M, M))
    return {
        "no-op": base,
        "one-sided": base + 0.7,
        "two-sided": 2.5 * base,
        "at-bound": np.select([base > 0.2, base < -0.2], [bound, -bound], base),
    }[case]


def dense_stiff_operator(params):
    """Dense M^2 x M^2 matrix of the stiff linear operator, built from the
    periodic second-difference matrix by Kronecker products."""
    M = params.M
    h = params.L / M
    T = np.zeros((M, M))
    for i in range(M):
        T[i, i] = -2.0
        T[i, (i + 1) % M] = 1.0
        T[i, (i - 1) % M] = 1.0
    T /= h * h
    eye = np.eye(M)
    A = np.kron(T, eye) + np.kron(eye, T)  # row-major flattening of u[i, j]
    return (
        params.epsilon**2 * (A @ A)
        - params.kappa * A
        + params.sigma * np.eye(M * M)
    )


def dense_phi_apply(params, fn, v):
    """fn(tau * L) v through a dense symmetric eigendecomposition."""
    L = dense_stiff_operator(params)
    w, V = np.linalg.eigh(L)
    flat = V @ (fn(params.tau * w) * (V.T @ np.asarray(v, dtype=float).ravel()))
    return flat.reshape(params.M, params.M)


def roll_laplace(v, h):
    """Five-point periodic Laplacian as the sum of four np.roll copies."""
    out = (
        np.roll(v, -1, axis=0)
        + np.roll(v, 1, axis=0)
        + np.roll(v, -1, axis=1)
        + np.roll(v, 1, axis=1)
        - 4.0 * v
    )
    out /= h * h
    return out


def roll_gradient(v, h):
    """Periodic forward-difference gradient from np.roll copies."""
    return (np.roll(v, -1, axis=0) - v) / h, (np.roll(v, -1, axis=1) - v) / h


def gauss_legendre_exponential_integral(ell, tau, nodes=64):
    """\\int_0^tau exp(-(tau - s) ell) ds per mode, by Gauss-Legendre."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * tau * (x + 1.0)
    weights = 0.5 * tau * w
    out = np.zeros_like(np.asarray(ell, dtype=float))
    for sk, wk in zip(s, weights):
        out += wk * np.exp(-(tau - sk) * ell)
    return out


def closed_form_symbol(M, L):
    """Five-point Laplacian symbol on the full spectrum, from its formula."""
    h = L / M
    s = np.sin(np.pi * np.arange(M) / M) ** 2
    return -(4.0 / (h * h)) * (s[:, None] + s[None, :])


def complex_apply_phi(v, column):
    """IDFT(column * DFT(v)) through the complex full-spectrum fft2/ifft2
    pair, for a full (M, M) column; the imaginary residue must be roundoff."""
    out = np.fft.ifft2(np.asarray(column, dtype=float) * np.fft.fft2(v))
    assert np.max(np.abs(out.imag)) <= 1e-11 * max(1.0, np.max(np.abs(out.real)))
    return out.real


def full_spectrum_nonlocal(u, L):
    """(L^2/M^4) sum_{(k,l) != (0,0)} |u_hat|^2 / (-d_kl) over all M^2 modes
    of the complex fft2, i.e. -<Lap_h^{-1}(u - mean u), u - mean u>."""
    M = u.shape[0]
    d = closed_form_symbol(M, L)
    d[0, 0] = -1.0
    power = np.abs(np.fft.fft2(u)) ** 2
    power[0, 0] = 0.0
    return (L**2 / M**4) * float(np.sum(power / -d))


def full_spectrum_energy(u, params):
    """Discrete free energy with its nonlocal term summed on the full spectrum."""
    h = params.L / params.M
    up, um = 1.0 + u, 1.0 - u
    entropy = xlogy(up, up) + xlogy(um, um)
    bulk = h * h * np.sum(0.5 * params.theta * entropy - 0.5 * params.theta_c * u * u)
    gx = np.roll(u, -1, axis=0) - u
    gy = np.roll(u, -1, axis=1) - u
    interface = 0.5 * params.epsilon**2 * np.sum(gx * gx + gy * gy)
    nonlocal_sq = full_spectrum_nonlocal(u, params.L)
    return float(bulk + interface + 0.5 * params.sigma * nonlocal_sq)


def ndimage_periodic_count(u, threshold=0.0):
    """Components of {u > threshold} under 4-neighbor periodic adjacency:
    scipy labels the flat array, then a union-find over the two pairs of
    boundary rows and columns merges the components that meet across a seam."""
    mask = np.asarray(u) > threshold
    labels, count = ndimage.label(mask)  # default structure is 4-connectivity
    if count == 0:
        return 0

    parent = list(range(count + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for a, b in zip(labels[0, :], labels[-1, :]):
        if a and b:
            union(int(a), int(b))
    for a, b in zip(labels[:, 0], labels[:, -1]):
        if a and b:
            union(int(a), int(b))

    return len({find(k) for k in range(1, count + 1)})
