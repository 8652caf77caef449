"""Integral transforms between the surface-radial robustness curve ("script"
measure, radius drawn uniformly then placed on a sphere) and the classical
ball-uniform curve, plus quadrature oracles built on the conditional success
probability phi on spheres.

With n the dimension of the uncertainty space and P_s / P_b the two curves:

    P_s(r) = P_b(r)/n + (n-1)/n * int_0^1 P_b(r*rho) d rho
    P_b(r) = n*P_s(r) - n*(n-1) * int_0^1 P_s(r*rho) rho^(n-1) d rho
    P_s(r) = (1/r)    * int_0^r phi(rho) d rho
    P_b(r) = (n/r^n)  * int_0^r phi(rho) rho^(n-1) d rho

The curve-to-curve directions are evaluated by a stable recursion in r: the
factor (r/(r+h))^n and the cell integrals are computed through exp/expm1 of
logs, since the raw n*(n-1)/r^n weights overflow badly already around n = 36.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad


@dataclass(frozen=True)
class PhiFunction:
    """Success probability on the sphere of a given radius, in [0,1],
    piecewise continuous with declared jump locations."""

    fn: Callable[[float], float]
    discontinuities: tuple[float, ...] = ()


@dataclass
class CurveGrid:
    """A robustness curve tabulated on a dense strictly-increasing radius grid."""

    radii: np.ndarray
    values: np.ndarray
    dim: int
    raw_values: np.ndarray | None = None

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.radii.size == 0 or self.radii.size != self.values.size:
            raise ValueError("need equal-length, non-empty radii and values")
        if self.radii[0] <= 0 or np.any(np.diff(self.radii) <= 0):
            raise ValueError("radii must be positive and strictly increasing")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")


def _pow_ratio(num: float, den: float, n: int) -> float:
    """(num/den)^n via exp of logs; num <= den expected."""
    if num == 0.0:
        return 0.0
    return math.exp(n * math.log(num / den))


def bbp_from_scriptp(curve: CurveGrid) -> CurveGrid:
    """Ball-uniform curve from the surface-radial curve by the forward
    recursion, treating the input as piecewise constant (left values) and
    extending it by its first value down to radius 0."""
    n = curve.dim
    r = curve.radii
    p = curve.values
    out = np.empty_like(p)
    # over [0, r_1] the curve is the constant p[0]; the transform of a
    # constant is itself
    out[0] = p[0]
    for k in range(len(r) - 1):
        log_q = n * math.log(r[k] / r[k + 1])  # q = (r_k / r_{k+1})^n
        # (n-1) * c * q * (1/q - 1) == (n-1) * c * (1 - q)
        cell = (n - 1) * p[k] * (-math.expm1(log_q))
        out[k + 1] = n * p[k + 1] - math.exp(log_q) * (n * p[k] - out[k]) - cell
    return CurveGrid(r, np.clip(out, 0.0, 1.0), n, raw_values=out)


def scriptp_from_bbp(curve: CurveGrid) -> CurveGrid:
    """Surface-radial curve from the ball-uniform curve by the reverse
    recursion, with trapezoid cells for the running integral of the input."""
    n = curve.dim
    r = curve.radii
    b = curve.values
    out = np.empty_like(b)
    out[0] = b[0]
    for k in range(len(r) - 1):
        h = r[k + 1] - r[k]
        cell = 0.5 * h * (b[k] + b[k + 1])
        out[k + 1] = (
            b[k + 1] / n
            + (r[k] / r[k + 1]) * (out[k] - b[k] / n)
            + (n - 1) / n * cell / r[k + 1]
        )
    return CurveGrid(r, np.clip(out, 0.0, 1.0), n, raw_values=out)


def _pieces(phi: PhiFunction, r: float) -> list[tuple[float, float]]:
    cuts = sorted({c for c in phi.discontinuities if 0.0 < c < r})
    edges = [0.0, *cuts, r]
    return list(zip(edges[:-1], edges[1:]))


def scriptp_from_phi(phi: PhiFunction, r: float) -> float:
    """(1/r) * int_0^r phi, splitting the quadrature at declared jumps."""
    if r <= 0:
        raise ValueError("radius must be positive")
    total = 0.0
    for a, b in _pieces(phi, r):
        val, _ = quad(phi.fn, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
        total += val
    return total / r


def bbp_from_phi(phi: PhiFunction, r: float, n: int) -> float:
    """(n/r^n) * int_0^r phi(rho) rho^(n-1) d rho.

    Each piece is integrated after substituting u = (rho/r)^n, which carries
    the rho^(n-1)/r^n weight exactly and keeps tiny tail masses at full
    relative accuracy.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    total = 0.0
    for a, b in _pieces(phi, r):
        u1 = _pow_ratio(a, r, n)
        u2 = _pow_ratio(b, r, n)
        if u2 <= u1:
            continue
        val, _ = quad(
            lambda u: phi.fn(r * u ** (1.0 / n)),
            u1,
            u2,
            epsabs=1e-15,
            epsrel=1e-12,
            limit=200,
        )
        total += val
    return total
