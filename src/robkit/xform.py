"""Integral transforms between the surface-radial robustness curve ("script"
measure, radius drawn uniformly then placed on a sphere) and the classical
ball-uniform curve, plus quadrature oracles built on the conditional success
probability phi on spheres.

With n the dimension of the uncertainty space and P_s / P_b the two curves:

    P_s(r) = P_b(r)/n + (n-1)/n * int_0^1 P_b(r*rho) d rho
    P_b(r) = n*P_s(r) - n*(n-1) * int_0^1 P_s(r*rho) rho^(n-1) d rho
    P_s(r) = (1/r)    * int_0^r phi(rho) d rho
    P_b(r) = (n/r^n)  * int_0^r phi(rho) rho^(n-1) d rho

The curve-to-curve directions are first-order recursions in r, evaluated
as prefix sums (Blelloch, "Prefix sums and their applications", 1990).  The
forward recursion out[k+1] = q_k*out[k] + c_k, with q_k = (r_k/r_{k+1})^n,
sums in blocks: from a block base b, with s_K = n*ln(r_K/r_b),

    out[K] = exp(-s_K) * (out[b] + sum_{b<=k<K} exp(s_{k+1}) * c_k),

and a block ends before s passes SPAN, so both weights stay normal floats,
or after BLOCK cells, which bounds the temporaries; its last value is the
next block's base.  A single cell wider than SPAN takes the scalar step
q*out + c, where q underflows harmlessly.  q and the cell integrals are
computed through exp/expm1 of logs, since the raw n*(n-1)/r^n weights
overflow badly already around n = 36.  The reverse recursion's factors
r_k/r_{k+1} telescope, so it is one cumulative sum of its trapezoid cells.
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


# the largest n*ln(r_K/r_b) in one block: exp(+-SPAN) are normal floats
# with room for a sum of BLOCK terms of size up to n
SPAN = 600.0
BLOCK = 2**15


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
    b = 0
    while b < len(r) - 1:
        s = n * np.log(r[b : b + BLOCK + 1] / r[b])
        # radii b .. e are within SPAN of the base; at least one cell
        e = b + max(int(np.searchsorted(s, SPAN, side="right")) - 1, 1)
        s = s[: e - b + 1]
        log_q = s[:-1] - s[1:]  # q_k = (r_k / r_{k+1})^n
        pk = p[b:e]
        # (n-1) * p_k * q * (1/q - 1) == (n-1) * p_k * (1 - q)
        c = n * p[b + 1 : e + 1] - np.exp(log_q) * (n * pk) + (n - 1) * pk * np.expm1(log_q)
        if s[1] > SPAN:  # one wide cell: exp(s) would overflow
            out[e] = math.exp(log_q[0]) * out[b] + c[0]
        else:
            w = np.exp(s[1:])
            out[b + 1 : e + 1] = (out[b] + np.cumsum(w * c)) / w
        b = e
    return CurveGrid(r, np.clip(out, 0.0, 1.0), n, raw_values=out)


def scriptp_from_bbp(curve: CurveGrid) -> CurveGrid:
    """Surface-radial curve from the ball-uniform curve by the reverse
    recursion, with trapezoid cells for the running integral of the input
    and the input extended by its first value down to radius 0.

    The recursion r_{k+1}*out[k+1] = r_k*out[k] + (r_{k+1}*b[k+1] - r_k*b[k])/n
    + (n-1)/n * cell_k telescopes to out = b/n + (n-1)/n * (int_0^r b) / r."""
    n = curve.dim
    r = curve.radii
    b = curve.values
    integral = np.empty_like(b)
    integral[0] = r[0] * b[0]
    np.cumsum(0.5 * np.diff(r) * (b[:-1] + b[1:]), out=integral[1:])
    integral[1:] += integral[0]
    out = b / n + (n - 1) / n * integral / r
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
