"""Radius grids over [a/lambda, a], the located-index rule of the radial
sweep, and the grid-size / expected-simulation predictions for both
gridding schemes."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class GridScheme(enum.Enum):
    UNIFORM = "uniform"
    GEOMETRIC = "geometric"


class InvalidGridError(ValueError):
    pass


class OutOfRangeError(ValueError):
    pass


class InvalidToleranceError(ValueError):
    pass


@dataclass(frozen=True)
class RadiusGrid:
    scheme: GridScheme
    lam: float
    a: float
    m: int
    radii: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        object.__setattr__(self, "radii", r)
        if r.size != self.m or self.m < 2:
            raise InvalidGridError("grid must hold m >= 2 radii")
        if not np.all(np.diff(r) > 0):
            raise InvalidGridError("radii must be strictly increasing")


def build_grid(scheme: GridScheme, lam: float, a: float, m: int) -> RadiusGrid:
    """Grid r_1 = a/lam < ... < r_m = a, arithmetic or geometric progression."""
    if lam <= 1:
        raise InvalidGridError("lambda must be > 1")
    if a <= 0:
        raise InvalidGridError("a must be > 0")
    if m < 2:
        raise InvalidGridError("m must be >= 2")
    if scheme is GridScheme.UNIFORM:
        radii = np.linspace(a / lam, a, m)
    else:
        i = np.arange(1, m + 1)
        radii = a * (1.0 / lam) ** ((m - i) / (m - 1))
        radii[0] = a / lam
        radii[-1] = a
    return RadiusGrid(scheme, float(lam), float(a), int(m), radii)


def locate(g: RadiusGrid, radius):
    """Smallest index j (1-based) with r_j >= radius, by binary search: an
    int for a scalar radius, an int64 array for an array of radii.  A radius
    outside [0, r_m], NaN included, raises OutOfRangeError."""
    r_m = g.radii[-1]
    inside = (radius >= 0) & (radius <= r_m)
    if not inside.all():
        raise OutOfRangeError(f"radius {np.extract(~inside, radius)[0]} outside [0, {r_m}]")
    j = g.radii.searchsorted(radius) + 1
    return j if np.ndim(j) else int(j)


def choose_m(scheme: GridScheme, lam: float, eps: float) -> int:
    """Grid size guaranteeing |curve - linear interpolant| < eps on every cell."""
    if not 0 < eps < 1:
        raise InvalidToleranceError("eps must be in (0,1)")
    if lam <= 1:
        raise InvalidGridError("lambda must be > 1")
    if scheme is GridScheme.UNIFORM:
        return 2 + math.floor(2 * (lam - 1) / eps)
    return 2 + math.floor(math.log(lam) / math.log1p(eps / 2))


def predict_meq(scheme: GridScheme, lam: float, m: int) -> float:
    """Closed-form expected number of indicator evaluations per direction.

    Always below 1 + ln(lambda), for either scheme.
    """
    if lam <= 1 or m < 2:
        raise InvalidGridError("need lambda > 1 and m >= 2")
    if scheme is GridScheme.UNIFORM:
        i = np.arange(1, m)
        return float(m - np.sum(1.0 - 1.0 / ((m - 1) / (lam - 1) + i)))
    # 1 + (m-1) * (1 - lam^(-1/(m-1))), via expm1 for large m
    return float(1.0 - (m - 1) * math.expm1(-math.log(lam) / (m - 1)))


def baseline_m_bound(lam: float, d: int, eps: float) -> int:
    """Grid-size requirement of the classical ball-uniform measure,
    m >= 1 + 2*(lambda-1)*d/eps; smallest integer m, with a small
    floating-point guard so analytically integral bounds round down."""
    if not 0 < eps < 1:
        raise InvalidToleranceError("eps must be in (0,1)")
    if lam <= 1 or d < 1:
        raise InvalidGridError("need lambda > 1 and d >= 1")
    return math.ceil(1 + 2 * (lam - 1) * d / eps - 1e-9)


def classical_meq_bound(lam: float, d: int) -> float:
    """Dimension-dependent ceiling 1 + d*ln(lambda) on the equivalent grid
    points of ball-uniform sample reuse, for complexity comparison reports."""
    if lam <= 1 or d < 1:
        raise InvalidGridError("need lambda > 1 and d >= 1")
    return 1.0 + d * math.log(lam)
