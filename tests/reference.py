"""Reference implementations that only the tests compare robkit against."""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from robkit.gridspec import OutOfRangeError
from robkit.indicators import (
    HalfPlane,
    LtiPlant,
    PoleRegion,
    _rank_one_weights,
    layered_phi,
    three_parameter_servo,
)
from robkit.margins import _check_nominal, _sigma_max
from robkit.reuse import RobustnessCurve
from robkit.uncsample import (
    BlockShape,
    InvalidInstanceError,
    NormKind,
    ShapeKind,
    UncertaintyInstance,
    norm,
)


def complex_margin_bruteforce(
    plant: LtiPlant, region: PoleRegion, n_points: int = 8192
) -> float:
    """Dense-grid oracle for the complex margin (no refinement step)."""
    _check_nominal(plant, region)
    s = region.boundary(region.sweep(n_points))
    return 1.0 / float(np.max(_sigma_max(plant.transfer_at(s))))


# ---------------------------------------------------------------------------
# The built-in indicators' rules one instance at a time: the references for
# their batches.
# ---------------------------------------------------------------------------


def region_stability_fn(plant: LtiPlant, region: PoleRegion):
    """region_stability's decision on one instance, by one eigvals call."""
    block = (plant.b_mat.shape[1], plant.c_mat.shape[0])

    def fn(delta: UncertaintyInstance) -> int:
        shape = delta.shape
        if shape.kind is ShapeKind.VECTOR:
            raise InvalidInstanceError("stability check needs a matrix-shaped block")
        if (shape.rows, shape.cols) != block:
            raise InvalidInstanceError(
                f"block is {(shape.rows, shape.cols)}, plant expects {block}"
            )
        closed = plant.a_mat + plant.b_mat @ shape.matrices(delta.coords) @ plant.c_mat
        return int(region.inside(np.linalg.eigvals(closed)))

    return fn


def layered_fn(m_layers: int, i: int, j: int, norm_kind: NormKind = NormKind.L2):
    """layered_oracle's decision on one instance, from its norm."""

    def fn(delta: UncertaintyInstance) -> int:
        return int(layered_phi(m_layers, i, j, norm(delta, norm_kind)))

    return fn


def rank_one_coefficient(k: int, coords: np.ndarray) -> float:
    """c = sum_l q_l sqrt(l), by one 1-d dot product."""
    return float(coords @ _rank_one_weights(k, coords.size))


def rank_one_fn(k: int):
    """rank_one_oracle's decision on one instance: k*c < 10."""

    def fn(delta: UncertaintyInstance) -> int:
        return int(k * rank_one_coefficient(k, delta.coords) < 10.0)

    return fn


def servo_stability_fn(delta: UncertaintyInstance) -> int:
    """servo_stability_indicator's decision on one instance, by one eigvals
    call on three_parameter_servo's A."""
    a, _, _, _ = three_parameter_servo(delta)
    return int(HalfPlane(0.0).inside(np.linalg.eigvals(np.atleast_2d(a))))


def rank_one_matrix(k: int, coords: np.ndarray) -> np.ndarray:
    """The assembled A(q) matrix, for cross-validating the closed form."""
    c = rank_one_coefficient(k, np.asarray(coords, dtype=float))
    return -10.0 * np.eye(k) + c * np.ones((k, k))


def rank_one_plant(k: int) -> LtiPlant:
    """Nominal plant (A0 = -10 I, B = C = I) whose perturbed matrix equals
    rank_one_matrix when Delta = c * ones(k, k)."""
    return LtiPlant(-10.0 * np.eye(k), np.eye(k), np.eye(k))


def rank_one_delta_block(k: int, coords: np.ndarray) -> UncertaintyInstance:
    """The k x k block c * ones(k,k) such that A0 + B*Delta*C = A(q)."""
    c = rank_one_coefficient(k, np.asarray(coords, dtype=float))
    return UncertaintyInstance(np.full(k * k, c), BlockShape.real_matrix(k, k))


def interpolate(curve: RobustnessCurve, r: float) -> float:
    """Linear interpolation of the curve between its grid knots."""
    radii = curve.grid.radii
    if r < radii[0] or r > radii[-1]:
        raise OutOfRangeError(f"radius {r} outside [{radii[0]}, {radii[-1]}]")
    return float(np.interp(r, radii, curve.values))


# ---------------------------------------------------------------------------
# Both robustness curves by quadrature of the success probability phi on
# spheres: the definitions that the recursions of robkit.xform are checked
# against.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiFunction:
    """Success probability on the sphere of a given radius, in [0,1],
    piecewise continuous with declared jump locations."""

    fn: Callable[[float], float]
    discontinuities: tuple[float, ...] = ()


def _pow_ratio(num: float, den: float, n: int) -> float:
    """(num/den)^n via exp of logs; num <= den expected."""
    if num == 0.0:
        return 0.0
    return math.exp(n * math.log(num / den))


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
