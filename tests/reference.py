"""Reference implementations that only the tests compare robkit against."""

import numpy as np

from robkit.gridspec import OutOfRangeError
from robkit.indicators import LtiPlant, PoleRegion, _rank_one_coefficient
from robkit.margins import _check_nominal, _sigma_max
from robkit.reuse import RobustnessCurve
from robkit.uncsample import BlockShape, UncertaintyInstance


def complex_margin_bruteforce(
    plant: LtiPlant, region: PoleRegion, n_points: int = 8192
) -> float:
    """Dense-grid oracle for the complex margin (no refinement step)."""
    _check_nominal(plant, region)
    s = region.boundary(region.sweep(n_points))
    return 1.0 / float(np.max(_sigma_max(plant.transfer_at(s))))


def rank_one_matrix(k: int, coords: np.ndarray) -> np.ndarray:
    """The assembled A(q) matrix, for cross-validating the closed form."""
    c = _rank_one_coefficient(k, np.asarray(coords, dtype=float))
    return -10.0 * np.eye(k) + c * np.ones((k, k))


def rank_one_plant(k: int) -> LtiPlant:
    """Nominal plant (A0 = -10 I, B = C = I) whose perturbed matrix equals
    rank_one_matrix when Delta = c * ones(k, k)."""
    return LtiPlant(-10.0 * np.eye(k), np.eye(k), np.eye(k))


def rank_one_delta_block(k: int, coords: np.ndarray) -> UncertaintyInstance:
    """The k x k block c * ones(k,k) such that A0 + B*Delta*C = A(q)."""
    c = _rank_one_coefficient(k, np.asarray(coords, dtype=float))
    return UncertaintyInstance(np.full(k * k, c), BlockShape.real_matrix(k, k))


def interpolate(curve: RobustnessCurve, r: float) -> float:
    """Linear interpolation of the curve between its grid knots."""
    radii = curve.grid.radii
    if r < radii[0] or r > radii[-1]:
        raise OutOfRangeError(f"radius {r} outside [{radii[0]}, {radii[-1]}]")
    return float(np.interp(r, radii, curve.values))
