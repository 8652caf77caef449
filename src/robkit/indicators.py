"""Robustness-requirement predicates over uncertainty instances.

An Indicator maps an instance to 0/1 deterministically.  Besides the generic
pole-region stability check, this module provides two analytic oracles with
known robustness curves (a layered norm-shell example and a rank-one matrix
family) and a time-domain step-response specification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import expm
from scipy.signal import tf2ss

from .uncsample import (
    BlockShape,
    InvalidInstanceError,
    NormKind,
    ShapeKind,
    UncertaintyInstance,
    norm as unc_norm,
    row_norms,
)

BOUNDARY_MARGIN = 1e-9  # eigenvalues this close to the region edge count as outside
SOLVE_BLOCK_BYTES = 1 << 19  # bounds the complex s*I - A stack of one transfer_at solve


@dataclass(frozen=True)
class Indicator:
    """fn decides one instance.  batch, where given, decides a stack of
    instances at once: their flat coords, shape (S, d), to S decisions, each
    the same as fn on that row."""

    fn: Callable[[UncertaintyInstance], int]
    description: str
    batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, delta: UncertaintyInstance) -> int:
        return self.fn(delta)


@dataclass(frozen=True)
class HalfPlane:
    """Pole region Re(s) < sigma_max."""

    sigma_max: float = 0.0


@dataclass(frozen=True)
class Disk:
    """Pole region |s| < radius."""

    radius: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("disk radius must be positive")


PoleRegion = HalfPlane | Disk


def eigs_in_region(eigs: np.ndarray, region: PoleRegion) -> bool:
    if isinstance(region, HalfPlane):
        return bool(np.all(eigs.real < region.sigma_max - BOUNDARY_MARGIN))
    return bool(np.all(np.abs(eigs) < region.radius - BOUNDARY_MARGIN))


@dataclass(frozen=True)
class LtiPlant:
    """State-space data of the nominal interconnection M(s) = C (sI-A)^-1 B."""

    a_mat: np.ndarray
    b_mat: np.ndarray
    c_mat: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a_mat, dtype=float))
        b = np.atleast_2d(np.asarray(self.b_mat, dtype=float))
        c = np.atleast_2d(np.asarray(self.c_mat, dtype=float))
        object.__setattr__(self, "a_mat", a)
        object.__setattr__(self, "b_mat", b)
        object.__setattr__(self, "c_mat", c)
        n = a.shape[0]
        if a.shape != (n, n) or b.shape[0] != n or c.shape[1] != n:
            raise ValueError("incompatible state-space dimensions")

    @property
    def n_states(self) -> int:
        return self.a_mat.shape[0]

    def transfer_at(self, s) -> np.ndarray:
        """M(s) by a dense solve: a matrix for a scalar s, and the (P, out, in)
        stack for a 1-D array of P points, solved in blocks of at most
        SOLVE_BLOCK_BYTES of s*I - A."""
        s = np.asarray(s)
        n = self.n_states
        flat = s.reshape(-1)
        step = max(1, SOLVE_BLOCK_BYTES // (16 * n * n))
        # B as a (1, n, in) stack: NumPy < 2 reads a right-hand side with one
        # dimension fewer than the (P, n, n) stack as a stack of vectors
        rhs = self.b_mat[None]
        blocks = [
            self.c_mat
            @ np.linalg.solve(flat[k : k + step, None, None] * np.eye(n) - self.a_mat, rhs)
            for k in range(0, max(flat.size, 1), step)
        ]
        return np.concatenate(blocks).reshape(s.shape + blocks[0].shape[1:])


def region_stability(plant: LtiPlant, region: PoleRegion) -> Indicator:
    """1 iff every eigenvalue of A + B*Delta*C lies strictly inside the region
    (a 1e-9 boundary band counts as outside)."""
    rows = plant.b_mat.shape[1]
    cols = plant.c_mat.shape[0]

    def fn(delta: UncertaintyInstance) -> int:
        if delta.shape.kind is ShapeKind.VECTOR:
            raise InvalidInstanceError("stability check needs a matrix-shaped block")
        d = delta.as_matrix()
        if d.shape != (rows, cols):
            raise InvalidInstanceError(
                f"block is {d.shape}, plant expects {(rows, cols)}"
            )
        closed = plant.a_mat + plant.b_mat @ d @ plant.c_mat
        return int(eigs_in_region(np.linalg.eigvals(closed), region))

    return Indicator(fn, f"pole placement of A + B*Delta*C inside {region}")


# ---------------------------------------------------------------------------
# Layered norm-shell oracle: shells of width 1/m_layers, with the i-th shell
# and everything from shell j outward (up to radius 1) violating the
# requirement.  Its exact robustness curves are known in closed form.
# ---------------------------------------------------------------------------


def _check_layered_params(m_layers: int, i: int, j: int) -> None:
    if not (2 <= i + 1 < j < m_layers):
        raise ValueError("need 2 <= i+1 < j < m_layers")


def layered_oracle(
    m_layers: int, i: int, j: int, norm_kind: NormKind = NormKind.L2
) -> Indicator:
    _check_layered_params(m_layers, i, j)
    lo_bad = ((i - 1) / m_layers, i / m_layers)
    hi_bad = ((j - 1) / m_layers, 1.0)

    def fn(delta: UncertaintyInstance) -> int:
        rho = unc_norm(delta, norm_kind)
        bad = lo_bad[0] <= rho < lo_bad[1] or hi_bad[0] <= rho < hi_bad[1]
        return 0 if bad else 1

    def batch(coords: np.ndarray) -> np.ndarray:
        rho = row_norms(coords, norm_kind)
        bad = (lo_bad[0] <= rho) & (rho < lo_bad[1]) | (hi_bad[0] <= rho) & (rho < hi_bad[1])
        return np.where(bad, 0, 1)

    return Indicator(
        fn, f"layered shells m={m_layers}, bad shells {i} and {j}..{m_layers}", batch
    )


def layered_phi(m_layers: int, i: int, j: int, rho: float) -> float:
    """Success probability on the sphere of radius rho for the layered oracle
    (0 on bad shells, 1 elsewhere)."""
    _check_layered_params(m_layers, i, j)
    bad = (i - 1) / m_layers <= rho < i / m_layers or (j - 1) / m_layers <= rho < 1.0
    return 0.0 if bad else 1.0


def layered_scriptp(m_layers: int, i: int, j: int, rho: float) -> float:
    """Exact surface-radial curve of the layered oracle."""
    _check_layered_params(m_layers, i, j)
    m = m_layers
    if rho < (i - 1) / m:
        return 1.0
    if rho < i / m:
        return (i - 1) / (m * rho)
    if rho < (j - 1) / m:
        return (m * rho - 1) / (m * rho)
    return (j - 2) / (m * rho)


def layered_bbp(m_layers: int, i: int, j: int, d: int, rho: float) -> float:
    """Exact ball-uniform curve of the layered oracle in dimension d."""
    _check_layered_params(m_layers, i, j)
    m = m_layers

    def powd(x: float) -> float:
        # (x / (m*rho))^d without overflow/underflow surprises
        if x <= 0.0:
            return 0.0
        return math.exp(d * math.log(x / (m * rho)))

    if rho < (i - 1) / m:
        return 1.0
    if rho < i / m:
        return powd(i - 1)
    if rho < (j - 1) / m:
        return 1.0 - powd(i) + powd(i - 1)
    return powd(j - 1) - powd(i) + powd(i - 1)


# ---------------------------------------------------------------------------
# Rank-one matrix family: A(q) = -10 I_k + (sum_l q_l sqrt(l)) * ones(k, k),
# with d = k^2 parameters.  The ones matrix has rank one, so the spectrum is
# {-10 (k-1 times), -10 + k * c} with c = sum_l q_l sqrt(l); Hurwitz stability
# is exactly k*c < 10.
# ---------------------------------------------------------------------------


def _rank_one_coefficient(k: int, coords: np.ndarray) -> float:
    d = k * k
    if coords.size != d:
        raise InvalidInstanceError(f"expected {d} coords for k={k}")
    return float(coords @ np.sqrt(np.arange(1, d + 1)))


def rank_one_oracle(k: int) -> Indicator:
    def fn(delta: UncertaintyInstance) -> int:
        c = _rank_one_coefficient(k, delta.coords)
        return int(k * c < 10.0)

    return Indicator(fn, f"closed-form Hurwitz test of the rank-one family, k={k}")


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
    return UncertaintyInstance(
        np.full(k * k, c), BlockShape.real_matrix(k, k)
    )


# ---------------------------------------------------------------------------
# Time-domain step-response specification.
# ---------------------------------------------------------------------------


def _step_response(a, b, c, d, horizon: float, n_steps: int):
    """Unit step response by exact discretization at a fixed step.

    The states x_k = sum_{i<k} A_d^i B_d u are a prefix scan of one affine
    map, computed by doubling with x_{L+j} = A_d^L x_j + x_L: column k-1
    holds x_k, and ceil(log2 n_steps) passes fill the n_steps columns.
    """
    n = a.shape[0]
    dt = horizon / n_steps
    aug = np.zeros((n + b.shape[1], n + b.shape[1]))
    aug[:n, :n] = a * dt
    aug[:n, n:] = b * dt
    e = expm(aug)
    ad, bd = e[:n, :n], e[:n, n:]
    x = np.empty((n, n_steps))
    x[:, 0] = bd.sum(axis=1)  # B_d u for a unit step u on every input
    power, done = ad, 1  # power = A_d^done
    while done < n_steps:
        k = min(done, n_steps - done)
        x[:, done : done + k] = power @ x[:, :k] + x[:, done - 1 : done]
        power, done = power @ power, done + k
    t = np.arange(1, n_steps + 1) * dt
    return t, (c @ x)[0] + d.sum()


def step_spec(
    closed_loop: Callable[[UncertaintyInstance], tuple],
    rise_max: float,
    settle_max: float,
    overshoot_max: float,
) -> Indicator:
    """1 iff the closed loop built for the instance is stable and its unit
    step response meets all three limits.

    Conventions (standard control-text definitions): rise time is the 10%
    to 90% crossing interval, settling uses a +/-2% band around the final
    value, overshoot is (peak - final)/final.  The final value comes from the
    DC gain, not the last sample; the horizon is 5x the settling limit split
    into 2000 steps.
    """

    def fn(delta: UncertaintyInstance) -> int:
        a, b, c, d = (np.atleast_2d(np.asarray(mat, dtype=float)) for mat in closed_loop(delta))
        eigs = np.linalg.eigvals(a)
        if not eigs_in_region(eigs, HalfPlane(0.0)):
            return 0
        final = (d - c @ np.linalg.solve(a, b)).item()
        if final <= 1e-12:
            return 0
        t, y = _step_response(a, b, c, d, horizon=5.0 * settle_max, n_steps=2000)
        yn = y / final
        above10 = np.nonzero(yn >= 0.1)[0]
        above90 = np.nonzero(yn >= 0.9)[0]
        if above10.size == 0 or above90.size == 0:
            return 0
        rise = t[above90[0]] - t[above10[0]]
        outside = np.nonzero(np.abs(yn - 1.0) > 0.02)[0]
        settle = t[outside[-1]] + (t[1] - t[0]) if outside.size else 0.0
        overshoot = max(float(yn.max()) - 1.0, 0.0)
        ok = rise <= rise_max and settle <= settle_max and overshoot <= overshoot_max
        return int(ok)

    return Indicator(
        fn,
        f"step response within rise<={rise_max}s, settle<={settle_max}s, "
        f"overshoot<={overshoot_max:.0%}",
    )


def three_parameter_servo(delta: UncertaintyInstance) -> tuple:
    """Closed loop of a third-order type-1 plant with a lead-lag compensator
    under unity feedback; the three coordinates perturb the plant gain and
    the two real pole locations.

        compensator (s+2)/(s+10),
        plant 800*(1+0.1*d1) / (s*(s+4+0.2*d2)*(s+6+0.3*d3)).
    """
    d1, d2, d3 = delta.coords
    num_c = np.array([1.0, 2.0])
    den_c = np.array([1.0, 10.0])
    num_p = np.array([800.0 * (1.0 + 0.1 * d1)])
    den_p = np.polymul(np.array([1.0, 0.0]), np.polymul(
        np.array([1.0, 4.0 + 0.2 * d2]), np.array([1.0, 6.0 + 0.3 * d3])
    ))
    num_ol = np.polymul(num_c, num_p)
    den_ol = np.polymul(den_c, den_p)
    den_cl = np.polyadd(den_ol, num_ol)
    return tf2ss(num_ol, den_cl)


def servo_stability_indicator() -> Indicator:
    """Closed-loop Hurwitz stability of the three-parameter servo."""

    def fn(delta: UncertaintyInstance) -> int:
        a, _, _, _ = three_parameter_servo(delta)
        return int(eigs_in_region(np.linalg.eigvals(np.atleast_2d(a)), HalfPlane(0.0)))

    return Indicator(fn, "three-parameter servo closed-loop stability")
