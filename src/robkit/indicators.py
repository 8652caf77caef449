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

from .uncsample import (
    BlockShape,
    InvalidInstanceError,
    NormKind,
    ShapeKind,
    UncertaintyInstance,
    row_norms,
)

BOUNDARY_MARGIN = 1e-9  # eigenvalues this close to the region edge count as outside
F_RANGE = (1e-3, 1e3)  # half-plane sweep: omega = 0, then geometric over this range
SOLVE_BLOCK_BYTES = 1 << 19  # bounds the complex s*I - A stack of one transfer_at solve
STEP_COUNT = 2000  # time steps of a step_spec response, over 5x the settling limit
RISE_STEPS = 10  # time steps that rise_max must span, so that a rise time is resolved


@dataclass(frozen=True)
class Indicator:
    """fn decides one instance.  batch, where given, decides a stack of
    instances at once: their flat coords, shape (S, d), and their common
    block shape, to S decisions, each the same as fn on that row.  The
    built-in kinds other than step_spec state their rule once, as the batch,
    and decide one instance as the batch decides it on one row."""

    fn: Callable[[UncertaintyInstance], int]
    description: str
    batch: Callable[[np.ndarray, BlockShape], np.ndarray] | None = None

    def __call__(self, delta: UncertaintyInstance) -> int:
        return self.fn(delta)


def _by_batch(
    batch: Callable[[np.ndarray, BlockShape], np.ndarray], description: str
) -> Indicator:
    """The Indicator whose one-instance call is `batch` on one row."""

    def fn(delta: UncertaintyInstance) -> int:
        return int(batch(delta.coords[None], delta.shape)[0])

    return Indicator(fn, description, batch)


@dataclass(frozen=True)
class HalfPlane:
    """Pole region Re(s) < sigma_max."""

    sigma_max: float = 0.0

    def inside(self, eigs: np.ndarray, band: float = BOUNDARY_MARGIN) -> np.ndarray:
        """Whether every eigenvalue lies more than `band` inside the edge,
        reduced along the last axis: one bool per spectrum of a stack."""
        return np.all(eigs.real < self.sigma_max - band, axis=-1)

    def boundary(self, t):
        """The edge point sigma_max + i*t, for a scalar or an array t."""
        return self.sigma_max + 1j * t

    def sweep(self, n_points: int) -> np.ndarray:
        """Edge parameters of a margin sweep: omega = 0, then geometric over F_RANGE."""
        return np.concatenate(([0.0], np.geomspace(*F_RANGE, n_points - 1)))


@dataclass(frozen=True)
class Disk:
    """Pole region |s| < radius."""

    radius: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("disk radius must be positive")

    def inside(self, eigs: np.ndarray, band: float = BOUNDARY_MARGIN) -> np.ndarray:
        """Whether every eigenvalue lies more than `band` inside the edge,
        reduced along the last axis: one bool per spectrum of a stack."""
        return np.all(np.abs(eigs) < self.radius - band, axis=-1)

    def boundary(self, t):
        """The edge point radius * e^(i*t), for a scalar or an array t."""
        return self.radius * np.exp(1j * t)

    def sweep(self, n_points: int) -> np.ndarray:
        """Edge angles of a margin sweep over [0, pi]: real data are conjugate-symmetric."""
        return np.linspace(0.0, math.pi, n_points)


PoleRegion = HalfPlane | Disk


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
    block = (plant.b_mat.shape[1], plant.c_mat.shape[0])

    def batch(coords: np.ndarray, shape: BlockShape) -> np.ndarray:
        if shape.kind is ShapeKind.VECTOR:
            raise InvalidInstanceError("stability check needs a matrix-shaped block")
        if (shape.rows, shape.cols) != block:
            raise InvalidInstanceError(
                f"block is {(shape.rows, shape.cols)}, plant expects {block}"
            )
        # stacked matmul and eigvals run the per-matrix BLAS and LAPACK calls
        closed = plant.a_mat + plant.b_mat @ shape.matrices(coords) @ plant.c_mat
        return region.inside(np.linalg.eigvals(closed)).astype(np.int64)

    return _by_batch(batch, f"pole placement of A + B*Delta*C inside {region}")


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

    def batch(coords: np.ndarray, shape: BlockShape) -> np.ndarray:
        return layered_phi(m_layers, i, j, row_norms(coords, norm_kind)).astype(np.int64)

    return _by_batch(batch, f"layered shells m={m_layers}, bad shells {i} and {j}..{m_layers}")


def layered_phi(m_layers: int, i: int, j: int, rho):
    """Success probability on the sphere of radius rho for the layered oracle
    (0 on bad shells, 1 elsewhere): a float for a float rho, an array for an
    array."""
    _check_layered_params(m_layers, i, j)
    m = m_layers
    bad = ((i - 1) / m <= rho) & (rho < i / m) | ((j - 1) / m <= rho) & (rho < 1.0)
    return 1.0 - bad


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


def _rank_one_weights(k: int, width: int) -> np.ndarray:
    d = k * k
    if width != d:
        raise InvalidInstanceError(f"expected {d} coords for k={k}")
    return np.sqrt(np.arange(1, d + 1))


def rank_one_oracle(k: int) -> Indicator:
    def batch(coords: np.ndarray, shape: BlockShape) -> np.ndarray:
        # per-row dot products as a stacked matmul, which round as the 1-d
        # dot does; a plain (S, d) @ (d,) product may sum in another order
        w = _rank_one_weights(k, coords.shape[1])
        c = (coords[:, None, :] @ w[:, None])[:, 0, 0]
        return (k * c < 10.0).astype(np.int64)

    return _by_batch(batch, f"closed-form Hurwitz test of the rank-one family, k={k}")


# ---------------------------------------------------------------------------
# Time-domain step-response specification.
# ---------------------------------------------------------------------------


def _step_response(a, b, c, d, horizon: float, n_steps: int):
    """Unit step response by exact discretization at a fixed step.

    The states x_k = sum_{i<k} A_d^i B_d u are a prefix scan of one affine
    map, computed by doubling with x_{L+j} = A_d^L x_j + x_L: column k-1
    holds x_k, and ceil(log2 n_steps) passes fill the n_steps columns.
    """
    from scipy.linalg import expm  # loaded by step_spec, so only a lookup here

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
    into STEP_COUNT steps.  Limits whose rise_max spans fewer than RISE_STEPS
    of those steps (settle_max > 40*rise_max) raise ValueError, and so does a
    response with a non-finite sample.
    """
    dt = 5.0 * settle_max / STEP_COUNT
    if rise_max < RISE_STEPS * dt:
        raise ValueError(
            f"rise_max {rise_max:g} s spans fewer than {RISE_STEPS} time steps of "
            f"5*settle_max/{STEP_COUNT} = {dt:g} s"
        )
    import scipy.linalg  # noqa: F401  (loaded with the indicator, not on a first decision)

    def fn(delta: UncertaintyInstance) -> int:
        a, b, c, d = (np.atleast_2d(np.asarray(mat, dtype=float)) for mat in closed_loop(delta))
        if not HalfPlane(0.0).inside(np.linalg.eigvals(a)):
            return 0
        final = (d - c @ np.linalg.solve(a, b)).item()
        if final <= 1e-12:
            return 0
        t, y = _step_response(a, b, c, d, horizon=5.0 * settle_max, n_steps=STEP_COUNT)
        if not np.isfinite(y).all():
            raise ValueError(f"step response is not finite at time step {t[0]:g} s")
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
        plant k / (s*(s+p)*(s+q)), k = 800*(1+0.1*d1), p = 4+0.2*d2, q = 6+0.3*d3.

    (A, B, C, D) is the companion form of k(s+2) over the monic closed-loop
    denominator s(s+p)(s+q)(s+10) + k(s+2).
    """
    d1, d2, d3 = delta.coords
    k, first = _servo_coefficients(d1, d2, d3)
    a = np.eye(4, k=-1)
    a[0] = first
    return a, np.eye(4, 1), np.array([[0.0, 0.0, k, 2.0 * k]]), np.zeros((1, 1))


def _servo_coefficients(d1, d2, d3) -> tuple:
    """The servo's gain k and the first row of its companion A, for scalar
    coordinates or for (S,) columns of them."""
    k, p, q = 800.0 * (1.0 + 0.1 * d1), 4.0 + 0.2 * d2, 6.0 + 0.3 * d3
    return k, (-(p + q + 10.0), -(p * q + 10.0 * (p + q)), -(10.0 * (p * q) + k), -(2.0 * k))


def servo_stability_indicator() -> Indicator:
    """Closed-loop Hurwitz stability of the three-parameter servo."""

    def batch(coords: np.ndarray, shape: BlockShape) -> np.ndarray:
        d1, d2, d3 = coords.T
        _, first = _servo_coefficients(d1, d2, d3)
        a = np.tile(np.eye(4, k=-1), (coords.shape[0], 1, 1))
        a[:, 0] = np.stack(first, axis=1)
        return HalfPlane(0.0).inside(np.linalg.eigvals(a)).astype(np.int64)

    return _by_batch(batch, "three-parameter servo closed-loop stability")
