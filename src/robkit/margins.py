"""Deterministic robustness margins for single-block uncertainty.

complex_margin: reciprocal of the boundary supremum of the largest singular
value of M(s) (the smallest destabilizing complex block).  real_margin: the
analogous real-block margin, using the second singular value of the
[[Re M, -g Im M], [g^-1 Im M, Re M]] matrix minimized over g in (0, 1], which
is unimodal in g.

Both sweeps evaluate M(s) for all boundary points with one stacked solve and
the objective on the whole stack; the golden-section search over g runs for
all points in lockstep, one stacked SVD per iteration.  The real sweep needs
only the argmax and its value, so it stops every point that can no longer be
the argmax: a point's smallest sigma_2 so far bounds its final value from
above, and once that bound is strictly below the converged value of another
point the search there stops.  The sweep's values are then exact at the
argmax and at every point searched to convergence, and upper bounds below
the maximum elsewhere; argmax and maximum equal those of the full search bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .indicators import LtiPlant, PoleRegion

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GAMMA_FLOOR = 1e-6  # search on log(gamma) in [log 1e-6, 0] to tame 1/gamma
# points searched to convergence first, by largest sigma_2 at gamma = 1, so
# that their best value can stop the search at every other point
SEED_LANES = 16


class NominalInstabilityError(ValueError):
    pass


@dataclass
class MarginResult:
    value: float
    kind: str  # "complex" or "real"
    frequency_at_sup: float  # omega (half-plane) or boundary angle (disk)
    gamma_at_inf: float | None = None


def _check_nominal(plant: LtiPlant, region: PoleRegion) -> None:
    if not region.inside(np.linalg.eigvals(plant.a_mat), band=0.0):
        raise NominalInstabilityError("nominal poles are not inside the region")


def _golden_max(
    f, lo, hi, tol: float = 1e-10, floor: float = math.inf
) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maximization of independent lanes in lockstep.

    lo and hi are 1-D arrays of interval ends, one per lane; f(x, lanes)
    returns the objective of lanes `lanes` at the points x.  Each lane follows
    the scalar update and stopping rule and freezes once its own interval is
    below tolerance, so f is called once per iteration for all live lanes.
    A lane also freezes once its best value so far, max(f1, f2), is strictly
    above `floor`; that best value only grows, so it is a lower bound on the
    lane's converged maximum.
    Returns the (argmax, max) arrays: converged values for the lanes that
    never passed the floor, bit-equal to a run without one, and for frozen
    lanes the best point and value at the step they froze.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    live = np.arange(lo.size)
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = f(x1, live), f(x2, live)
    while True:
        lo_l, hi_l = lo[live], hi[live]
        keep = hi_l - lo_l > tol * np.maximum(1.0, np.abs(lo_l) + np.abs(hi_l))
        live = live[keep & ~(np.maximum(f1[live], f2[live]) > floor)]
        if not live.size:
            break
        up = f1[live] < f2[live]
        u, d = live[up], live[~up]
        lo[u], x1[u], f1[u] = x1[u], x2[u], f2[u]
        x2[u] = lo[u] + GOLDEN * (hi[u] - lo[u])
        hi[d], x2[d], f2[d] = x2[d], x1[d], f1[d]
        x1[d] = hi[d] - GOLDEN * (hi[d] - lo[d])
        f_new = f(np.where(up, x2[live], x1[live]), live)
        f2[u], f1[d] = f_new[up], f_new[~up]
    first = f1 >= f2
    return np.where(first, x1, x2), np.where(first, f1, f2)


def _sigma_max(m: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a (P, out, in) stack."""
    return np.linalg.norm(m, ord=2, axis=(-2, -1))


def _libm_exp(x: np.ndarray) -> np.ndarray:
    """exp through math.exp: NumPy's vectorized exp differs from libm in the
    last bit for a few percent of arguments, which on a flat objective moves
    the golden-section path and gamma by up to the search tolerance."""
    return np.array([math.exp(v) for v in x.tolist()])


def _real_objective(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix of a (P, out, in) stack: inf over gamma in (0,1] of sigma_2
    of the real block matrix, and the gamma attaining it.

    A matrix whose largest imaginary part is at most 1e-14 times its largest
    entry's modulus takes the real branch, sigma_1 of Re M at gamma = 1.
    With more than SEED_LANES matrices to search, the SEED_LANES with the
    largest sigma_2 at gamma = 1 are searched to convergence first; the
    largest of their values and of the real-branch values is a floor, and
    the search stops at every other matrix once its smallest sigma_2 so far
    is strictly below it.  Such a matrix gets that sigma_2 and its gamma: the
    value is an upper bound on the full search's and strictly below the
    maximum.  Every other value and gamma is the full search's, so the argmax
    and the maximum are unchanged bit for bit.  With at most SEED_LANES
    matrices every one is searched to convergence, and the lanes are
    independent, so slices of a stack that short give the full search.
    """
    re, im = m.real, m.imag
    values = np.empty(len(m))
    gammas = np.ones(len(m))
    real = np.max(np.abs(im), axis=(-2, -1)) <= 1e-14 * np.max(np.abs(m), axis=(-2, -1))
    # the block matrix is Re M twice: sigma_2 of the duplicated spectrum is sigma_1
    values[real] = np.linalg.svd(re[real], compute_uv=False)[:, 0]
    lanes = np.flatnonzero(~real)
    re, im = re[lanes], im[lanes]

    def neg_sigma2(log_gamma, live):
        g = _libm_exp(log_gamma)[:, None, None]
        r, i = re[live], im[live]
        block = np.concatenate(
            (np.concatenate((r, -g * i), axis=-1), np.concatenate((i / g, r), axis=-1)),
            axis=-2,
        )
        return -np.linalg.svd(block, compute_uv=False)[:, 1]

    def search(sub, floor=math.inf):
        log_g, neg = _golden_max(
            lambda x, live: neg_sigma2(x, sub[live]),
            np.full(sub.size, math.log(GAMMA_FLOOR)),
            np.zeros(sub.size),
            tol=1e-8,
            floor=floor,
        )
        values[lanes[sub]] = -neg
        gammas[lanes[sub]] = _libm_exp(log_g)

    every = np.arange(lanes.size)
    if lanes.size <= SEED_LANES:
        search(every)
        return values, gammas
    seeded = np.zeros(lanes.size, dtype=bool)
    seeded[np.argsort(neg_sigma2(np.zeros(lanes.size), every))[:SEED_LANES]] = True
    search(every[seeded])
    done = real.copy()
    done[lanes[seeded]] = True
    search(every[~seeded], floor=-np.max(values[done]))
    return values, gammas


def _sweep(plant, region, objective, n_points):
    """Boundary supremum of a stacked objective: every grid point at once,
    then a golden-section refinement around the best one."""
    ts = region.sweep(n_points)
    vals = objective(plant.transfer_at(region.boundary(ts)))
    best = int(np.argmax(vals))
    lo = ts[max(best - 1, 0)]
    hi = ts[min(best + 1, len(ts) - 1)]
    t_star, v_star = _golden_max(
        lambda t, _: objective(plant.transfer_at(region.boundary(t))), [lo], [hi]
    )
    if vals[best] >= v_star[0]:
        return float(ts[best]), float(vals[best])
    return float(t_star[0]), float(v_star[0])


def complex_margin(plant: LtiPlant, region: PoleRegion, n_points: int = 2048) -> MarginResult:
    """Smallest destabilizing complex-block size: 1 / sup over the region
    boundary of the largest singular value of M(s)."""
    _check_nominal(plant, region)
    t_star, sup = _sweep(plant, region, _sigma_max, n_points)
    if sup <= 0:
        raise ValueError("transfer matrix vanishes on the boundary sweep")
    return MarginResult(1.0 / sup, "complex", t_star)


def real_margin(plant: LtiPlant, region: PoleRegion, n_points: int = 2048) -> MarginResult:
    """Smallest destabilizing real-block size via the second-singular-value
    criterion, minimized over the skew parameter at every boundary point."""
    _check_nominal(plant, region)
    t_star, sup = _sweep(plant, region, lambda m: _real_objective(m)[0], n_points)
    if sup <= 0:
        return MarginResult(math.inf, "real", t_star, 1.0)
    _, gamma = _real_objective(plant.transfer_at([region.boundary(t_star)]))
    return MarginResult(1.0 / sup, "real", t_star, float(gamma[0]))


def destabilizing_delta(
    plant: LtiPlant, region: PoleRegion, radius: float, n_points: int = 2048
) -> np.ndarray:
    """A complex block of spectral norm `radius`, aligned with the worst
    boundary point, that closes the loop det(I - M(s*) Delta) -> 0 when
    radius reaches the complex margin (and pushes an eigenvalue across the
    boundary slightly above it)."""
    res = complex_margin(plant, region, n_points)
    m_val = plant.transfer_at(region.boundary(res.frequency_at_sup))
    u, _, vh = np.linalg.svd(m_val)
    return radius * np.outer(vh[0].conj(), u[:, 0].conj())
