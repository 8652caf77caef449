"""References the benchmark checks robkit's outputs against.

Nothing here imports robkit.  Each reference is either a closed form, a
NumPy/SciPy computation by another method than robkit's, or a replay of the
documented sampling convention.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random import Generator, Philox
from scipy.linalg import expm

BOUNDARY_BAND = 1e-9  # a pole this close to the imaginary axis counts as unstable


# ---------------------------------------------------------------------------
# Radially symmetric predicates: exact curves.
# ---------------------------------------------------------------------------


def radial_fraction(r, good, n: int) -> np.ndarray:
    """Probability that a point uniform in the n-ball of radius r has its
    radius in the union of the disjoint intervals `good`.

    The radius law is P(|x| <= s) = (s/r)^n, so each interval [a, b)
    contributes (min(b,r)/r)^n - (min(a,r)/r)^n.  With n = 1 the radius is
    uniform on [0, r], which is the surface-radial measure.
    """
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    for a, b in good:
        hi = np.minimum(b, r) / r
        lo = np.minimum(a, r) / r
        out += hi**n - lo**n
    return out


def layered_good(m_layers: int, i: int, j: int):
    """Radii where the layered oracle holds: all but shell i and shells j..m."""
    return [(0.0, (i - 1) / m_layers), (i / m_layers, (j - 1) / m_layers), (1.0, math.inf)]


def shells_good(shells: int, r_max: float = 1.0):
    """Even shells [2k/shells, (2k+1)/shells) up to r_max."""
    w = 1.0 / shells
    return [(2 * k * w, (2 * k + 1) * w) for k in range(int(r_max / (2 * w)) + 1)]


def shells_scriptp(r, shells: int) -> np.ndarray:
    """Surface-radial curve of the even-shell predicate: the share of [0, r]
    on even shells, q full periods of length 2w plus the even part of the
    remainder."""
    r = np.asarray(r, dtype=float)
    w = 1.0 / shells
    q = np.floor(r / (2 * w))
    return (q * w + np.minimum(r - 2 * w * q, w)) / r


# ---------------------------------------------------------------------------
# Simulations per direction.
# ---------------------------------------------------------------------------


def predicted_meq(lam: float, m: int) -> float:
    """Expected indicator calls per direction on a geometric grid."""
    return 1.0 - (m - 1) * math.expm1(-math.log(lam) / (m - 1))


def sims_moments(radii) -> tuple[float, float]:
    """Exact mean and standard deviation of the indicator calls made by one
    backward sweep over `radii`.

    From top index p the sweep draws R ~ U[0, r_p]; the located index J has
    P(J = j) = (r_j - r_{j-1}) / r_p (r_0 = 0), and the sweep continues from
    J - 1.  With S(p) the calls from p: E S(p) = 1 + sum_j P(J=j) E S(j-1)
    and E S(p)^2 = 1 + sum_j P(J=j) (2 E S(j-1) + E S(j-1)^2).
    """
    radii = np.asarray(radii, dtype=float)
    w = np.diff(radii, prepend=0.0).tolist()
    e1 = e2 = 0.0  # moments of S(p-1)
    a1 = a2 = 0.0  # running sums of w_j * moments of S(j-1)
    for wj, rp in zip(w, radii.tolist()):
        a1 += wj * e1
        a2 += wj * e2
        e1, e2 = 1.0 + a1 / rp, 1.0 + (2.0 * a1 + a2) / rp
    return e1, math.sqrt(max(e2 - e1 * e1, 0.0))


# ---------------------------------------------------------------------------
# Replay of the sampling convention.
# ---------------------------------------------------------------------------


def stream(seed: int, index: int) -> Generator:
    """Philox stream `index` of master `seed`: key = (index << 64) | seed."""
    mask = 2**64 - 1
    return Generator(Philox(key=((index & mask) << 64) | (seed & mask)))


def replay_sweeps(seed: int, n: int, radii, d: int):
    """The instances robkit evaluates for directions 1..n under the l2 norm:
    direction k normalises a Gaussian from stream 2k and draws its radii from
    stream 2k+1, sweeping the grid backwards.

    Returns a list of (k, lo, hi, coords): the instance at coords decides
    grid indices lo..hi (1-based) of direction k.
    """
    radii = np.asarray(radii, dtype=float)
    out = []
    for k in range(1, n + 1):
        x = stream(seed, 2 * k).standard_normal((1, d))
        u = (x / np.linalg.norm(x, axis=1, keepdims=True))[0]
        gen = stream(seed, 2 * k + 1)
        p = radii.size
        while p > 0:
            radius = gen.uniform(0.0, radii[p - 1])
            j = int(np.searchsorted(radii, radius, side="left")) + 1
            out.append((k, j, p, u * radius))
            p = j - 1
    return out


def counts_from_runs(m: int, runs) -> np.ndarray:
    """Difference-array sum: H(i) = number of (lo, hi, 1) runs covering i."""
    diff = np.zeros(m + 2, dtype=np.int64)
    for lo, hi, val in runs:
        diff[lo] += val
        diff[hi + 1] -= val
    return np.cumsum(diff)[1 : m + 1]


# ---------------------------------------------------------------------------
# Margins.
# ---------------------------------------------------------------------------


def complex_margin_dense(a, b, c, points: int = 20000, band=(1e-3, 1e3)) -> float:
    """1 / sup over a dense frequency grid of sigma_max(C (jwI - A)^-1 B)."""
    a, b, c = (np.asarray(x, dtype=float) for x in (a, b, c))
    w = np.concatenate(([0.0], np.geomspace(band[0], band[1], points)))
    resolvent = (1j * w)[:, None, None] * np.eye(a.shape[0]) - a
    g = c @ np.linalg.solve(resolvent, np.broadcast_to(b, (w.size, *b.shape)))
    return 1.0 / float(np.linalg.svd(g, compute_uv=False)[:, 0].max())


# ---------------------------------------------------------------------------
# Step response of the three-parameter servo.
# ---------------------------------------------------------------------------


def servo_closed_loop(coords):
    """Numerator and denominator of the unity-feedback closed loop of
    (s+2)/(s+10) * 800(1+0.1 d1) / (s (s+4+0.2 d2)(s+6+0.3 d3))."""
    d1, d2, d3 = coords
    num = np.convolve([1.0, 2.0], [800.0 * (1.0 + 0.1 * d1)])
    den = np.convolve(
        np.convolve([1.0, 10.0], [1.0, 0.0]),
        np.convolve([1.0, 4.0 + 0.2 * d2], [1.0, 6.0 + 0.3 * d3]),
    )
    den[-num.size :] += num
    return num, den


def step_response(num, den, t) -> np.ndarray:
    """Unit step response of num/den (strictly proper) at times t, by partial
    fractions of num/(s den); for nearly repeated poles, by the matrix
    exponential of the controllable canonical form at each t."""
    poles = np.roots(den)
    gap = min(
        (abs(p - q) for i, p in enumerate(poles) for q in poles[i + 1 :]), default=np.inf
    )
    if gap > 1e-6 * max(1.0, float(np.max(np.abs(poles)))):
        dden = np.polyder(den)
        res = np.polyval(num, poles) / (poles * np.polyval(dden, poles))
        y = num[-1] / den[-1] + (res[None, :] * np.exp(np.outer(t, poles))).sum(axis=1)
        return y.real
    n = den.size - 1
    lead = den[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:-2, 1:-1] = np.eye(n - 1)
    aug[n - 1, :n] = -den[:0:-1] / lead
    aug[n - 1, n] = 1.0
    c = np.zeros(n)
    c[: num.size] = num[::-1] / lead
    return np.array([c @ expm(aug * tk)[:n, n] for tk in t])


def step_decision(coords, rise_max: float, settle_max: float, overshoot_max: float):
    """(decision, near_limit) for the step specification: stable, rise time
    (10%-90%) <= rise_max, settling (2% band) <= settle_max and overshoot
    <= overshoot_max, sampled at 2000 steps over 5 * settle_max.

    near_limit is set when a specification quantity lies within one time step
    of its limit (for the overshoot: within the largest one-step change of
    the normalised response), or a pole within 1e-6 of the stability band.
    """
    num, den = servo_closed_loop(coords)
    worst = float(np.max(np.roots(den).real))
    near = abs(worst + BOUNDARY_BAND) <= 1e-6
    if worst >= -BOUNDARY_BAND:
        return 0, near
    final = num[-1] / den[-1]
    n_steps = 2000
    dt = 5.0 * settle_max / n_steps
    t = dt * np.arange(1, n_steps + 1)
    yn = step_response(num, den, t) / final
    i10 = np.flatnonzero(yn >= 0.1)
    i90 = np.flatnonzero(yn >= 0.9)
    if i10.size == 0 or i90.size == 0:
        return 0, near
    rise = t[i90[0]] - t[i10[0]]
    outside = np.flatnonzero(np.abs(yn - 1.0) > 0.02)
    settle = t[outside[-1]] + dt if outside.size else 0.0
    overshoot = max(float(yn.max()) - 1.0, 0.0)
    near |= abs(rise - rise_max) <= dt or abs(settle - settle_max) <= dt
    near |= abs(overshoot - overshoot_max) <= float(np.max(np.abs(np.diff(yn))))
    ok = rise <= rise_max and settle <= settle_max and overshoot <= overshoot_max
    return int(ok), bool(near)
