import math

import numpy as np
import pytest

from robkit.indicators import layered_bbp, layered_phi, layered_scriptp
from robkit.xform import (
    BLOCK,
    SPAN,
    CurveGrid,
    PhiFunction,
    bbp_from_phi,
    bbp_from_scriptp,
    scriptp_from_bbp,
    scriptp_from_phi,
)


def _bbp_loop(curve):
    """The forward recursion one cell at a time: the reference for
    bbp_from_scriptp's raw values."""
    n, r, p = curve.dim, curve.radii, curve.values
    out = np.empty_like(p)
    out[0] = p[0]
    for k in range(len(r) - 1):
        log_q = n * math.log(r[k] / r[k + 1])  # q = (r_k / r_{k+1})^n
        # (n-1) * c * q * (1/q - 1) == (n-1) * c * (1 - q)
        cell = (n - 1) * p[k] * (-math.expm1(log_q))
        out[k + 1] = n * p[k + 1] - math.exp(log_q) * (n * p[k] - out[k]) - cell
    return out


def _scriptp_loop(curve):
    """The reverse recursion one trapezoid cell at a time: the reference for
    scriptp_from_bbp's raw values."""
    n, r, b = curve.dim, curve.radii, curve.values
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
    return out


def random_walk(size, seed):
    rng = np.random.default_rng(seed)
    return np.clip(0.5 + np.cumsum(rng.normal(0.0, 0.01, size)), 0.0, 1.0)


def step_phi(rho0):
    return PhiFunction(lambda x: 1.0 if x < rho0 else 0.0, (rho0,))


def layered_phi_fn(m, i, j):
    cuts = ((i - 1) / m, i / m, (j - 1) / m, 1.0)
    return PhiFunction(lambda x: layered_phi(m, i, j, x), cuts)


def piecewise_constant(cuts, vals):
    """Random-family helper: phi with given interior cut radii."""
    cuts = np.asarray(cuts)

    def fn(rho):
        return float(vals[np.searchsorted(cuts, rho, side="right")])

    return PhiFunction(fn, tuple(cuts))


def pc_scriptp(cuts, vals, r):
    """Exact surface-radial curve of a piecewise-constant phi."""
    edges = np.concatenate([[0.0], cuts, [np.inf]])
    r = np.atleast_1d(np.asarray(r, dtype=float))
    cum = np.concatenate([[0.0], np.cumsum(vals[:-1] * np.diff(edges[:-1]))])
    idx = np.searchsorted(cuts, r, side="right")
    return (cum[idx] + vals[idx] * (r - edges[idx])) / r


def pc_bbp(cuts, vals, r, n):
    """Exact ball-uniform curve of a piecewise-constant phi."""
    edges = np.concatenate([[0.0], cuts])
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.zeros(r.size)
    for i, v in enumerate(vals):
        a = edges[i]
        b = cuts[i] if i < len(cuts) else np.inf
        lo, hi = np.minimum(a, r), np.minimum(b, r)
        mask = hi > lo
        out[mask] += v * ((hi[mask] / r[mask]) ** n - (lo[mask] / r[mask]) ** n)
    return out


def arc_graded_grid(cuts, vals, n_knots):
    """Knots equidistributed along the arc of the surface-radial curve, with
    the cut radii always included."""
    probe = np.unique(np.concatenate([np.linspace(1e-4, 1.0, 20000), cuts]))
    p = pc_scriptp(cuts, vals, probe)
    arc = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(p)) + 1e-5 * np.diff(probe))])
    targets = np.linspace(0.0, arc[-1], n_knots)
    return np.unique(np.concatenate([np.interp(targets, arc, probe), cuts]))


class TestCurveGridValidation:
    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            CurveGrid(np.array([1.0, 0.5]), np.array([1.0, 1.0]), 2)
        with pytest.raises(ValueError):
            CurveGrid(np.array([0.0, 0.5]), np.array([1.0, 1.0]), 2)
        with pytest.raises(ValueError):
            CurveGrid(np.array([0.5]), np.array([1.0]), 0)


class TestConstantFixedPoint:
    def test_both_directions(self):
        r = np.linspace(0.001, 1.0, 500)
        for n in (1, 2, 10, 50):
            c = CurveGrid(r, np.full(r.size, 0.37), n)
            assert np.allclose(bbp_from_scriptp(c).values, 0.37, atol=1e-12)
            assert np.allclose(scriptp_from_bbp(c).values, 0.37, atol=1e-12)


class TestDimensionOne:
    def test_identity_when_n_is_1(self):
        rng = np.random.default_rng(4)
        r = np.linspace(0.001, 1.0, 800)
        vals = np.clip(np.cumsum(rng.normal(0, 0.01, r.size)) + 0.5, 0, 1)
        c = CurveGrid(r, vals, 1)
        assert np.allclose(bbp_from_scriptp(c).values, vals, atol=1e-12)
        assert np.allclose(scriptp_from_bbp(c).values, vals, atol=1e-12)


class TestPrefixSumsMatchLoops:
    """The blocked prefix sums against the cell-by-cell recursions.  They
    add in another order, so the forward transform, whose cell terms reach
    about n, agrees to 1e-12*n and the reverse one to 1e-12."""

    GRID = np.exp(np.linspace(-3.0, 0.0, 10**5))  # geometric, lambda = e^3

    @pytest.mark.parametrize("n", [1, 2, 10, 50, 100, 400, 1000])
    def test_geometric_grid(self, n):
        curve = CurveGrid(self.GRID, random_walk(self.GRID.size, n), n)
        fwd = bbp_from_scriptp(curve).raw_values
        back = scriptp_from_bbp(curve).raw_values
        assert np.isfinite(fwd).all() and np.isfinite(back).all()
        assert np.max(np.abs(fwd - _bbp_loop(curve))) <= 1e-12 * n
        assert np.max(np.abs(back - _scriptp_loop(curve))) <= 1e-12

    # at n = 1000 the first cell's weight exp(6214) would overflow
    @pytest.mark.parametrize("n", [100, 1000])
    def test_cell_wider_than_span(self, n):
        r = np.array([1e-3, 0.5, 0.6, 1.0])
        curve = CurveGrid(r, np.array([0.9, 0.3, 0.5, 0.2]), n)
        assert n * math.log(r[1] / r[0]) > SPAN
        fwd = bbp_from_scriptp(curve).raw_values
        assert np.isfinite(fwd).all()
        assert np.max(np.abs(fwd - _bbp_loop(curve))) <= 1e-12 * n

    def test_many_blocks(self):
        # a uniform grid from near 0: wide cells first, then blocks that end
        # at SPAN, then blocks that end after BLOCK cells
        n, r = 1000, np.linspace(1e-6, 1.0, 10**5)
        curve = CurveGrid(r, random_walk(r.size, 7), n)
        widths = n * np.log(r[1:] / r[:-1])
        assert widths.max() > SPAN and widths.sum() > 5 * SPAN and r.size > 2 * BLOCK
        fwd = bbp_from_scriptp(curve).raw_values
        assert np.isfinite(fwd).all()
        assert np.max(np.abs(fwd - _bbp_loop(curve))) <= 1e-12 * n


class TestReciprocalCurveExample:
    # the curve min(1, rho0/r) transforms to min(1, (rho0/r)^n) and back
    def test_forward_hits_tiny_tail_to_absolute_precision(self):
        r = np.linspace(1e-4, 1.0, 4000)
        p = np.minimum(1.0, 0.5 / r)
        out = bbp_from_scriptp(CurveGrid(r, p, 50))
        assert abs(out.values[-1] - 0.5**50) < 1e-2  # clamped, tail is ~1e-15

    def test_quadrature_oracle_has_relative_precision(self):
        val = bbp_from_phi(step_phi(0.5), 1.0, 50)
        assert val == pytest.approx(0.5**50, rel=1e-9)

    def test_reverse_recovers_half(self):
        r = np.linspace(1e-4, 1.0, 4000)
        b = np.minimum(1.0, (0.5 / r) ** 50)
        out = scriptp_from_bbp(CurveGrid(r, b, 50))
        assert out.values[-1] == pytest.approx(0.5, abs=1e-3)


class TestPhiQuadrature:
    def test_scriptp_step(self):
        assert scriptp_from_phi(step_phi(0.5), 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_scriptp_constant_one(self):
        one = PhiFunction(lambda x: 1.0)
        for r in (0.1, 0.7, 2.3):
            assert scriptp_from_phi(one, r) == pytest.approx(1.0, abs=1e-10)

    def test_scriptp_layered(self):
        assert scriptp_from_phi(layered_phi_fn(20, 11, 19), 0.95) == pytest.approx(
            17.0 / 19.0, abs=1e-9
        )

    def test_bbp_step_n2(self):
        assert bbp_from_phi(step_phi(0.5), 1.0, 2) == pytest.approx(0.25, abs=1e-10)

    def test_bbp_constant_one(self):
        one = PhiFunction(lambda x: 1.0)
        assert bbp_from_phi(one, 0.8, 7) == pytest.approx(1.0, abs=1e-10)

    def test_bbp_layered_tiny_value(self):
        val = bbp_from_phi(layered_phi_fn(20, 11, 19), 0.55, 50)
        assert val == pytest.approx(layered_bbp(20, 11, 19, 50, 0.55), rel=1e-8)
        assert val == pytest.approx(0.00852, abs=2e-4)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            scriptp_from_phi(step_phi(0.5), 0.0)
        with pytest.raises(ValueError):
            bbp_from_phi(step_phi(0.5), -1.0, 3)


class TestTransformConsistency:
    """Random piecewise-constant phi families: the grid transform of the
    radial-integral curve must match the ball-integral curve, checked on a
    2000-knot comparison grid for a range of dimensions."""

    def _run(self, n, trials, rng):
        worst = 0.0
        for _ in range(trials):
            n_pieces = int(rng.integers(2, 21))
            cuts = np.sort(rng.uniform(0.02, 1.0, n_pieces - 1))
            vals = rng.uniform(0.0, 1.0, n_pieces)
            dense = arc_graded_grid(cuts, vals, max(20000, 640 * n))
            p = pc_scriptp(cuts, vals, dense)
            out = bbp_from_scriptp(CurveGrid(dense, p, n))
            assert np.isfinite(out.raw_values).all()
            sub = np.linspace(0, dense.size - 1, 2000).astype(int)
            truth = pc_bbp(cuts, vals, dense[sub], n)
            # np.maximum, unlike max(worst, nan) and np.fmax, keeps a NaN
            worst = np.maximum(worst, np.max(np.abs(out.values[sub] - truth)))
        return worst

    @pytest.mark.parametrize("n", [1, 2, 10, 50, 100])
    def test_forward_matches_ball_integral(self, n):
        rng = np.random.default_rng(100 + n)
        assert self._run(n, 4, rng) <= 1e-3

    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_pre_clamp_values_stay_bounded(self, n):
        rng = np.random.default_rng(17)
        for _ in range(4):
            n_pieces = int(rng.integers(2, 21))
            cuts = np.sort(rng.uniform(0.02, 1.0, n_pieces - 1))
            vals = rng.uniform(0.0, 1.0, n_pieces)
            dense = arc_graded_grid(cuts, vals, 20000)
            p = pc_scriptp(cuts, vals, dense)
            out = bbp_from_scriptp(CurveGrid(dense, p, n))
            assert np.all(out.raw_values > -1e-2)
            assert np.all(out.raw_values < 1 + 1e-2)


class TestLayeredRoundTrip:
    def test_round_trip_within_tolerance(self):
        parts = [
            np.linspace(1e-4, 0.5, 300, endpoint=False),
            np.linspace(0.5, 0.56, 600, endpoint=False),
            np.linspace(0.56, 0.9, 400, endpoint=False),
            np.linspace(0.9, 1.0, 700),
        ]
        r = np.concatenate(parts)
        p = np.array([layered_scriptp(20, 11, 19, x) for x in r])
        back = scriptp_from_bbp(bbp_from_scriptp(CurveGrid(r, p, 50)))
        assert np.max(np.abs(back.values - p)) <= 1e-3
