import math

import numpy as np
import pytest

from robkit import indicators
from robkit.indicators import Disk, HalfPlane, LtiPlant
from robkit.margins import (
    GAMMA_FLOOR,
    GOLDEN,
    SEED_LANES,
    MarginResult,
    NominalInstabilityError,
    _golden_max,
    _real_objective,
    complex_margin,
    destabilizing_delta,
    real_margin,
)
from reference import complex_margin_bruteforce


def random_stable_plant(rng, n, n_in=2, n_out=2):
    a = rng.standard_normal((n, n))
    shift = max(np.max(np.linalg.eigvals(a).real), 0.0) + rng.uniform(0.5, 2.0)
    return LtiPlant(
        a - shift * np.eye(n),
        rng.standard_normal((n, n_in)),
        rng.standard_normal((n_out, n)),
    )


def random_schur_plant(rng, n, n_in=2, n_out=2):
    """Random plant with every pole inside the unit disk."""
    a = rng.standard_normal((n, n))
    a *= rng.uniform(0.2, 0.9) / np.max(np.abs(np.linalg.eigvals(a)))
    return LtiPlant(a, rng.standard_normal((n, n_in)), rng.standard_normal((n_out, n)))


def scalar_golden_max(f, lo, hi, tol):
    """One-point golden-section maximization: the reference for the lanes."""
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol * max(1.0, abs(lo) + abs(hi)):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def scalar_real_objective(m_val):
    """inf over gamma of sigma_2 of the real block matrix at one point."""
    re, im = m_val.real, m_val.imag
    if np.max(np.abs(im)) <= 1e-14 * np.max(np.abs(m_val)):
        sv = np.linalg.svd(re, compute_uv=False)
        return float(np.sort(np.concatenate([sv, sv]))[::-1][1]), 1.0

    def neg_sigma2(lg):
        g = math.exp(lg)
        block = np.block([[re, -g * im], [im / g, re]])
        return -float(np.linalg.svd(block, compute_uv=False)[1])

    lg, val = scalar_golden_max(neg_sigma2, math.log(GAMMA_FLOOR), 0.0, 1e-8)
    return -val, math.exp(lg)


def full_search(stack):
    """_real_objective with every matrix searched to convergence: on slices
    of at most SEED_LANES matrices nothing is pruned, and the lanes are
    independent, so this is the search of the whole stack without pruning."""
    parts = [_real_objective(stack[k : k + SEED_LANES]) for k in range(0, len(stack), SEED_LANES)]
    return tuple(np.concatenate(col) for col in zip(*parts))


class TestStackedObjective:
    @pytest.mark.parametrize(
        "region, make_plant",
        [(HalfPlane(0.0), random_stable_plant), (Disk(1.0), random_schur_plant)],
    )
    def test_real_objective_matches_pointwise_search(self, region, make_plant):
        rng = np.random.default_rng(11)
        for n, n_in, n_out in ((2, 2, 2), (4, 2, 2), (3, 1, 3), (5, 3, 2)):
            plant = make_plant(rng, n, n_in, n_out)
            stack = plant.transfer_at(region.boundary(region.sweep(96)))
            values, gammas = full_search(stack)
            # omega = 0 and theta = 0, pi take the real-M branch
            real_points = [0, -1] if isinstance(region, Disk) else [0]
            assert np.all(gammas[real_points] == 1.0)
            for m_val, value, gamma in zip(stack, values, gammas):
                ref_value, ref_gamma = scalar_real_objective(m_val)
                assert value == pytest.approx(ref_value, rel=1e-12, abs=0)
                assert gamma == pytest.approx(ref_gamma, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "region, make_plant",
        [(HalfPlane(0.0), random_stable_plant), (Disk(1.0), random_schur_plant)],
    )
    def test_pruned_sweep_keeps_argmax_and_maximum(self, region, make_plant):
        rng = np.random.default_rng(13)
        pruned_lanes = 0
        for n, n_in, n_out in ((2, 2, 2), (4, 2, 2), (6, 2, 2), (3, 1, 3), (5, 3, 2), (6, 3, 3)):
            plant = make_plant(rng, n, n_in, n_out)
            stack = plant.transfer_at(region.boundary(region.sweep(384)))
            full, _ = full_search(stack)
            pruned, _ = _real_objective(stack)
            best = int(np.argmax(full))
            assert int(np.argmax(pruned)) == best
            assert pruned[best].tobytes() == full[best].tobytes()
            # a stopped search keeps its smallest sigma_2 so far: an upper
            # bound on the full search's value, strictly below the maximum
            assert np.all(pruned >= full)
            moved = pruned != full
            assert np.all(pruned[moved] < full[best])
            pruned_lanes += int(moved.sum())
        assert pruned_lanes > 0

    # (4, 4, 2) has as many inputs as states, where a 2-D right-hand side of
    # a stacked solve is ambiguous
    @pytest.mark.parametrize("n, n_in, n_out", [(4, 3, 2), (4, 4, 2)])
    def test_transfer_at_stack_equals_pointwise(self, monkeypatch, n, n_in, n_out):
        rng = np.random.default_rng(12)
        plant = random_stable_plant(rng, n, n_in, n_out)
        s = 0.1 + 1j * np.geomspace(1e-2, 1e2, 11)
        ref = np.stack(
            [plant.c_mat @ np.linalg.solve(x * np.eye(n) - plant.a_mat, plant.b_mat) for x in s]
        )
        scalar = plant.transfer_at(complex(s[0]))
        assert scalar.shape == (n_out, n_in)
        np.testing.assert_allclose(scalar, ref[0], rtol=1e-13, atol=0)
        stacked = plant.transfer_at(s)
        np.testing.assert_allclose(stacked, ref, rtol=1e-13, atol=0)
        # blocks of 3 points: several solves and a short last block
        monkeypatch.setattr(indicators, "SOLVE_BLOCK_BYTES", 3 * 16 * n * n)
        assert np.array_equal(plant.transfer_at(s), stacked)


class TestGoldenFloor:
    PEAKS = np.array([0.3, -1.2, 2.5, 0.0, 4.1, -3.3])
    HEIGHTS = np.array([1.0, 5.0, -2.0, 3.0, 0.5, 4.0])
    FLOOR = 2.0

    def _run(self, floor):
        """Lanes of -(x - peak)^2 + height; also counts each lane's calls."""
        seen = []

        def f(x, lanes):
            seen.append(lanes.copy())
            return -((x - self.PEAKS[lanes]) ** 2) + self.HEIGHTS[lanes]

        lo = np.full(self.PEAKS.size, -5.0)
        hi = np.full(self.PEAKS.size, 5.0)
        x, v = _golden_max(f, lo, hi, tol=1e-10, floor=floor)
        return x, v, np.bincount(np.concatenate(seen), minlength=self.PEAKS.size)

    def test_lanes_below_floor_unchanged(self):
        x0, v0, calls0 = self._run(math.inf)
        x1, v1, calls1 = self._run(self.FLOOR)
        below = self.HEIGHTS <= self.FLOOR
        assert x1[below].tobytes() == x0[below].tobytes()
        assert v1[below].tobytes() == v0[below].tobytes()
        assert np.array_equal(calls1[below], calls0[below])

    def test_frozen_lane_best_is_past_floor_and_a_lower_bound(self):
        _, v0, calls0 = self._run(math.inf)
        _, v1, calls1 = self._run(self.FLOOR)
        above = self.HEIGHTS > self.FLOOR
        assert np.all(calls1[above] < calls0[above])
        assert np.all(v1[above] > self.FLOOR)
        assert np.all(v1[above] <= v0[above])

    def test_lane_tying_floor_not_frozen(self):
        floor = 0.75

        def f(x, lanes):
            # lane 0 is flat at the floor; lane 1 rises to it and stays there
            flat = np.full(x.shape, floor)
            return np.where(lanes == 0, flat, np.minimum(floor, 1.0 - x**2))

        lo, hi = np.array([-2.0, -2.0]), np.array([2.0, 3.0])
        x0, v0 = _golden_max(f, lo, hi)
        x1, v1 = _golden_max(f, lo, hi, floor=floor)
        assert x1.tobytes() == x0.tobytes() and v1.tobytes() == v0.tobytes()
        assert np.all(v1 == floor)


class TestScalarExamples:
    def test_unit_lag_complex_margin(self):
        plant = LtiPlant([[-1.0]], [[1.0]], [[1.0]])
        res = complex_margin(plant, HalfPlane(0.0))
        assert res.value == pytest.approx(1.0, rel=1e-6)
        assert res.frequency_at_sup == pytest.approx(0.0, abs=1e-6)

    def test_unit_lag_real_margin(self):
        plant = LtiPlant([[-1.0]], [[1.0]], [[1.0]])
        res = real_margin(plant, HalfPlane(0.0))
        assert res.value == pytest.approx(1.0, rel=1e-6)
        assert res.gamma_at_inf == pytest.approx(1.0)

    def test_gain_scaling_halves_margin(self):
        plant = LtiPlant([[-1.0]], [[2.0]], [[1.0]])
        assert complex_margin(plant, HalfPlane(0.0)).value == pytest.approx(
            0.5, rel=1e-6
        )

    def test_vanishing_transfer_matrix(self):
        # M(s) = 0: no complex block destabilizes, and no real block either
        plant = LtiPlant([[-1.0]], [[1.0]], [[0.0]])
        with pytest.raises(ValueError, match="transfer matrix vanishes"):
            complex_margin(plant, HalfPlane(0.0))
        res = real_margin(plant, HalfPlane(0.0))
        assert res.value == math.inf and res.gamma_at_inf == 1.0

    @pytest.mark.parametrize("c", [1e-15, 1e-18, 1e3])
    def test_real_margin_scales_with_output_matrix(self, c):
        # the real-M branch is chosen relative to M's size: at 1e-15 an
        # absolute threshold sent every boundary point there
        plant = random_stable_plant(np.random.default_rng(9), 6)
        scaled = LtiPlant(plant.a_mat, plant.b_mat, c * plant.c_mat)
        ref = real_margin(plant, HalfPlane(0.0), n_points=256)
        res = real_margin(scaled, HalfPlane(0.0), n_points=256)
        assert ref.frequency_at_sup > 0
        assert res.value * c == pytest.approx(ref.value, rel=1e-9, abs=0)

    def test_nominal_instability_rejected(self):
        plant = LtiPlant([[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(NominalInstabilityError):
            complex_margin(plant, HalfPlane(0.0))

    def test_disk_region(self):
        plant = LtiPlant([[0.0]], [[1.0]], [[1.0]])
        res = complex_margin(plant, Disk(1.0))
        # sup over the unit circle of |1/s| is 1
        assert res.value == pytest.approx(1.0, rel=1e-6)

    def test_disk_region_real_margin(self):
        # M = 1/z is real only at z = +-1, where a real delta = +-1 moves the pole there
        plant = LtiPlant([[0.0]], [[1.0]], [[1.0]])
        res = real_margin(plant, Disk(1.0))
        assert res.value == pytest.approx(1.0, rel=1e-6)


class TestRandomSystems:
    def test_real_margin_dominates_complex(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            plant = random_stable_plant(rng, int(rng.integers(2, 6)))
            rc = complex_margin(plant, HalfPlane(0.0), n_points=512)
            rr = real_margin(plant, HalfPlane(0.0), n_points=128)
            assert rr.value >= rc.value * (1 - 1e-9)

    def test_real_margin_dominates_complex_on_disk(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            plant = random_schur_plant(rng, int(rng.integers(1, 5)))
            rc = complex_margin(plant, Disk(1.0), n_points=512)
            rr = real_margin(plant, Disk(1.0), n_points=128)
            assert rr.value >= rc.value * (1 - 1e-9)

    def test_bruteforce_agreement(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            plant = random_stable_plant(rng, 3)
            rc = complex_margin(plant, HalfPlane(0.0), n_points=512).value
            bf = complex_margin_bruteforce(plant, HalfPlane(0.0), n_points=4096)
            assert bf == pytest.approx(rc, rel=0.02)

    def test_grid_refinement_stability(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            plant = random_stable_plant(rng, 4)
            v1 = complex_margin(plant, HalfPlane(0.0), n_points=2048).value
            v2 = complex_margin(plant, HalfPlane(0.0), n_points=4096).value
            assert abs(v1 - v2) < 0.005 * v1
            r1 = real_margin(plant, HalfPlane(0.0), n_points=256).value
            r2 = real_margin(plant, HalfPlane(0.0), n_points=512).value
            assert abs(r1 - r2) < 0.005 * r1

    def test_destabilization_certificate(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            plant = random_stable_plant(rng, 3)
            rc = complex_margin(plant, HalfPlane(0.0), n_points=1024)
            delta = destabilizing_delta(plant, HalfPlane(0.0), rc.value * 1.02, 1024)
            assert np.linalg.norm(delta, 2) <= rc.value * 1.02 * (1 + 1e-9)
            closed = plant.a_mat + plant.b_mat @ delta @ plant.c_mat
            assert np.max(np.linalg.eigvals(closed).real) > -1e-9


class TestDegenerateGamma:
    def test_real_transfer_returns_gamma_one(self):
        # two-state system whose worst boundary point is omega = 0 (M real)
        plant = LtiPlant(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2))
        res = real_margin(plant, HalfPlane(0.0))
        assert isinstance(res, MarginResult)
        assert res.gamma_at_inf == pytest.approx(1.0)
        # sigma_2 of diag(1, 1/2) duplicated is 1 -> margin 1
        assert res.value == pytest.approx(1.0, rel=1e-6)
