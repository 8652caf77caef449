import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import ortho_group

from robkit import indicators
from robkit.indicators import (
    Disk,
    HalfPlane,
    LtiPlant,
    layered_oracle,
    rank_one_delta_block,
    rank_one_matrix,
    rank_one_oracle,
    rank_one_plant,
    region_stability,
    servo_stability_indicator,
    step_spec,
    three_parameter_servo,
)
from robkit.uncsample import (
    BlockShape,
    InvalidInstanceError,
    NormKind,
    UncertaintyInstance,
    row_norms,
    surface_points,
)


def block(mat):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    return UncertaintyInstance(mat.ravel(), BlockShape.real_matrix(*mat.shape))


class TestRegionStability:
    def test_nominal_stable(self):
        plant = LtiPlant(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2))
        ind = region_stability(plant, HalfPlane(0.0))
        assert ind(block(np.zeros((2, 2)))) == 1

    def test_destabilizing_scalar_gain(self):
        plant = LtiPlant([[-1.0]], [[1.0]], [[1.0]])
        ind = region_stability(plant, HalfPlane(0.0))
        assert ind(block([[2.0]])) == 0  # eigenvalue moves to +1

    def test_disk_region(self):
        plant = LtiPlant([[0.5]], [[1.0]], [[1.0]])
        assert region_stability(plant, Disk(1.0))(block([[0.0]])) == 1
        assert region_stability(plant, Disk(1.0))(block([[0.6]])) == 0

    def test_vector_shaped_instance_rejected(self):
        plant = LtiPlant([[-1.0]], [[1.0]], [[1.0]])
        ind = region_stability(plant, HalfPlane(0.0))
        with pytest.raises(InvalidInstanceError):
            ind(UncertaintyInstance(np.array([0.1])))

    def test_deterministic(self):
        plant = LtiPlant(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2))
        ind = region_stability(plant, HalfPlane(0.0))
        delta = block(np.array([[0.3, -0.2], [0.1, 0.4]]))
        assert all(ind(delta) == ind(delta) for _ in range(5))


class TestLayeredOracle:
    def test_published_points(self):
        ind = layered_oracle(20, 11, 19)
        assert ind(UncertaintyInstance(np.array([0.52, 0.0]))) == 0
        assert ind(UncertaintyInstance(np.array([0.75, 0.0]))) == 1
        assert ind(UncertaintyInstance(np.array([0.0, 0.0]))) == 1

    def test_outer_band_and_beyond(self):
        ind = layered_oracle(20, 11, 19)
        assert ind(UncertaintyInstance(np.array([0.95, 0.0]))) == 0
        assert ind(UncertaintyInstance(np.array([1.5, 0.0]))) == 1

    def test_depends_only_on_norm(self):
        ind = layered_oracle(20, 11, 19)
        rng = np.random.default_rng(12)
        for rho in (0.3, 0.52, 0.75, 0.93):
            base = np.zeros(6)
            base[0] = rho
            ref = ind(UncertaintyInstance(base))
            for _ in range(20):
                q = ortho_group.rvs(6, random_state=rng)
                assert ind(UncertaintyInstance(q @ base)) == ref

    def test_bad_shell_parameters_rejected(self):
        with pytest.raises(ValueError):
            layered_oracle(20, 19, 11)

    @staticmethod
    def edge_rows(kind, d, edges, per_edge, rng):
        """Rows U*r with r bisected until its two bracketing floats straddle
        the edge in the norm; both floats of every bracket are returned."""
        u = surface_points(d, kind, rng, per_edge * edges.size)
        edge = np.repeat(edges, per_edge)
        lo = np.zeros(edge.size)
        hi = 2.0 * edge + 1e-300
        while True:
            open_ = np.nextafter(lo, np.inf) < hi
            if not open_.any():
                break
            mid = np.where(open_, 0.5 * (lo + hi), lo)
            below = row_norms(u * mid[:, None], kind) < edge
            lo = np.where(open_ & below, mid, lo)
            hi = np.where(open_ & ~below, mid, hi)
        return np.concatenate([u * lo[:, None], u * hi[:, None]])

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_batch_matches_fn(self, kind):
        m_layers = 20
        ind = layered_oracle(m_layers, 11, 19, kind)
        rng = np.random.default_rng(31)
        edges = np.arange(1, m_layers + 1) / m_layers
        total = 0
        for d in (3, 50, 200):
            coords = np.concatenate([
                self.edge_rows(kind, d, edges, 500, rng),
                surface_points(d, kind, rng, 14_000) * rng.uniform(0, 1.2, (14_000, 1)),
            ])
            batch = ind.batch(coords)
            single = np.array([ind(UncertaintyInstance(x)) for x in coords])
            assert np.array_equal(batch, single)
            assert 0 < batch.sum() < batch.size
            total += coords.shape[0]
        assert total >= 100_000


class TestRankOneFamily:
    def test_published_points(self):
        ind = rank_one_oracle(2)
        assert ind(UncertaintyInstance(np.array([4.9, 0.0, 0.0, 0.0]))) == 1
        assert ind(UncertaintyInstance(np.array([6.0, 0.0, 0.0, 0.0]))) == 0
        assert ind(UncertaintyInstance(np.zeros(4))) == 1

    def test_spectrum_structure(self):
        q = np.array([0.1, -0.2, 0.3, 0.05])
        eigs = np.sort(np.linalg.eigvals(rank_one_matrix(2, q)).real)
        c = float(q @ np.sqrt(np.arange(1, 5)))
        assert eigs[0] == pytest.approx(-10.0)
        assert eigs[1] == pytest.approx(-10.0 + 2 * c)

    @pytest.mark.parametrize("k", [2, 5])
    def test_matches_eigenvalue_path(self, k):
        ind = rank_one_oracle(k)
        plant = rank_one_plant(k)
        eig_ind = region_stability(plant, HalfPlane(0.0))
        rng = np.random.default_rng(k)
        checked = 0
        for _ in range(1000):
            q = rng.uniform(-0.5, 0.5, k * k)
            c = float(q @ np.sqrt(np.arange(1, k * k + 1)))
            if abs(k * c - 10.0) < 1e-6:
                continue  # boundary band: eigenvalue solver may disagree
            inst = UncertaintyInstance(q)
            assert ind(inst) == eig_ind(rank_one_delta_block(k, q))
            checked += 1
        assert checked > 900


class TestStepSpec:
    @staticmethod
    def first_order_loop(delta):
        # closed loop 2/(s+2): rise time ln(9)/2, no overshoot
        return np.array([[-2.0]]), np.array([[2.0]]), np.array([[1.0]]), np.array([[0.0]])

    def test_first_order_rise_too_slow(self):
        ind = step_spec(self.first_order_loop, 0.25, 3.5, 0.7)
        assert ind(UncertaintyInstance(np.zeros(1))) == 0

    def test_first_order_with_relaxed_rise(self):
        ind = step_spec(self.first_order_loop, 2.0, 3.5, 0.7)
        assert ind(UncertaintyInstance(np.zeros(1))) == 1

    def test_unstable_loop_always_fails(self):
        def unstable(delta):
            return np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[0.0]])

        ind = step_spec(unstable, 100.0, 100.0, 100.0)
        assert ind(UncertaintyInstance(np.zeros(1))) == 0


class TestServo:
    def test_nominal_closed_loop_stable(self):
        assert servo_stability_indicator()(UncertaintyInstance(np.zeros(3))) == 1

    def test_nominal_meets_step_limits(self):
        ind = step_spec(three_parameter_servo, 0.25, 3.5, 0.7)
        assert ind(UncertaintyInstance(np.zeros(3))) == 1

    def test_large_gain_drop_slows_rise(self):
        ind = step_spec(three_parameter_servo, 0.25, 3.5, 0.7)
        assert ind(UncertaintyInstance(np.array([-9.0, 0.0, 0.0]))) == 0


# ---------------------------------------------------------------------------
# The doubling scan of _step_response against the per-step loop it replaced.
# ---------------------------------------------------------------------------

SERVO_LIMITS = (0.25, 3.5, 0.7)
HORIZON = 5.0 * SERVO_LIMITS[1]  # step_spec's horizon for the servo limits


def loop_step_response(a, b, c, d, horizon, n_steps):
    """The per-step loop x_{k+1} = A_d x_k + B_d that the doubling scan
    replaced, kept as its oracle."""
    n = a.shape[0]
    dt = horizon / n_steps
    aug = np.zeros((n + b.shape[1], n + b.shape[1]))
    aug[:n, :n] = a * dt
    aug[:n, n:] = b * dt
    e = expm(aug)
    ad, bd = e[:n, :n], e[:n, n:]
    x = np.zeros((n, b.shape[1]))
    xs = np.empty((n_steps, n, b.shape[1]))
    for idx in range(n_steps):
        x = ad @ x + bd
        xs[idx] = x
    u = np.ones((b.shape[1], 1))
    t = np.arange(1, n_steps + 1) * dt
    return t, (c @ xs @ u)[:, 0, 0] + (d @ u).item()


def servo_matrices(coords):
    return tuple(
        np.atleast_2d(np.asarray(mat, dtype=float))
        for mat in three_parameter_servo(UncertaintyInstance(np.asarray(coords, dtype=float)))
    )


def servo_instances(count, seed, max_radius=10.0):
    """Servo coordinates in uniformly random directions with radii uniform on
    [0, max_radius]: about half of them pass the servo limits."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((count, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * rng.uniform(0.0, max_radius, (count, 1))


def stable_servo_instances(count, seed):
    return [
        q for q in servo_instances(4 * count, seed)
        if np.all(np.linalg.eigvals(servo_matrices(q)[0]).real < 0)
    ][:count]


def decisions(coords, limits_list, step_response):
    """step_spec decisions for each coordinate row and set of limits, with
    `step_response` in place of the module's response."""
    saved = indicators._step_response
    indicators._step_response = step_response
    try:
        specs = [step_spec(three_parameter_servo, *limits) for limits in limits_list]
        return [[spec(UncertaintyInstance(q)) for spec in specs] for q in coords]
    finally:
        indicators._step_response = saved


def decision_flips(coords, limits_list=(SERVO_LIMITS,)):
    """The coordinate rows on which the scan and the loop decide differently."""
    scan = decisions(coords, limits_list, indicators._step_response)
    loop = decisions(coords, limits_list, loop_step_response)
    return [q for q, s, l in zip(coords, scan, loop) if s != l]


def rise_and_settle(coords):
    """step_spec's rise and settling times of the servo at the servo limits'
    horizon; None when the closed loop is unstable."""
    a, b, c, d = servo_matrices(coords)
    if not np.all(np.linalg.eigvals(a).real < 0):
        return None
    t, y = indicators._step_response(a, b, c, d, HORIZON, 2000)
    yn = y / (d - c @ np.linalg.solve(a, b)).item()
    rise = t[np.argmax(yn >= 0.9)] - t[np.argmax(yn >= 0.1)]
    outside = np.nonzero(np.abs(yn - 1.0) > 0.02)[0]
    return rise, t[outside[-1]] + (t[1] - t[0])


def limit_brackets(which, limit, count, seed, rel_width=1e-9):
    """Up to `count` (lo, hi) coordinate pairs on 200 random directions, both stable, where
    rise (which=0) or settling time (which=1) crosses the limit, bisected in
    radius to rel_width and kept when lo's time is within one step of it (a
    settling time can jump by a whole swing when a peak leaves the band)."""
    def within(q):
        times = rise_and_settle(q)
        return None if times is None else times[which] <= limit

    dirs = np.random.default_rng(seed).standard_normal((200, 3))
    radii = np.linspace(0.0, 10.0, 11)
    found = []
    for u in dirs / np.linalg.norm(dirs, axis=1, keepdims=True):
        if len(found) == count:
            break
        coarse = [within(u * r) for r in radii]
        k = next((k for k in range(10) if {coarse[k], coarse[k + 1]} == {True, False}), None)
        if k is None:
            continue
        lo, hi = radii[k], radii[k + 1]
        while hi - lo > rel_width * hi:
            mid = 0.5 * (lo + hi)
            side = within(u * mid)
            if side is None:
                break
            lo, hi = (mid, hi) if side == coarse[k] else (lo, mid)
        else:
            if rise_and_settle(u * lo)[which] > limit - HORIZON / 2000:
                found.append((u * lo, u * hi))
    return found


class TestStepResponseScan:
    @staticmethod
    def two_input_loop():
        a = np.array([[-1.0, 0.5, 0.0], [0.0, -3.0, 1.0], [0.2, 0.0, -2.0]])
        b = np.array([[1.0, 0.0], [0.0, 2.0], [0.5, -1.0]])
        return a, b, np.array([[1.0, 1.0, 0.0]]), np.array([[0.0, 0.1]])

    @staticmethod
    def assert_matches_loop(mats, horizon, n_steps):
        t, y = indicators._step_response(*mats, horizon, n_steps)
        t_ref, y_ref = loop_step_response(*mats, horizon, n_steps)
        assert np.array_equal(t, t_ref)
        assert y.shape == y_ref.shape == (n_steps,)
        assert np.max(np.abs(y - y_ref)) <= 1e-12 * np.max(np.abs(y_ref))

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 1024, 1025, 2000])
    @pytest.mark.parametrize("loop", ["first_order", "two_input", "servo"])
    def test_matches_loop_at_step_counts(self, loop, n_steps):
        mats = {
            "first_order": TestStepSpec.first_order_loop(None),
            "two_input": self.two_input_loop(),
            "servo": servo_matrices([0.3, -0.2, 0.1]),
        }[loop]
        self.assert_matches_loop(mats, HORIZON, n_steps)

    def test_matches_loop_on_random_stable_servos(self):
        for coords in stable_servo_instances(20, seed=7):
            self.assert_matches_loop(servo_matrices(coords), HORIZON, 2000)

    def test_same_decisions_as_loop(self):
        coords = servo_instances(150, seed=11)
        assert decision_flips(coords) == []
        scan = decisions(coords, [SERVO_LIMITS], indicators._step_response)
        assert 40 < sum(s == [1] for s in scan) < 110  # both outcomes are covered

    def test_same_decisions_within_one_step_of_rise_and_settle_limits(self):
        settle_only = (np.inf, SERVO_LIMITS[1], np.inf)
        coords = []
        for which, seed in ((0, 3), (1, 4)):
            pairs = limit_brackets(which, SERVO_LIMITS[which], 5, seed)
            assert len(pairs) == 5
            coords += [q for pair in pairs for q in pair]
        assert decision_flips(coords, [SERVO_LIMITS, settle_only]) == []
