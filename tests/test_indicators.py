import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.signal import BadCoefficients, tf2ss
from scipy.stats import ortho_group

from robkit import indicators
from robkit.indicators import (
    Disk,
    HalfPlane,
    LtiPlant,
    layered_oracle,
    rank_one_oracle,
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
from reference import (
    layered_fn,
    rank_one_delta_block,
    rank_one_fn,
    rank_one_matrix,
    rank_one_plant,
    region_stability_fn,
    servo_stability_fn,
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

    # an eigenvalue 5e-10 inside the edge lies in the indicators' 1e-9 band
    @pytest.mark.parametrize(
        "region, eigs",
        [
            (HalfPlane(-0.5), [-0.5 - 5e-10 + 2j, -0.5 - 5e-10 - 2j, -3.0]),
            (Disk(2.0), [(2.0 - 5e-10) * np.exp(0.3j), (2.0 - 5e-10) * np.exp(-0.3j), 0.1]),
        ],
    )
    def test_boundary_band(self, region, eigs):
        eigs = np.array(eigs)
        assert not region.inside(eigs)
        assert region.inside(eigs, band=0.0)
        assert region.inside(eigs[-1:])

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
        fn = layered_fn(m_layers, 11, 19, kind)
        rng = np.random.default_rng(31)
        edges = np.arange(1, m_layers + 1) / m_layers
        # axis rows of norm exactly (i-1)/m, i/m, (j-1)/m and 1, and their neighbours
        exact = np.array([10 / 20, 11 / 20, 18 / 20, 1.0])
        exact = np.concatenate([exact, np.nextafter(exact, 0), np.nextafter(exact, 2)])
        total = 0
        for d in (3, 50, 200):
            axis = np.zeros((2 * exact.size, d))
            axis[:, 0] = np.concatenate([exact, -exact])
            assert np.array_equal(row_norms(axis, kind), np.abs(axis[:, 0]))
            coords = np.concatenate([
                axis,
                self.edge_rows(kind, d, edges, 500, rng),
                surface_points(d, kind, rng, 14_000) * rng.uniform(0, 1.2, (14_000, 1)),
            ])
            batch = ind.batch(coords, BlockShape.vector(d))
            single = np.array([fn(UncertaintyInstance(x)) for x in coords])
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
        eig_ind = region_stability_fn(rank_one_plant(k), HalfPlane(0.0))
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


# ---------------------------------------------------------------------------
# Each batch against its rule one instance at a time, on random instances
# and on instances bisected to the edge where the decision changes.
# ---------------------------------------------------------------------------


def batch_flips(ind, fn, coords, shape):
    """The batch's decisions on the rows of coords, and the number of rows on
    which the one-instance reference fn decides otherwise."""
    batch = ind.batch(coords, shape)
    single = np.array([fn(UncertaintyInstance(x, shape)) for x in coords])
    assert batch.shape == single.shape and batch.dtype == np.int64
    return batch, int(np.count_nonzero(batch != single))


def decision_edges(ind, shape, dirs, hi):
    """Rows U*lo and U*hi, for each direction U whose batch decision is 1 at
    radius 0 and 0 at `hi`, with [lo, hi] bisected to two adjacent floats
    between which that decision changes."""
    decide = lambda r: ind.batch(dirs * r[:, None], shape)
    lo = np.zeros(len(dirs))
    hi = np.full(len(dirs), hi)
    keep = (decide(lo) == 1) & (decide(hi) == 0)
    dirs, lo, hi = dirs[keep], lo[keep], hi[keep]
    while True:
        open_ = np.nextafter(lo, np.inf) < hi
        if not open_.any():
            break
        mid = np.where(open_, 0.5 * (lo + hi), lo)
        inside = decide(mid) == 1
        lo = np.where(open_ & inside, mid, lo)
        hi = np.where(open_ & ~inside, mid, hi)
    return np.concatenate([dirs * lo[:, None], dirs * hi[:, None]])


def random_plant(region, seed):
    """A 6-state plant with a 2x2 block whose nominal poles lie inside the
    region: A shifted left of the half-plane edge, or scaled into the disk."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 6))
    eigs = np.linalg.eigvals(a)
    if isinstance(region, HalfPlane):
        a -= (max(eigs.real.max() - region.sigma_max, 0.0) + rng.uniform(0.5, 2.0)) * np.eye(6)
    else:
        a *= 0.8 * region.radius / np.abs(eigs).max()
    return LtiPlant(a, rng.standard_normal((6, 2)), rng.standard_normal((2, 6)))


class TestBatchAgreement:
    """Every batch decides each row as its one-instance reference does, with
    0 flips."""

    @pytest.mark.parametrize("region", [HalfPlane(-0.5), Disk(2.0)], ids=["half_plane", "disk"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_region_stability(self, region, kind):
        shape = (BlockShape.real_matrix if kind == "real" else BlockShape.complex_matrix)(2, 2)
        rng = np.random.default_rng(18)
        random_rows, edge_rows, flips = 0, 0, 0
        for seed in (0, 1):
            plant = random_plant(region, seed)
            ind, fn = region_stability(plant, region), region_stability_fn(plant, region)
            # three scales of the same directions: mostly inside, mixed, mostly outside
            dirs = surface_points(shape.dim, NormKind.L2, rng, 1000)
            for scale in (0.1, 1.0, 10.0):
                coords = dirs * rng.uniform(0.0, scale, (1000, 1))
                flips += batch_flips(ind, fn, coords, shape)[1]
                random_rows += coords.shape[0]
            edges = decision_edges(ind, shape, dirs[:200], 1e3)
            flips += batch_flips(ind, fn, edges, shape)[1]
            edge_rows += edges.shape[0]
        print(f"region_stability {kind} {region}: {flips} flips on "
              f"{random_rows} random and {edge_rows} edge instances")
        # 24 000 random instances over the four cases
        assert random_rows >= 6000 and edge_rows >= 200
        assert flips == 0

    def test_servo_stability(self):
        ind = servo_stability_indicator()
        shape = BlockShape.vector(3)
        rng = np.random.default_rng(18)
        dirs = surface_points(3, NormKind.L2, rng, 12_000)
        coords = dirs * rng.uniform(0.0, 40.0, (12_000, 1))
        decided, random_flips = batch_flips(ind, servo_stability_fn, coords, shape)
        assert 0 < decided.sum() < decided.size
        # the stacked companion matrices are the one-instance ones, byte for byte
        _, first = indicators._servo_coefficients(*coords.T)
        for x, row in zip(coords[:1000], np.stack(first, axis=1)):
            a = three_parameter_servo(UncertaintyInstance(x))[0]
            assert a[0].tobytes() == row.tobytes()
        # Hurwitz edge: the largest real part crosses -1e-9 between two adjacent radii
        edges = decision_edges(ind, shape, dirs[:500], 1e3)
        _, edge_flips = batch_flips(ind, servo_stability_fn, edges, shape)
        assert edges.shape[0] >= 200
        print(f"servo_stability: {random_flips} flips on {coords.shape[0]} random and "
              f"{edge_flips} on {edges.shape[0]} edge instances")
        assert random_flips == edge_flips == 0

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_rank_one(self, k):
        ind, fn = rank_one_oracle(k), rank_one_fn(k)
        d = k * k
        shape = BlockShape.vector(d)
        rng = np.random.default_rng(k)
        dirs = surface_points(d, NormKind.L2, rng, 10_000)
        coords = dirs * rng.uniform(0.0, 10.0, (10_000, 1))
        decided, random_flips = batch_flips(ind, fn, coords, shape)
        assert 0 < decided.sum() < decided.size
        # k*c = 10 straddled by two adjacent radii
        edges = decision_edges(ind, shape, dirs[:1000], 1e6)
        _, edge_flips = batch_flips(ind, fn, edges, shape)
        assert edges.shape[0] >= 200
        print(f"rank_one k={k}: {random_flips} flips on {coords.shape[0]} random and "
              f"{edge_flips} on {edges.shape[0]} edge instances")
        assert random_flips == edge_flips == 0


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

    # C = 0 has no response; C = -1 settles to -1, a response that the
    # normalized limits alone would pass
    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_dc_gain_not_positive_fails(self, c):
        def loop(delta):
            return np.array([[-1.0]]), np.array([[1.0]]), np.array([[c]]), np.array([[0.0]])

        ind = step_spec(loop, 100.0, 100.0, 100.0)
        assert ind(UncertaintyInstance(np.zeros(1))) == 0

    def test_response_below_90_percent_at_horizon_fails(self):
        # time constant 100 s against a 17.5 s horizon: y(17.5) is about 0.16
        def slow(delta):
            return np.array([[-0.01]]), np.array([[0.01]]), np.array([[1.0]]), np.array([[0.0]])

        ind = step_spec(slow, 100.0, 3.5, 100.0)
        assert ind(UncertaintyInstance(np.zeros(1))) == 0

    def test_rise_limit_under_ten_time_steps_rejected(self):
        # the 2000 time steps span 5*settle_max, so settle_max = 10 s makes
        # rise_max = 0.25 s exactly 10 steps and anything longer makes it fewer
        assert step_spec(self.first_order_loop, 0.25, 10.0, 0.7).description
        for settle_max in (np.nextafter(10.0, np.inf), 1e6):
            with pytest.raises(ValueError, match="rise_max 0.25 s spans fewer than 10 time steps"):
                step_spec(self.first_order_loop, 0.25, settle_max, 0.7)

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

    def test_non_finite_step_response_raises(self):
        # B scaled by 1.5e308 settles at 1.5e308, and the nominal servo's 47%
        # overshoot carries the response past the largest double; this is an
        # error, not a failed instance
        def overflowing(delta):
            a, b, c, d = three_parameter_servo(delta)
            return a, 1.5e308 * b, c, d

        ind = step_spec(overflowing, 0.25, 3.5, 0.7)
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=r"step response is not finite at time step 0\.00875 s"
        ):
            ind(UncertaintyInstance(np.zeros(3)))


# ---------------------------------------------------------------------------
# The companion form of three_parameter_servo against the polynomial products
# and SciPy's tf2ss that built the closed loop before it.
# ---------------------------------------------------------------------------


def tf2ss_servo(coords):
    """The servo's closed loop by np.polymul, np.polyadd and tf2ss, kept as
    the oracle of three_parameter_servo."""
    d1, d2, d3 = coords
    num_c = np.array([1.0, 2.0])
    den_c = np.array([1.0, 10.0])
    num_p = np.array([800.0 * (1.0 + 0.1 * d1)])
    den_p = np.polymul(np.array([1.0, 0.0]), np.polymul(
        np.array([1.0, 4.0 + 0.2 * d2]), np.array([1.0, 6.0 + 0.3 * d3])
    ))
    num_ol = np.polymul(num_c, num_p)
    den_ol = np.polymul(den_c, den_p)
    den_cl = np.polyadd(den_ol, num_ol)
    with warnings.catch_warnings():
        # at zero gain tf2ss warns of a vanishing numerator and trims it; the
        # padded numerator it returns is the same zero row
        warnings.simplefilter("ignore", BadCoefficients)
        return tf2ss(num_ol, den_cl)


class TestServoCompanionForm:
    """Every coefficient of the closed loop sums at most two products, so the
    closed form and the polynomial products round alike, bit for bit."""

    @staticmethod
    def assert_byte_equal(coords):
        got = three_parameter_servo(UncertaintyInstance(np.asarray(coords, dtype=float)))
        want = tf2ss_servo(np.asarray(coords, dtype=float))
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert (g.shape, g.dtype) == (w.shape, w.dtype)
            assert g.tobytes() == w.tobytes(), (coords, g, w)

    def test_byte_equal_to_tf2ss_on_random_instances(self):
        rng = np.random.default_rng(15)
        for coords in rng.uniform(-30.0, 30.0, (10_000, 3)):
            self.assert_byte_equal(coords)

    # zero gain at d1 = -10 and a pole at the origin at d2 = -20 or d3 = -20,
    # alone, together and next to negative and positive values
    @pytest.mark.parametrize(
        "coords", itertools.product([-10.0, 0.0, 7.5], [-20.0, 0.0, -35.0], [-20.0, 0.0, 13.0])
    )
    def test_byte_equal_at_edges(self, coords):
        self.assert_byte_equal(coords)

    def test_zero_gain_builds_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, _, c, _ = three_parameter_servo(UncertaintyInstance(np.array([-10.0, 0.0, 0.0])))
        assert not c.any() and a[0, 3] == 0.0

    @staticmethod
    def fresh_python(code):
        """stdout of `code` run in a new interpreter that imports robkit from src."""
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path},
        ).stdout

    def test_import_does_not_load_scipy_signal(self):
        out = self.fresh_python(
            "import sys, robkit, robkit.cli; "
            "print('scipy.signal' in sys.modules, 'scipy.integrate' in sys.modules, "
            "any(m.partition('.')[0] == 'scipy' for m in sys.modules))"
        )
        assert out.split() == ["False", "False", "False"]

    def test_step_spec_loads_no_scipy(self):
        out = self.fresh_python(
            "import sys, numpy as np, robkit; from robkit.indicators import three_parameter_servo; "
            "ind = robkit.step_spec(three_parameter_servo, 0.25, 3.5, 0.7); "
            "print(ind(robkit.UncertaintyInstance(np.zeros(3))), "
            "any(m.partition('.')[0] == 'scipy' for m in sys.modules))"
        )
        assert out.split() == ["1", "False"]


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


# ---------------------------------------------------------------------------
# _expm_affine, the discretization of _step_response, against SciPy's expm
# and closed forms.
# ---------------------------------------------------------------------------


def servo_aug(settle_max):
    """The augmented matrix [[A dt, B dt], [0, 0]] of step_spec's response
    of the nominal servo at this settling limit, with A and B."""
    a, b, _, _ = servo_matrices(np.zeros(3))
    dt = 5.0 * settle_max / indicators.STEP_COUNT
    aug = np.zeros((5, 5))
    aug[:4, :4] = a * dt
    aug[:4, 4:] = b * dt
    return aug, a, b


class TestExpmAffine:
    @pytest.mark.parametrize("inputs", [1, 2])
    @pytest.mark.parametrize("norm", [1e-6, 1e-3, 0.1, 1.0, 5.0, 6.0, 30.0, 200.0, 1e3])
    def test_matches_scipy_expm(self, norm, inputs):
        # stable A with random B, scaled to the 1-norm: s runs from 0 to 8
        rng = np.random.default_rng(int(norm * 1e6) + inputs)
        for n in (1, 2, 4):
            a = rng.standard_normal((n, n))
            a -= (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(n)
            aug = np.zeros((n + inputs, n + inputs))
            aug[:n] = np.hstack([a, rng.standard_normal((n, inputs))])
            aug *= norm / np.linalg.norm(aug, 1)
            ref = expm(aug)
            got = indicators._expm_affine(aug, n)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("gain", [1.0, 1e100])
    @pytest.mark.parametrize("steps", [1e-6, 0.1, 1.0, 10.0, 100.0, 1e4])
    def test_one_state_closed_form(self, steps, gain):
        # dx/dt = -x/tau + gain*u over dt = steps*tau: A_d = exp(-steps) and
        # B_d = gain*tau*(1 - exp(-steps)); a B 1e100 times larger than A
        # changes nothing but B_d's scale
        tau = 0.3
        aug = np.array([[-steps, gain * steps * tau], [0.0, 0.0]])
        got = indicators._expm_affine(aug, 1)
        assert got[0, 0] == pytest.approx(math.exp(-steps), rel=1e-12, abs=0.0)
        assert got[0, 1] == pytest.approx(-gain * tau * math.expm1(-steps), rel=1e-12)

    def test_rows_below_n_are_exactly_zero_and_identity(self):
        # from no squaring to the 1000 of a 1e300 s settling limit
        for settle_max in [10.0**p for p in range(-3, 301, 7)] + [1e300]:
            aug, _, _ = servo_aug(settle_max)
            got = indicators._expm_affine(aug, 4)
            assert np.isfinite(got).all()
            assert np.array_equal(got[4:], np.eye(5)[4:])

    @pytest.mark.parametrize("settle_max", [1e15, 1e300])
    def test_long_step_reaches_dc_gain(self, settle_max):
        # exp(A dt) underflows to 0, so B_d = A^-1 (exp(A dt) - I) B = -A^-1 B;
        # rows n: off by one rounding and squared 50 to 1000 times miss this
        aug, a, b = servo_aug(settle_max)
        got = indicators._expm_affine(aug, 4)
        dc = -np.linalg.solve(a, b)
        assert np.max(np.abs(got[:4, 4:] - dc)) <= 1e-12 * np.max(np.abs(dc))

    @pytest.mark.parametrize("entry", [(0, 0, np.inf), (1, 4, -np.inf), (2, 2, np.nan)])
    def test_non_finite_entry_gives_nan(self, entry):
        aug, _, _ = servo_aug(3.5)
        i, j, value = entry
        aug[i, j] = value
        assert np.isnan(indicators._expm_affine(aug, 4)).all()

    def test_overflowing_norm_gives_nan(self):
        # finite entries whose column sum passes the largest double
        aug = np.array([[-1e308, 0.0, 1.0], [-1e308, -1.0, 1.0], [0.0, 0.0, 0.0]])
        with np.errstate(over="ignore"):
            assert np.isnan(indicators._expm_affine(aug, 2)).all()
