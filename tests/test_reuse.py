import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest

from robkit import gridspec
from robkit.gridspec import GridScheme, build_grid
from robkit.indicators import (
    HalfPlane,
    Indicator,
    LtiPlant,
    layered_oracle,
    layered_scriptp,
    region_stability,
)
from robkit.reuse import (
    UNIFORMS,
    CorruptedInputError,
    OutOfRangeError,
    RobustnessCurve,
    binary_decomposition,
    chernoff_n,
    estimate_curve,
    hsra,
    predicted_speedup,
    radial_sampling,
    ssra,
)
from robkit.segfun import MergeCostCounter, SegFun, merge
from robkit.uncsample import (
    BlockShape,
    DirectionSample,
    InvalidInstanceError,
    NormKind,
    SeededStream,
    UncertaintyInstance,
    sample_surface,
)
from reference import interpolate, radial_sampling_loop


class ScriptedRng:
    """Stands in for a Generator; replays queued uniform draws."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.requested_bounds = []

    def uniform(self, lo, hi):
        self.requested_bounds.append((lo, hi))
        return self.draws.pop(0)


def unit_direction():
    return DirectionSample(UncertaintyInstance(np.array([1.0, 0.0])), NormKind.L2)


def norm_threshold_indicator(threshold):
    return Indicator(
        lambda d: int(np.linalg.norm(d.coords) < threshold),
        f"norm below {threshold}",
    )


class TestRadialSampling:
    def test_hand_traced_backward_sweep(self):
        g = build_grid(GridScheme.UNIFORM, 2.0, 1.0, 3)
        rng = ScriptedRng([0.9, 0.3])
        run = radial_sampling(unit_direction(), g, norm_threshold_indicator(0.6), rng)
        assert run.segments.rows == [(1, 2, 1), (3, 3, 0)]
        assert run.simulations_used == 2
        # first draw from [0, r_3], second from [0, r_2]
        assert rng.requested_bounds == [(0.0, 1.0), (0.0, 0.75)]

    def test_constant_one_indicator(self):
        g = build_grid(GridScheme.GEOMETRIC, 4.0, 1.0, 8)
        rng = ScriptedRng([0.9, 0.2, 0.01, 0.001, 0.0001, 1e-5, 1e-6, 1e-7])
        run = radial_sampling(unit_direction(), g, Indicator(lambda d: 1, "one"), rng)
        assert run.segments.rows == [(1, 8, 1)]

    def test_constant_zero_indicator(self):
        g = build_grid(GridScheme.GEOMETRIC, 4.0, 1.0, 8)
        rng = ScriptedRng([0.9, 0.2, 0.01, 0.001, 0.0001, 1e-5, 1e-6, 1e-7])
        run = radial_sampling(unit_direction(), g, Indicator(lambda d: 0, "zero"), rng)
        assert run.segments.rows == [(1, 8, 0)]

    def test_indicator_failure_propagates(self):
        g = build_grid(GridScheme.UNIFORM, 2.0, 1.0, 3)

        def broken(delta):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            radial_sampling(
                unit_direction(), g, Indicator(broken, "broken"), ScriptedRng([0.5])
            )

    @pytest.mark.parametrize("value", [2, -1])
    def test_non_binary_indicator_value_rejected(self, value):
        g = build_grid(GridScheme.UNIFORM, 2.0, 1.0, 3)
        with pytest.raises(ValueError, match="not 0 or 1") as info:
            hsra(8, g, Indicator(lambda d: value, "bad"), 3, seed=1)
        assert "indicator failed on direction 1 at radius" in info.value.__notes__[0]

    def test_non_binary_value_names_direction_and_radius(self):
        g = build_grid(GridScheme.UNIFORM, 2.0, 1.0, 3)
        with pytest.raises(ValueError, match="indicator returned 2, not 0 or 1") as info:
            radial_sampling(
                unit_direction(), g, Indicator(lambda d: 2, "two"), ScriptedRng([0.5]), 7
            )
        assert info.value.__notes__ == ["indicator failed on direction 7 at radius 0.5"]

    def test_value_at_index_uses_uniform_radius_on_prefix(self):
        # the radius attached to index i must be distributed U[0, r_i]:
        # pooled over many directions, KS per index against the uniform law
        # the radii are recorded by a wrapping indicator (|U*R|_2 = R) and
        # replayed through the same backward sweep
        g = build_grid(GridScheme.GEOMETRIC, math.e, 1.0, 12)
        ind = layered_oracle(20, 11, 19)
        collected = {i: [] for i in (0, 5, 11)}
        radii = []

        def recording(delta):
            radii.append(float(np.linalg.norm(delta.coords)))
            return ind(delta)

        for k in range(2000):
            u = sample_surface(5, NormKind.L2, SeededStream(77, 2 * k))
            radii.clear()
            radial_sampling(u, g, Indicator(recording, "records"), SeededStream(77, 2 * k + 1), k)
            by_index = np.empty(g.m)
            p = g.m
            for radius in radii:
                j = gridspec.locate(g, radius)
                by_index[j - 1 : p] = radius
                p = j - 1
            assert p == 0
            for i in collected:
                collected[i].append(by_index[i] / g.radii[i])
        for i, vals in collected.items():
            assert kstest(np.array(vals), "uniform").pvalue > 0.001


class TestOneDirectionSweep:
    """radial_sampling, the block driver's sweep run on one direction, against
    the scalar loop of reference.radial_sampling_loop: the same rows and
    simulation counts, the same instances seen by an indicator without batch,
    and the same draws from the caller's generator."""

    D, SEED = 5, 3
    GRIDS = {
        "geometric": (GridScheme.GEOMETRIC, math.e, 1.0, 39),
        # many sweeps take more steps than the driver's first radius draws
        "long_sweeps": (GridScheme.UNIFORM, 1e6, 1.0, 2000),
    }

    def sweeps(self, sweep, kind, g, make_indicator):
        gen = SeededStream(self.SEED, 1).generator()  # shared by all directions
        out = []
        for k in range(1, 41):
            u = sample_surface(self.D, kind, SeededStream(self.SEED, 2 * k))
            seen = []
            run = sweep(u, g, make_indicator(seen), gen, k)
            out.append((run.segments.rows, run.simulations_used, seen))
        return out, gen.random(4)

    @staticmethod
    def shells(seen):
        def fn(delta):
            seen.append(delta.coords.copy())
            return int(math.floor(200 * np.linalg.norm(delta.coords)) % 2 == 0)

        return Indicator(fn, "shells")

    @pytest.mark.parametrize("kind", list(NormKind))
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_matches_loop(self, kind, grid):
        g = build_grid(*self.GRIDS[grid])
        runs, state = self.sweeps(radial_sampling, kind, g, self.shells)
        ref_runs, ref_state = self.sweeps(radial_sampling_loop, kind, g, self.shells)
        assert np.array_equal(state, ref_state)
        for (rows, sims, seen), (ref_rows, ref_sims, ref_seen) in zip(runs, ref_runs):
            assert rows == ref_rows and sims == ref_sims
            assert len(seen) == len(ref_seen) == sims
            assert all(np.array_equal(a, b) for a, b in zip(seen, ref_seen))
        if grid == "long_sweeps":
            assert max(sims for _, sims, _ in runs) > UNIFORMS

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_batched_indicator_matches_loop(self, kind):
        g = build_grid(*self.GRIDS["geometric"])
        layered = layered_oracle(20, 11, 19, kind)
        runs, state = self.sweeps(radial_sampling, kind, g, lambda seen: layered)
        ref_runs, ref_state = self.sweeps(radial_sampling_loop, kind, g, lambda seen: layered)
        assert runs == ref_runs
        assert np.array_equal(state, ref_state)
        assert len({tuple(rows) for rows, _, _ in runs}) > 1


class TestDecompositionAndSpeedup:
    def test_decomposition_1000(self):
        assert binary_decomposition(1000) == [8, 32, 64, 128, 256, 512]

    def test_decomposition_powers(self):
        assert binary_decomposition(8) == [8]
        assert binary_decomposition(255) == [1, 2, 4, 8, 16, 32, 64, 128]

    def test_speedup_single_group(self):
        # one group of 8: hierarchical model cost 8*log2(8), sequential 70/2
        assert predicted_speedup(8) == pytest.approx(70.0 / 48.0)

    def test_speedup_grows_superlinearly(self):
        assert predicted_speedup(1024) > 50.0
        assert predicted_speedup(1024) > 2 * predicted_speedup(256)


class TestAlgorithms:
    def test_single_direction_no_merge(self):
        g = build_grid(GridScheme.GEOMETRIC, math.e, 1.0, 20)
        h, rep = ssra(1, g, layered_oracle(20, 11, 19), 5, seed=3)
        assert rep.merge_row_visits == 0
        assert rep.n_samples == 1

    def test_two_constant_directions(self):
        g = build_grid(GridScheme.UNIFORM, 2.0, 1.0, 6)
        h, rep = ssra(2, g, Indicator(lambda d: 1, "one"), 3, seed=0)
        assert h.rows == [(1, 6, 2)]
        assert rep.merge_row_visits == 2

    def test_hsra_equals_ssra(self):
        g = build_grid(GridScheme.GEOMETRIC, math.e, 1.0, 200)
        ind = layered_oracle(20, 11, 19)
        h1, rep1 = ssra(100, g, ind, 10, seed=5)
        h2, rep2 = hsra(100, g, ind, 10, seed=5)
        assert h1.rows == h2.rows
        assert rep1.total_simulations == rep2.total_simulations

    def test_hsra_group_sizes(self):
        g = build_grid(GridScheme.GEOMETRIC, math.e, 1.0, 30)
        _, rep = hsra(100, g, layered_oracle(20, 11, 19), 5, seed=5)
        assert rep.group_sizes == [4, 32, 64]
        assert rep.tau == 3

    def test_results_independent_of_algorithm_but_not_seed(self):
        g = build_grid(GridScheme.GEOMETRIC, math.e, 1.0, 50)
        ind = layered_oracle(20, 11, 19)
        h1, _ = hsra(60, g, ind, 10, seed=1)
        h2, _ = hsra(60, g, ind, 10, seed=2)
        assert h1.rows != h2.rows

    def test_measured_meq_tracks_prediction(self):
        g = build_grid(GridScheme.GEOMETRIC, math.e, 1.0, 300)
        _, rep = ssra(1500, g, layered_oracle(20, 11, 19), 10, seed=9)
        se = rep.simulations_std / math.sqrt(rep.n_samples)
        assert abs(rep.measured_meq - rep.predicted_meq) < 3 * se
        # the mean bound: the prediction sits below 1 + ln(lambda)
        assert rep.predicted_meq < 1 + math.log(g.lam)

    def test_estimator_unbiased_on_layered_oracle(self):
        g = build_grid(GridScheme.GEOMETRIC, 2.5, 1.0, 25)
        n = 1500
        h, _ = hsra(n, g, layered_oracle(20, 11, 19), 8, seed=21)
        curve = estimate_curve(h, n, g)
        truth = np.array([layered_scriptp(20, 11, 19, r) for r in g.radii])
        band = 5 * np.sqrt(truth * (1 - truth) / n) + 5e-3
        assert np.all(np.abs(curve.values - truth) < band)


class TestReferenceSchedules:
    """hsra and ssra against merge schedules written out in full over leaves
    drawn with the (2k, 2k+1) stream convention by the scalar loop of
    reference.radial_sampling_loop, which shares no code with the driver's
    sweep."""

    D, SEED = 10, 4
    # 63, 64, 65 and 3*64 + 5: groups and folds that straddle merge chunks
    NS = (1, 2, 3, 7, 255, 256, 1000, 63, 64, 65, 3 * 64 + 5)

    @pytest.fixture(scope="class")
    def problem(self):
        g = build_grid(GridScheme.GEOMETRIC, math.e, 1.0, 39)
        ind = layered_oracle(20, 11, 19)
        leaves = []
        for k in range(1, max(self.NS) + 1):
            u = sample_surface(self.D, NormKind.L2, SeededStream(self.SEED, 2 * k))
            rng = SeededStream(self.SEED, 2 * k + 1)
            leaves.append(radial_sampling_loop(u, g, ind, rng))
        return g, ind, leaves

    @staticmethod
    def level_tree(segs):
        counter, start, groups = MergeCostCounter(), 0, []
        for size in binary_decomposition(len(segs)):
            level = segs[start : start + size]
            start += size
            while len(level) > 1:
                level = [
                    merge(level[i], level[i + 1], counter)
                    for i in range(0, len(level), 2)
                ]
            groups.append(level[0])
        h = groups[0]
        for seg in groups[1:]:
            h = merge(h, seg, counter)
        return h, counter.row_visits

    @staticmethod
    def fold(segs):
        counter, h = MergeCostCounter(), segs[0]
        for seg in segs[1:]:
            h = merge(seg, h, counter)
        return h, counter.row_visits

    @pytest.mark.parametrize("n", NS)
    def test_schedules_match_references(self, problem, n):
        g, ind, leaves = problem
        segs = [run.segments for run in leaves[:n]]
        sims = sum(run.simulations_used for run in leaves[:n])
        # difference-array sum: add at lo, subtract at hi + 1, cumsum
        diff = np.zeros(g.m + 1, dtype=np.int64)
        for seg in segs:
            np.add.at(diff, seg.lo - 1, seg.value)
            np.subtract.at(diff, seg.hi, seg.value)
        counts = np.cumsum(diff)[:-1]
        for algo, reference in ((hsra, self.level_tree), (ssra, self.fold)):
            h, rep = algo(n, g, ind, self.D, seed=self.SEED)
            ref_h, ref_visits = reference(segs)
            assert h.rows == ref_h.rows
            assert rep.merge_row_visits == ref_visits
            assert rep.total_simulations == sims
            assert np.array_equal(h.dense(), counts)

    def test_directions_that_need_more_draws(self):
        # a uniform grid with a large lambda: many sweeps take more steps than
        # the driver's first block of radius draws per direction
        g = build_grid(GridScheme.UNIFORM, 1e6, 1.0, 2000)
        ind = Indicator(lambda d: int(math.floor(200 * np.linalg.norm(d.coords)) % 2 == 0), "shells")
        n, d, seed = 70, 5, 3
        leaves = []
        for k in range(1, n + 1):
            u = sample_surface(d, NormKind.L2, SeededStream(seed, 2 * k))
            leaves.append(radial_sampling_loop(u, g, ind, SeededStream(seed, 2 * k + 1)))
        assert max(run.simulations_used for run in leaves) > 2 * UNIFORMS
        segs = [run.segments for run in leaves]
        for algo, reference in ((hsra, self.level_tree), (ssra, self.fold)):
            h, rep = algo(n, g, ind, d, seed=seed)
            ref_h, ref_visits = reference(segs)
            assert h.rows == ref_h.rows
            assert rep.merge_row_visits == ref_visits
            assert rep.total_simulations == sum(run.simulations_used for run in leaves)

    @pytest.mark.parametrize("kind", [NormKind.L1, NormKind.LINF])
    def test_other_norms_match_references(self, kind):
        g = build_grid(GridScheme.GEOMETRIC, math.e, 1.0, 39)
        ind = layered_oracle(20, 11, 19, kind)
        leaves = []
        for k in range(1, 66):
            u = sample_surface(self.D, kind, SeededStream(self.SEED, 2 * k))
            leaves.append(radial_sampling_loop(u, g, ind, SeededStream(self.SEED, 2 * k + 1)))
        segs = [run.segments for run in leaves]
        for algo, reference in ((hsra, self.level_tree), (ssra, self.fold)):
            h, rep = algo(65, g, ind, self.D, kind, seed=self.SEED)
            ref_h, ref_visits = reference(segs)
            assert h.rows == ref_h.rows
            assert rep.merge_row_visits == ref_visits
            assert rep.total_simulations == sum(run.simulations_used for run in leaves)

    def test_indicator_calls_in_sweep_order(self):
        # an indicator without batch sees the same instances, in the same
        # order, as one sweep loop per direction
        g = build_grid(GridScheme.GEOMETRIC, math.e, 1.0, 39)
        layered = layered_oracle(20, 11, 19)
        calls = []

        def recording(delta):
            calls.append(delta.coords.copy())
            return layered(delta)

        ind = Indicator(recording, "records")
        hsra(70, g, ind, self.D, seed=self.SEED)
        driven, calls[:] = list(calls), []
        for k in range(1, 71):
            u = sample_surface(self.D, NormKind.L2, SeededStream(self.SEED, 2 * k))
            radial_sampling_loop(u, g, ind, SeededStream(self.SEED, 2 * k + 1))
        assert len(driven) == len(calls)
        assert all(np.array_equal(a, b) for a, b in zip(driven, calls))

    def test_memory_does_not_grow_with_n(self):
        g = build_grid(GridScheme.GEOMETRIC, math.e, 1.0, 39)
        ind = layered_oracle(20, 11, 19)
        hsra(16, g, ind, self.D)  # first-call allocations out of the way

        def peak(n):
            tracemalloc.start()
            try:
                hsra(n, g, ind, self.D)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4096) <= 2 * peak(256)


class TestSampleCount:
    G = build_grid(GridScheme.GEOMETRIC, math.e, 1.0, 39)

    @pytest.mark.parametrize("algo", [ssra, hsra])
    def test_numpy_integer_count(self, algo):
        ind = layered_oracle(20, 11, 19)
        h, rep = algo(np.int64(5), self.G, ind, 4, seed=2)
        ref_h, ref = algo(5, self.G, ind, 4, seed=2)
        assert h.rows == ref_h.rows
        assert rep == ref
        assert type(rep.n_samples) is int

    @pytest.mark.parametrize("algo", [ssra, hsra])
    @pytest.mark.parametrize("n", [5.0, "5"])
    def test_non_integer_count_rejected_before_any_draw(self, algo, n):
        calls = []
        ind = Indicator(lambda d: calls.append(d) or 1, "records")
        with pytest.raises(TypeError):
            algo(n, self.G, ind, 4)
        assert calls == []


class TestBatchIndicator:
    G = build_grid(GridScheme.GEOMETRIC, math.e, 1.0, 39)

    @staticmethod
    def failing(after, exc_factory):
        """An indicator that fails on every instance of norm above `after`,
        both one at a time and in batch."""

        def fn(delta):
            if np.linalg.norm(delta.coords) > after:
                exc_factory()
            return 1

        def batch(coords, shape):
            if np.any(np.linalg.norm(coords, axis=1) > after):
                exc_factory()
            return np.ones(coords.shape[0], dtype=np.int64)

        return fn, batch

    @staticmethod
    def returns_two(after):
        fn = lambda d: 2 if np.linalg.norm(d.coords) > after else 1
        batch = lambda x, shape: np.where(np.linalg.norm(x, axis=1) > after, 2, 1)
        return fn, batch

    def boom(self):
        raise RuntimeError("boom")

    @pytest.mark.parametrize("kind", ["raises", "returns_two"])
    def test_failure_names_the_row_fn_names(self, kind):
        # the note names the direction and radius of the first row that fails
        # on its own, as the row-by-row driver does
        fn, batch = (
            self.failing(0.9, self.boom) if kind == "raises" else self.returns_two(0.9)
        )
        errors = []
        for ind in (Indicator(fn, "rows"), Indicator(fn, "batch", batch)):
            with pytest.raises((RuntimeError, ValueError)) as info:
                hsra(200, self.G, ind, 3, seed=8)
            errors.append((type(info.value), str(info.value), info.value.__notes__[0]))
        assert errors[0] == errors[1]
        assert "indicator failed on direction" in errors[0][2]

    def test_row_error_is_not_chained_to_batch_error(self):
        fn, batch = self.failing(0.9, self.boom)
        with pytest.raises(RuntimeError) as info:
            hsra(200, self.G, Indicator(fn, "batch", batch), 3, seed=8)
        assert info.value.__context__ is None and info.value.__cause__ is None

    def test_batch_that_disagrees_with_fn_is_reported(self):
        ind = Indicator(lambda d: 1, "fn passes", lambda x, shape: np.full(x.shape[0], 2))
        with pytest.raises(ValueError, match="not 0 or 1") as info:
            hsra(10, self.G, ind, 3, seed=8)
        assert "indicator batch failed on directions 1..10" in info.value.__notes__[0]

    def test_vector_shaped_block_names_the_row(self):
        # without a block shape the driver passes vector shapes: the batch
        # rejects them, and so does the first row on its own
        plant = LtiPlant(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2))
        ind = region_stability(plant, HalfPlane(0.0))
        with pytest.raises(InvalidInstanceError, match="matrix-shaped"):
            ind.batch(np.zeros((3, 4)), BlockShape.vector(4))
        with pytest.raises(InvalidInstanceError, match="matrix-shaped") as info:
            hsra(10, self.G, ind, 4, seed=8, shape=None)
        [note] = info.value.__notes__
        assert note.startswith("indicator failed on direction 1 at radius ")

    def test_batch_of_wrong_length_rejected(self):
        ind = Indicator(lambda d: 1, "short", lambda x, shape: np.ones(1, dtype=np.int64))
        with pytest.raises(ValueError, match="indicator batch returned shape"):
            hsra(10, self.G, ind, 3, seed=8)


class TestChernoff:
    def test_published_sizes(self):
        assert chernoff_n(0.05, 0.05) == 738
        assert chernoff_n(0.01, 0.01) == 26492
        assert chernoff_n(0.005, 0.005) == 119830
        assert chernoff_n(0.001, 0.001) == 3800452

    def test_rejects_bad_arguments(self):
        with pytest.raises(OutOfRangeError):
            chernoff_n(0.0, 0.5)
        with pytest.raises(OutOfRangeError):
            chernoff_n(0.5, 1.5)

    def test_error_is_the_gridspec_class(self):
        with pytest.raises(gridspec.OutOfRangeError):
            chernoff_n(0.0, 0.5)


class TestCurve:
    def test_all_success(self):
        g = build_grid(GridScheme.UNIFORM, 2.0, 1.0, 4)
        curve = estimate_curve(SegFun.constant(4, 10), 10, g)
        assert np.all(curve.values == 1.0)
        assert np.all(curve.inf_values == 1.0)

    def test_running_infimum(self):
        g = build_grid(GridScheme.UNIFORM, 2.0, 1.0, 2)
        curve = estimate_curve(SegFun.from_rows(2, [(1, 1, 10), (2, 2, 5)]), 10, g)
        assert np.allclose(curve.values, [1.0, 0.5])
        assert np.allclose(curve.inf_values, [1.0, 0.5])

    def test_counts_above_n_rejected(self):
        g = build_grid(GridScheme.UNIFORM, 2.0, 1.0, 2)
        with pytest.raises(CorruptedInputError):
            estimate_curve(SegFun.constant(2, 11), 10, g)

    def test_interpolation(self):
        g = build_grid(GridScheme.UNIFORM, 2.0, 1.0, 2)
        curve = RobustnessCurve(g, np.array([0.8, 1.0]), np.array([0.8, 0.8]), 10)
        mid = 0.5 * (g.radii[0] + g.radii[1])
        assert interpolate(curve, mid) == pytest.approx(0.9)
        assert interpolate(curve, g.radii[1]) == 1.0
        with pytest.raises(OutOfRangeError):
            interpolate(curve, 2.0)
