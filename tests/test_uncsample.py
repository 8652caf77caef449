import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robkit.gridspec import GridScheme, build_grid
from robkit.indicators import layered_oracle
from robkit.reuse import hsra
from robkit.uncsample import (
    BlockShape,
    DirectionSample,
    InvalidInstanceError,
    NormKind,
    RekeyedStreams,
    SeededStream,
    UncertaintyInstance,
    norm,
    sample_surface,
    scale,
    surface_points,
)


class TestNorm:
    def test_l2_pythagorean(self):
        assert norm(UncertaintyInstance(np.array([3.0, 4.0])), NormKind.L2) == 5.0

    def test_linf_max_magnitude(self):
        assert norm(UncertaintyInstance(np.array([3.0, -4.0])), NormKind.LINF) == 4.0

    def test_l1(self):
        assert norm(UncertaintyInstance(np.array([3.0, -4.0])), NormKind.L1) == 7.0

    def test_frobenius_on_matrix_block(self):
        inst = UncertaintyInstance(np.ones(4), BlockShape.real_matrix(2, 2))
        assert norm(inst, NormKind.L2) == 2.0

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=8),
        st.floats(0.0, 5.0),
        st.sampled_from(list(NormKind)),
    )
    def test_scaling_homogeneity(self, coords, rho, kind):
        inst = UncertaintyInstance(np.array(coords))
        assert norm(UncertaintyInstance(inst.coords * rho), kind) == pytest.approx(
            rho * norm(inst, kind)
        )


class TestBlockShape:
    def test_complex_dim_doubles(self):
        assert BlockShape.complex_matrix(2, 3).dim == 12
        assert BlockShape.real_matrix(2, 3).dim == 6
        assert BlockShape.vector(5).dim == 5

    def test_as_matrix_complex_interleaving(self):
        inst = UncertaintyInstance(
            np.array([1.0, 2.0, 3.0, 4.0]), BlockShape.complex_matrix(1, 2)
        )
        mat = inst.shape.matrices(inst.coords)
        assert mat.shape == (1, 2)
        assert mat[0, 0] == 1 + 2j and mat[0, 1] == 3 + 4j

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInstanceError):
            UncertaintyInstance(np.ones(3), BlockShape.real_matrix(2, 2))


class TestSurfaceSampling:
    def test_d1_two_point_law(self):
        pts = surface_points(1, NormKind.L2, SeededStream(0, 5), 4000)
        assert set(np.unique(pts)) == {-1.0, 1.0}
        # each sign has probability 1/2; 5-sigma binomial band
        frac = np.mean(pts > 0)
        assert abs(frac - 0.5) < 5 * 0.5 / np.sqrt(4000)

    def test_unit_norm_all_kinds(self):
        for kind in NormKind:
            pts = surface_points(7, kind, SeededStream(1, 2), 500)
            if kind is NormKind.L1:
                norms = np.sum(np.abs(pts), axis=1)
            elif kind is NormKind.L2:
                norms = np.linalg.norm(pts, axis=1)
            else:
                norms = np.max(np.abs(pts), axis=1)
            assert np.allclose(norms, 1.0, atol=1e-12)

    def test_linf_faces_equiprobable(self):
        # d=3: exactly one coordinate of magnitude 1; all 6 (face, sign)
        # cells carry mass 1/6 within a 5-sigma binomial interval
        n = 10**6
        pts = surface_points(3, NormKind.LINF, SeededStream(7, 0), n)
        on_face = np.abs(pts) == 1.0
        assert np.all(on_face.sum(axis=1) == 1)
        face = np.argmax(on_face, axis=1)
        sign = np.sign(pts[np.arange(n), face])
        cell = face * 2 + (sign > 0)
        counts = np.bincount(cell, minlength=6)
        p = 1.0 / 6.0
        band = 5 * np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) < band)

    def test_l2_angle_uniform_ks(self):
        from scipy.stats import kstest

        pts = surface_points(2, NormKind.L2, SeededStream(3, 1), 10**5)
        angles = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * np.pi)
        stat = kstest(angles / (2 * np.pi), "uniform").statistic
        # 1% critical value of the one-sample KS statistic
        assert stat < 1.628 / np.sqrt(10**5)

    def test_l1_matches_normalized_ball(self):
        # cone measure = law of V/||V|| for V uniform in the ball; compare the
        # first-coordinate distribution of both constructions by two-sample KS
        from scipy.stats import ks_2samp

        n = 10**5
        a = surface_points(3, NormKind.L1, SeededStream(9, 0), n)[:, 0]
        gen = SeededStream(9, 1).generator()
        v = gen.standard_exponential((n, 3)) * (gen.integers(0, 2, (n, 3)) * 2 - 1)
        v /= np.sum(np.abs(v), axis=1, keepdims=True)
        v *= gen.uniform(0, 1, n)[:, None] # uniform ball point via radial cdf
        b = v[:, 0] / np.sum(np.abs(v), axis=1)
        assert ks_2samp(a, b).pvalue > 0.01


class TestScale:
    def test_zero_scaling(self):
        u = DirectionSample(UncertaintyInstance(np.array([0.6, 0.8])), NormKind.L2)
        assert np.array_equal(scale(u, 0.0).coords, np.zeros(2))

    def test_linearity(self):
        u = DirectionSample(UncertaintyInstance(np.array([0.6, 0.8])), NormKind.L2)
        out = scale(u, 2.0)
        assert np.allclose(out.coords, [1.2, 1.6])
        assert norm(out, NormKind.L2) == pytest.approx(2.0)

    def test_linf_scalable(self):
        u = DirectionSample(UncertaintyInstance(np.array([1.0, 0.5])), NormKind.LINF)
        out = scale(u, 0.4)
        assert np.allclose(out.coords, [0.4, 0.2])
        assert norm(out, NormKind.LINF) == pytest.approx(0.4)

    def test_off_surface_direction_rejected(self):
        with pytest.raises(InvalidInstanceError):
            DirectionSample(UncertaintyInstance(np.array([0.6, 0.9])), NormKind.L2)


class TestSeededStream:
    def test_streams_reproducible_and_order_free(self):
        a1 = SeededStream(42, 3).generator().uniform(size=5)
        _ = SeededStream(42, 99).generator().uniform(size=17)
        a2 = SeededStream(42, 3).generator().uniform(size=5)
        assert np.array_equal(a1, a2)

    def test_streams_distinct(self):
        a = SeededStream(42, 0).generator().uniform(size=5)
        b = SeededStream(42, 1).generator().uniform(size=5)
        assert not np.array_equal(a, b)

    @settings(max_examples=25)
    @given(st.integers(0, 2**63), st.integers(0, 2**63))
    def test_any_seed_stream_pair_works(self, seed, stream):
        x = SeededStream(seed, stream).generator().uniform()
        assert 0.0 <= x < 1.0


class TestRekeyedStreams:
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_same_draws_as_a_fresh_generator(self, seed):
        streams = RekeyedStreams(seed)
        for k in (0, 1, 2**64 - 1, 1, 0):  # revisited streams restart from counter 0
            ref = SeededStream(seed, k).generator()
            gen = streams.stream(k)
            # an odd-length draw leaves a half-used buffer behind
            assert np.array_equal(gen.standard_normal(7), ref.standard_normal(7))
            assert np.array_equal(gen.random(5), ref.random(5))
            assert np.array_equal(gen.integers(0, 2, size=3), ref.integers(0, 2, size=3))
            out = np.empty(4)
            streams.stream(k).random(out=out)
            assert np.array_equal(out, SeededStream(seed, k).generator().random(4))

    def test_every_stream_is_one_generator(self):
        # the block driver binds this generator's methods once per block
        streams = RekeyedStreams(3)
        assert streams.stream(2) is streams.stream(2**64 - 1)

    @pytest.mark.parametrize("k", [np.int64(5), np.uint64(2**64 - 1)])
    def test_numpy_integer_stream_index(self, k):
        gen = RekeyedStreams(3).stream(k)
        assert np.array_equal(gen.random(5), SeededStream(3, int(k)).generator().random(5))

    def test_revisit_after_odd_length_draw_at_top_index(self):
        # odd counts of 32-bit and 64-bit draws leave a half-used word and
        # buffer behind; a revisit must restart from neither
        streams, k = RekeyedStreams(7), 2**64 - 1
        gen = streams.stream(k)
        gen.integers(0, 2, size=3)
        gen.standard_normal(5)
        gen, ref = streams.stream(k), SeededStream(7, k).generator()
        assert np.array_equal(gen.integers(0, 2, size=3), ref.integers(0, 2, size=3))
        assert np.array_equal(gen.random(5), ref.random(5))

    # a seed outside [0, 2**64) would key the streams as a seed inside
    @pytest.mark.parametrize("seed", [-3, -1, 2**64])
    def test_seed_outside_key_range_rejected(self, seed):
        message = rf"seed: must be in \[0, 2\*\*64\), got {seed}$"
        with pytest.raises(ValueError, match=message):
            RekeyedStreams(seed)
        with pytest.raises(ValueError, match=message):
            SeededStream(seed, 3).generator()
        grid = build_grid(GridScheme.GEOMETRIC, 2.0, 1.0, 20)
        with pytest.raises(ValueError, match=message):
            hsra(64, grid, layered_oracle(20, 11, 19), 5, seed=seed)
        with pytest.raises(ValueError, match=r"stream index: must be in \[0, 2\*\*64\)"):
            SeededStream(0, seed).generator()


def test_sample_surface_returns_unit_direction():
    for kind in NormKind:
        u = sample_surface(6, kind, SeededStream(0, 0))
        assert abs(norm(u.instance, kind) - 1.0) < 1e-12
