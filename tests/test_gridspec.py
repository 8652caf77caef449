import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robkit.gridspec import (
    GridScheme,
    InvalidGridError,
    InvalidToleranceError,
    OutOfRangeError,
    baseline_m_bound,
    build_grid,
    choose_m,
    classical_meq_bound,
    locate,
    predict_meq,
)
from reference import linear_scan


class TestBuildGrid:
    def test_uniform_endpoints(self):
        g = build_grid(GridScheme.UNIFORM, 2.0, 1.0, 3)
        assert np.allclose(g.radii, [0.5, 0.75, 1.0])

    def test_geometric_progression(self):
        g = build_grid(GridScheme.GEOMETRIC, 4.0, 1.0, 3)
        assert np.allclose(g.radii, [0.25, 0.5, 1.0])

    def test_two_point_geometric(self):
        g = build_grid(GridScheme.GEOMETRIC, math.e, 2.0, 2)
        assert np.allclose(g.radii, [2.0 / math.e, 2.0])

    def test_invalid_parameters(self):
        with pytest.raises(InvalidGridError):
            build_grid(GridScheme.UNIFORM, 1.0, 1.0, 3)
        with pytest.raises(InvalidGridError):
            build_grid(GridScheme.UNIFORM, 2.0, -1.0, 3)
        with pytest.raises(InvalidGridError):
            build_grid(GridScheme.UNIFORM, 2.0, 1.0, 1)


class TestLocate:
    def test_uniform_example(self):
        g = build_grid(GridScheme.UNIFORM, 2.0, 1.0, 3)
        assert locate(g, 0.6) == 2

    def test_zero_clamps_to_first(self):
        for scheme in GridScheme:
            g = build_grid(scheme, 3.0, 1.0, 7)
            assert locate(g, 0.0) == 1

    def test_geometric_example(self):
        g = build_grid(GridScheme.GEOMETRIC, 4.0, 1.0, 3)
        assert locate(g, 0.3) == 2

    def test_above_grid_rejected(self):
        g = build_grid(GridScheme.UNIFORM, 2.0, 1.0, 3)
        with pytest.raises(OutOfRangeError):
            locate(g, 1.5)

    def test_exact_knots(self):
        g = build_grid(GridScheme.GEOMETRIC, 5.0, 1.0, 40)
        for j in range(1, 41):
            assert locate(g, float(g.radii[j - 1])) == j

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -1e-300, 1.5])
    def test_outside_the_grid_rejected(self, radius):
        g = build_grid(GridScheme.UNIFORM, 2.0, 1.0, 3)
        with pytest.raises(OutOfRangeError):
            locate(g, radius)
        with pytest.raises(OutOfRangeError):
            locate(g, np.array([0.6, radius, 0.7]))

    def test_scalar_gives_int(self):
        g = build_grid(GridScheme.GEOMETRIC, 4.0, 1.0, 3)
        assert type(locate(g, 0.3)) is int
        assert type(locate(g, np.float64(0.3))) is int

    @pytest.mark.parametrize("scheme", list(GridScheme))
    def test_array_matches_scalar_calls(self, scheme):
        # exact knots and the floats just below them, where a rounding slip
        # would land one index off
        g = build_grid(scheme, 7.0, 3.0, 60)
        below = np.nextafter(g.radii, 0.0)
        radii = np.concatenate([[0.0], g.radii, below, 0.5 * (g.radii[1:] + g.radii[:-1])])
        j = locate(g, radii)
        assert j.dtype == np.int64
        assert j.tolist() == [locate(g, r) for r in radii.tolist()]
        assert j.tolist() == [linear_scan(g, r) for r in radii.tolist()]

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(list(GridScheme)),
        st.floats(1.01, 50.0),
        st.floats(0.01, 100.0),
        st.integers(2, 500),
        st.floats(0.0, 1.0),
    )
    def test_matches_linear_scan(self, scheme, lam, a, m, frac):
        g = build_grid(scheme, lam, a, m)
        radius = frac * a
        assert locate(g, radius) == linear_scan(g, radius)


class TestChooseM:
    def test_uniform_formula(self):
        assert choose_m(GridScheme.UNIFORM, 2.0, 0.5) == 6

    def test_geometric_formula(self):
        assert choose_m(GridScheme.GEOMETRIC, math.e, 0.5) == 6

    def test_tiny_lambda(self):
        assert choose_m(GridScheme.UNIFORM, 1.0 + 1e-9, 0.5) == 2

    def test_bad_eps(self):
        with pytest.raises(InvalidToleranceError):
            choose_m(GridScheme.UNIFORM, 2.0, 1.5)


class TestPredictMeq:
    def test_geometric_m101(self):
        val = predict_meq(GridScheme.GEOMETRIC, math.e, 101)
        assert val == pytest.approx(1.0 + 100 * (1 - math.exp(-0.01)), rel=1e-12)
        assert val < 2.0

    def test_geometric_m2(self):
        assert predict_meq(GridScheme.GEOMETRIC, math.e, 2) == pytest.approx(
            2.0 - 1.0 / math.e, rel=1e-12
        )

    def test_uniform_m2(self):
        assert predict_meq(GridScheme.UNIFORM, 2.0, 2) == pytest.approx(1.5)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(list(GridScheme)), st.floats(1.01, 100.0), st.integers(2, 5000))
    def test_always_below_log_bound(self, scheme, lam, m):
        assert predict_meq(scheme, lam, m) < 1.0 + math.log(lam)


class TestBaselineBounds:
    def test_classical_grid_requirement(self):
        assert baseline_m_bound(2.0, 50, 0.1) == 1001

    def test_small_case_ceiling(self):
        assert baseline_m_bound(2.0, 1, 1.0 - 1e-12) == 3

    def test_classical_meq_bound(self):
        assert classical_meq_bound(math.e, 50) == pytest.approx(51.0)
