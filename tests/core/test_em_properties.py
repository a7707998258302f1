"""Property-based tests for EM helpers and the weighting scheme."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.em import ScatterPlan, normalize_rows, scatter_sum
from repro.core.weighting import bursty_degree, compute_item_weights, inverse_user_frequency
from repro.data.cuboid import RatingCuboid


finite_matrix = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 8)),
    elements=st.floats(0.0, 100.0, allow_nan=False),
)


class TestNormalizeRowsProperties:
    @settings(max_examples=100, deadline=None)
    @given(finite_matrix)
    def test_output_is_row_stochastic(self, matrix):
        out = normalize_rows(matrix.copy())
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out >= 0)

    @settings(max_examples=100, deadline=None)
    @given(finite_matrix, st.floats(1e-9, 1.0))
    def test_smoothing_keeps_strict_positivity(self, matrix, smoothing):
        out = normalize_rows(matrix.copy(), smoothing=smoothing)
        assert np.all(out > 0)

    @settings(max_examples=100, deadline=None)
    @given(finite_matrix, st.floats(0.1, 10.0))
    def test_scale_invariance(self, matrix, scale):
        # Rows whose mass is at the EPS threshold intentionally become
        # uniform (the zero-mass fallback), and a scale factor can move
        # such a row across the threshold — invariance is only promised
        # for rows with non-negligible mass.
        assume(bool(np.all(matrix.sum(axis=1) * min(scale, 1.0) > 1e-9)))
        base = normalize_rows(matrix.copy())
        scaled = normalize_rows(matrix.copy() * scale)
        np.testing.assert_allclose(base, scaled, atol=1e-9)


class TestScatterSumProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 10),
        st.integers(0, 50),
        st.integers(1, 5),
        st.integers(0, 2**31 - 1),
    )
    def test_linearity_and_mass(self, bins, rows, cols, seed):
        rng = np.random.default_rng(seed)
        index = rng.integers(0, bins, size=rows)
        values = rng.random((rows, cols))
        out = scatter_sum(index, values, bins)
        assert np.isclose(out.sum(), values.sum())
        doubled = scatter_sum(index, 2 * values, bins)
        np.testing.assert_allclose(doubled, 2 * out)


class TestScatterPlanProperties:
    """A planned scatter is the flat ``bincount``, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12),  # distinct row values drawn from
        st.integers(0, 6),  # bins past rows.max() that stay empty
        st.integers(0, 60),
        st.integers(1, 5),  # K, including 1
        st.sampled_from(["c", "fortran", "strided", "reversed"]),
        st.integers(0, 2**31 - 1),
    )
    def test_sum_is_bitwise_the_flat_bincount(self, spread, slack, size, cols, layout, seed):
        rng = np.random.default_rng(seed)
        # Few distinct values over many rows: repeats and empty bins both occur.
        rows = rng.integers(0, spread, size=size)
        bins = spread + slack
        # Magnitudes 1e-8…1e8 make the sum order visible in the low bits.
        dense = rng.standard_normal((size, cols)) * 10.0 ** rng.integers(-8, 9, (size, cols))
        if layout == "fortran":
            values = np.asfortranarray(dense)
        elif layout == "strided":
            values = np.repeat(dense, 2, axis=1)[:, ::2]
        elif layout == "reversed":
            values = dense[:, ::-1]  # negative column stride
        else:
            values = dense
        plan = ScatterPlan(rows, bins)
        expected = scatter_sum(rows, values, bins)
        assert plan.sum(values).tobytes() == expected.tobytes()

        # ``out=`` accumulation over two calls: the same two additions.
        out = rng.standard_normal((bins, cols))
        planned = plan.sum(values, out=plan.sum(values, out=out.copy()))
        flat = scatter_sum(rows, values, bins, out=scatter_sum(rows, values, bins, out=out.copy()))
        assert planned.tobytes() == flat.tobytes()


@st.composite
def small_cuboid(draw):
    n = draw(st.integers(2, 8))
    t = draw(st.integers(1, 5))
    v = draw(st.integers(2, 8))
    size = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    return RatingCuboid.from_arrays(
        rng.integers(0, n, size),
        rng.integers(0, t, size),
        rng.integers(0, v, size),
        num_users=n,
        num_intervals=t,
        num_items=v,
    )


class TestWeightingProperties:
    @settings(max_examples=80, deadline=None)
    @given(small_cuboid())
    def test_iuf_non_negative_and_bounded(self, cub):
        iuf = inverse_user_frequency(cub)
        assert np.all(iuf >= -1e-12)
        assert np.all(iuf <= np.log(cub.num_users) + 1e-12)

    @settings(max_examples=80, deadline=None)
    @given(small_cuboid())
    def test_burst_non_negative_finite(self, cub):
        burst = bursty_degree(cub)
        assert np.all(burst >= 0)
        assert np.all(np.isfinite(burst))

    @settings(max_examples=80, deadline=None)
    @given(small_cuboid())
    def test_burst_zero_exactly_on_unobserved_cells(self, cub):
        burst = bursty_degree(cub)
        observed = cub.item_interval_user_counts() > 0
        # Unobserved (t, v) cells carry no burst.
        assert np.all(burst[~observed] == 0)

    @settings(max_examples=80, deadline=None)
    @given(small_cuboid())
    def test_weight_matrix_consistent(self, cub):
        weights = compute_item_weights(cub)
        matrix = weights.weight_matrix()
        for t in range(cub.num_intervals):
            for v in range(cub.num_items):
                assert np.isclose(matrix[t, v], weights.weight(v, t))
