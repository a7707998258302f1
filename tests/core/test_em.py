"""Tests for the shared EM machinery."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.em import (
    EMTrace,
    ScatterPlan,
    normalize_rows,
    random_stochastic,
    scatter_sum,
    scatter_sum_1d,
)


class TestScatterSum:
    def test_matches_add_at(self, rng):
        rows = rng.integers(0, 7, size=200)
        values = rng.random((200, 5))
        expected = np.zeros((7, 5))
        np.add.at(expected, rows, values)
        np.testing.assert_allclose(scatter_sum(rows, values, 7), expected)

    def test_empty_rows_stay_zero(self):
        rows = np.array([0, 0])
        values = np.ones((2, 3))
        result = scatter_sum(rows, values, 4)
        assert result[1:].sum() == 0
        assert result[0].tolist() == [2.0, 2.0, 2.0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            scatter_sum(np.array([0, 1]), np.ones((3, 2)), 2)

    def test_1d_variant(self, rng):
        rows = rng.integers(0, 4, size=50)
        values = rng.random(50)
        expected = np.bincount(rows, weights=values, minlength=4)
        np.testing.assert_allclose(scatter_sum_1d(rows, values, 4), expected)


class TestScatterSumOut:
    """The buffer-accumulating mode added for the blocked EM engine."""

    def test_out_accumulates_across_calls(self, rng):
        rows = rng.integers(0, 6, size=80)
        values = rng.random((80, 3))
        out = np.zeros((6, 3))
        returned = scatter_sum(rows[:40], values[:40], 6, out=out)
        assert returned is out
        scatter_sum(rows[40:], values[40:], 6, out=out)
        np.testing.assert_allclose(out, scatter_sum(rows, values, 6))

    def test_out_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="out shape"):
            scatter_sum(np.array([0, 1]), np.ones((2, 3)), 4, out=np.zeros((4, 2)))

    def test_1d_out_accumulates(self, rng):
        rows = rng.integers(0, 5, size=60)
        values = rng.random(60)
        out = np.zeros(5)
        scatter_sum_1d(rows[:30], values[:30], 5, out=out)
        scatter_sum_1d(rows[30:], values[30:], 5, out=out)
        np.testing.assert_allclose(out, scatter_sum_1d(rows, values, 5))

    def test_1d_out_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="out shape"):
            scatter_sum_1d(np.array([0, 1]), np.ones(2), 4, out=np.zeros(3))


class TestScatterPlan:
    def test_matches_planless_result(self, rng):
        for batch in (100, 37, 1):
            rows = rng.integers(0, 8, size=batch)
            plan = ScatterPlan(rows, 8)
            for width in (5, 1):  # one plan serves values of any width
                values = rng.random((batch, width))
                np.testing.assert_array_equal(
                    plan.sum(values), scatter_sum(rows, values, 8)
                )

    def test_out_accumulates_across_calls(self, rng):
        rows = rng.integers(0, 6, size=80)
        values = rng.random((80, 3))
        plan = ScatterPlan(rows, 6)
        out = np.zeros((6, 3))
        assert plan.sum(values, out=out) is out
        plan.sum(values, out=out)
        expected = scatter_sum(rows, values, 6)
        np.testing.assert_array_equal(out, expected + expected)

    def test_plan_is_immutable_and_reusable(self, rng):
        rows = rng.integers(0, 4, size=10)
        plan = ScatterPlan(rows, 4)
        values = rng.random((10, 3))
        first = plan.sum(values)
        rows[:] = 0  # the plan keeps no view of the caller's index array
        np.testing.assert_array_equal(plan.sum(values), first)
        indicator = plan._indicator
        for array in (indicator.data, indicator.indices, indicator.indptr):
            assert not array.flags.writeable

    def test_one_plan_shared_by_many_threads(self, rng):
        """The engine's workers share plans without a lock: eight threads
        (more than the cores) summing through one, switching often."""
        rows = rng.integers(0, 50, size=2000)
        plan = ScatterPlan(rows, 50)
        batches = [rng.random((2000, 4)) for _ in range(8)]
        expected = [scatter_sum(rows, values, 50).tobytes() for values in batches]

        def work(values):
            return [plan.sum(values).tobytes() for _ in range(25)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(work, batches, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, expected):
            assert set(got) == {want}

    def test_wrong_length_rejected(self):
        plan = ScatterPlan(np.array([0, 1, 1, 3]), 4)
        with pytest.raises(ValueError, match="plan over 4 rows"):
            plan.sum(np.ones((5, 2)))
        with pytest.raises(ValueError, match="plan over 4 rows"):
            plan.sum(np.ones(4))

    def test_wrong_width_rejected(self):
        plan = ScatterPlan(np.array([0, 1]), 2)
        with pytest.raises(ValueError, match="out shape"):
            plan.sum(np.ones((2, 4)), out=np.zeros((2, 3)))

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError, match="num_rows"):
            ScatterPlan(np.array([0]), 0)
        with pytest.raises(ValueError, match="one-dimensional"):
            ScatterPlan(np.zeros((2, 2), dtype=np.int64), 4)

    def test_empty_index_array_sums_to_zeros(self):
        plan = ScatterPlan(np.zeros(0, dtype=np.int64), 3)
        np.testing.assert_array_equal(plan.sum(np.zeros((0, 2))), np.zeros((3, 2)))


class TestOutOfRangeRows:
    """An index outside ``[0, num_rows)`` is named, not left to ``bincount``."""

    @pytest.mark.parametrize("bad", [6, 4, -1])
    def test_plan_construction_names_the_index(self, bad):
        with pytest.raises(ValueError, match=rf"index {bad} is out of range for num_rows=4"):
            ScatterPlan(np.array([0, 3, bad, 1, 9]), 4)

    @pytest.mark.parametrize("bad", [6, 4, -1])
    def test_planless_scatter_names_the_index(self, bad):
        with pytest.raises(ValueError, match=rf"index {bad} is out of range for num_rows=4"):
            scatter_sum(np.array([0, 3, bad, 1, 9]), np.ones((5, 3)), 4)


class TestNormalizeRows:
    def test_rows_sum_to_one(self, rng):
        matrix = rng.random((6, 9))
        out = normalize_rows(matrix)
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    def test_zero_rows_become_uniform(self):
        matrix = np.zeros((2, 4))
        matrix[0, 1] = 3.0
        out = normalize_rows(matrix)
        np.testing.assert_allclose(out[1], 0.25)
        assert out[0, 1] == 1.0

    def test_smoothing_removes_zeros(self):
        matrix = np.array([[1.0, 0.0, 0.0]])
        out = normalize_rows(matrix, smoothing=0.1)
        assert np.all(out > 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    def test_input_not_mutated(self):
        matrix = np.array([[1.0, 1.0]])
        normalize_rows(matrix)
        assert matrix.tolist() == [[1.0, 1.0]]


class TestRandomStochastic:
    def test_rows_sum_to_one(self, rng):
        out = random_stochastic(rng, 5, 8)
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    def test_no_near_zero_entries(self, rng):
        out = random_stochastic(rng, 10, 10)
        # 0.5 + U(0,1) keeps every cell at least a third of the mean.
        assert out.min() > 0.5 / (1.5 * 10)


class TestEMTrace:
    def test_records_and_converges(self):
        trace = EMTrace()
        assert not trace.record(-100.0, tol=1e-3)
        assert not trace.record(-50.0, tol=1e-3)  # big improvement
        assert trace.record(-49.999, tol=1e-3)  # tiny improvement → converged
        assert trace.converged
        assert trace.iterations == 3
        assert trace.final_log_likelihood == -49.999

    def test_nonfinite_rejected(self):
        trace = EMTrace()
        with pytest.raises(FloatingPointError):
            trace.record(float("nan"), tol=1e-3)

    def test_final_requires_iterations(self):
        with pytest.raises(ValueError):
            _ = EMTrace().final_log_likelihood

    def test_monotone_check(self):
        good = EMTrace(log_likelihood=[-10.0, -5.0, -4.0])
        bad = EMTrace(log_likelihood=[-10.0, -5.0, -6.0])
        assert good.is_monotone()
        assert not bad.is_monotone()

    def test_monotone_allows_float_slack(self):
        trace = EMTrace(log_likelihood=[-10.0, -10.0 - 1e-12])
        assert trace.is_monotone()
