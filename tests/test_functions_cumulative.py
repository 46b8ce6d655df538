"""Tests for the key-cumulative function (CFsum / CFcount)."""

import numpy as np
import pytest

from repro import Aggregate
from repro.errors import DataError, QueryError
from repro.functions import build_cumulative_function
from repro.functions.cumulative import snap_bounds


class TestBuildCumulativeFunction:
    def test_count_is_cumsum_of_ones(self):
        keys = np.array([1.0, 2.0, 3.0, 4.0])
        cf = build_cumulative_function(keys, aggregate=Aggregate.COUNT)
        np.testing.assert_array_equal(cf.values, [1.0, 2.0, 3.0, 4.0])

    def test_sum_accumulates_measures(self):
        keys = np.array([1.0, 2.0, 3.0])
        measures = np.array([5.0, 7.0, 1.0])
        cf = build_cumulative_function(keys, measures, Aggregate.SUM)
        np.testing.assert_array_equal(cf.values, [5.0, 12.0, 13.0])

    def test_unsorted_input_is_sorted(self):
        keys = np.array([3.0, 1.0, 2.0])
        measures = np.array([30.0, 10.0, 20.0])
        cf = build_cumulative_function(keys, measures, Aggregate.SUM)
        np.testing.assert_array_equal(cf.keys, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(cf.values, [10.0, 30.0, 60.0])

    def test_presorted_flag_validates(self):
        with pytest.raises(DataError):
            build_cumulative_function(
                np.array([3.0, 1.0]), np.array([1.0, 1.0]), presorted=True
            )

    def test_duplicate_keys_collapsed(self):
        keys = np.array([1.0, 1.0, 2.0])
        measures = np.array([2.0, 3.0, 4.0])
        cf = build_cumulative_function(keys, measures, Aggregate.SUM)
        np.testing.assert_array_equal(cf.keys, [1.0, 2.0])
        np.testing.assert_array_equal(cf.values, [5.0, 9.0])

    def test_negative_measures_rejected_for_sum(self):
        with pytest.raises(DataError):
            build_cumulative_function(
                np.array([1.0, 2.0]), np.array([1.0, -1.0]), Aggregate.SUM
            )

    def test_count_ignores_measures(self):
        keys = np.array([1.0, 2.0])
        cf = build_cumulative_function(keys, np.array([100.0, 200.0]), Aggregate.COUNT)
        np.testing.assert_array_equal(cf.values, [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            build_cumulative_function(np.array([]))

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            build_cumulative_function(np.array([1.0, np.nan]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError):
            build_cumulative_function(np.array([1.0, 2.0]), np.array([1.0]))

    def test_max_aggregate_rejected(self):
        with pytest.raises(DataError):
            build_cumulative_function(np.array([1.0]), aggregate=Aggregate.MAX)


class TestCumulativeEvaluation:
    @pytest.fixture()
    def cf(self):
        keys = np.array([10.0, 20.0, 30.0, 40.0])
        measures = np.array([1.0, 2.0, 3.0, 4.0])
        return build_cumulative_function(keys, measures, Aggregate.SUM)

    def test_evaluate_below_domain_is_zero(self, cf):
        assert cf.evaluate(5.0) == 0.0

    def test_evaluate_at_key_includes_it(self, cf):
        assert cf.evaluate(20.0) == 3.0

    def test_evaluate_between_keys(self, cf):
        assert cf.evaluate(25.0) == 3.0

    def test_evaluate_above_domain_is_total(self, cf):
        assert cf.evaluate(100.0) == cf.total == 10.0

    def test_evaluate_vectorized(self, cf):
        values = cf.evaluate(np.array([5.0, 20.0, 100.0]))
        np.testing.assert_array_equal(values, [0.0, 3.0, 10.0])

    def test_range_sum_inclusive_bounds(self, cf):
        # [20, 30] includes both records at 20 and 30.
        assert cf.range_sum(20.0, 30.0) == 5.0

    def test_range_sum_full_domain(self, cf):
        assert cf.range_sum(0.0, 100.0) == 10.0

    def test_range_sum_empty_region(self, cf):
        assert cf.range_sum(21.0, 29.0) == 0.0

    def test_range_sum_invalid_range(self, cf):
        with pytest.raises(QueryError):
            cf.range_sum(30.0, 20.0)

    def test_range_sum_matches_brute_force(self):
        rng = np.random.default_rng(5)
        keys = np.sort(rng.uniform(0, 100, size=200))
        measures = rng.uniform(0, 10, size=200)
        cf = build_cumulative_function(keys, measures, Aggregate.SUM)
        for _ in range(50):
            low, high = np.sort(rng.uniform(0, 100, size=2))
            expected = measures[(keys >= low) & (keys <= high)].sum()
            assert cf.range_sum(low, high) == pytest.approx(expected)

    def test_slice_points(self, cf):
        keys, values = cf.slice_points(1, 3)
        np.testing.assert_array_equal(keys, [20.0, 30.0])
        np.testing.assert_array_equal(values, [3.0, 6.0])

    def test_slice_points_bad_bounds(self, cf):
        with pytest.raises(QueryError):
            cf.slice_points(3, 1)

    def test_monotone_values(self):
        rng = np.random.default_rng(6)
        keys = np.sort(rng.uniform(0, 1, size=100))
        measures = rng.uniform(0, 5, size=100)
        cf = build_cumulative_function(keys, measures, Aggregate.SUM)
        assert np.all(np.diff(cf.values) >= 0)


class TestBatchEvaluationCost:
    """The exact fallback gathers O(batch) prefix values, never copies O(n)."""

    @staticmethod
    def padded_reference(cf, idx):
        return np.concatenate(([0.0], cf.values))[idx]

    def test_batch_paths_bit_identical_to_padded_prefix(self):
        rng = np.random.default_rng(9)
        keys = np.sort(rng.uniform(0.0, 100.0, size=500))
        cf = build_cumulative_function(keys, rng.uniform(0.0, 3.0, size=500))
        # Below the domain, exactly on keys, between keys, above the domain.
        probes = np.concatenate(([-5.0, keys[0], 1e9], keys[::37], rng.uniform(-1, 101, 50)))
        right = np.searchsorted(cf.keys, probes, side="right")
        assert np.array_equal(cf.evaluate(probes), self.padded_reference(cf, right))
        lows = np.minimum(probes, probes[::-1])
        highs = np.maximum(probes, probes[::-1])
        expected = (
            self.padded_reference(cf, np.searchsorted(cf.keys, highs, side="right"))
            - self.padded_reference(cf, np.searchsorted(cf.keys, lows, side="left"))
        )
        assert np.array_equal(cf.range_sum_batch(lows, highs), expected)
        assert cf.evaluate(-5.0) == 0.0 and cf.evaluate(1e9) == cf.total

    def test_one_query_batch_allocates_o_batch_not_o_n(self):
        import tracemalloc

        n = 1_000_000
        cf = build_cumulative_function(
            np.arange(n, dtype=np.float64), aggregate=Aggregate.COUNT, presorted=True
        )
        lows, highs = np.array([10.5]), np.array([500_000.0])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            answer = cf.range_sum_batch(lows, highs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert answer[0] == 500_000.0 - 10.0
        assert peak < 1_000_000, f"one-query batch allocated {peak} bytes"


class TestSnapBounds:
    """The one sorted bound search of the 1-D batch path."""

    @pytest.mark.parametrize("size", [1, 31, 32, 33, 1000])
    def test_matches_plain_searchsorted(self, size):
        rng = np.random.default_rng(size)
        keys = np.unique(rng.integers(0, 500, size=400).astype(np.float64))
        lows = rng.choice(np.concatenate((keys, rng.uniform(-10, 510, 50), [-np.inf])), size)
        highs = lows + rng.choice([0.0, 0.5, 3.0], size)
        highs[::7] = np.inf
        lo, hi = snap_bounds(keys, lows, highs)
        np.testing.assert_array_equal(lo, np.searchsorted(keys, lows, side="left"))
        np.testing.assert_array_equal(hi, np.searchsorted(keys, highs, side="right"))

    def test_nan_bounds_rejected(self):
        cf = build_cumulative_function(np.arange(1000.0), aggregate=Aggregate.COUNT)
        for lows, highs in (([np.nan], [5.0]), ([2.0], [np.nan]), ([np.nan], [np.nan])):
            with pytest.raises(QueryError):
                cf.range_sum_batch(np.array(lows), np.array(highs))
        with pytest.raises(QueryError):
            cf.range_sum(np.nan, 5.0)
        assert cf.range_sum_batch(np.array([-np.inf]), np.array([np.inf]))[0] == 1000.0
