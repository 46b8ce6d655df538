"""Tests for the key-measure step function (DFmax / DFmin)."""

import numpy as np
import pytest

from repro import Aggregate
from repro.errors import DataError, QueryError
from repro.functions import build_key_measure_function
from repro.functions.key_measure import BlockExtremeTable


class TestBuildKeyMeasureFunction:
    def test_basic_construction(self):
        keys = np.array([1.0, 2.0, 3.0])
        measures = np.array([5.0, 2.0, 9.0])
        df = build_key_measure_function(keys, measures, Aggregate.MAX)
        np.testing.assert_array_equal(df.keys, keys)
        np.testing.assert_array_equal(df.measures, measures)

    def test_unsorted_input_sorted(self):
        keys = np.array([3.0, 1.0, 2.0])
        measures = np.array([9.0, 5.0, 2.0])
        df = build_key_measure_function(keys, measures, Aggregate.MAX)
        np.testing.assert_array_equal(df.keys, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(df.measures, [5.0, 2.0, 9.0])

    def test_duplicates_collapsed_to_max(self):
        keys = np.array([1.0, 1.0, 2.0])
        measures = np.array([3.0, 7.0, 5.0])
        df = build_key_measure_function(keys, measures, Aggregate.MAX)
        np.testing.assert_array_equal(df.measures, [7.0, 5.0])

    def test_duplicates_collapsed_to_min(self):
        keys = np.array([1.0, 1.0, 2.0])
        measures = np.array([3.0, 7.0, 5.0])
        df = build_key_measure_function(keys, measures, Aggregate.MIN)
        np.testing.assert_array_equal(df.measures, [3.0, 5.0])

    def test_count_rejected(self):
        with pytest.raises(DataError):
            build_key_measure_function(np.array([1.0]), np.array([1.0]), Aggregate.COUNT)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            build_key_measure_function(np.array([]), np.array([]))

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            build_key_measure_function(np.array([1.0]), np.array([np.nan]))

    def test_mismatched_lengths(self):
        with pytest.raises(DataError):
            build_key_measure_function(np.array([1.0, 2.0]), np.array([1.0]))

    def test_presorted_validation(self):
        with pytest.raises(DataError):
            build_key_measure_function(
                np.array([2.0, 1.0]), np.array([1.0, 1.0]), presorted=True
            )


class TestKeyMeasureEvaluation:
    @pytest.fixture()
    def df(self):
        keys = np.array([10.0, 20.0, 30.0])
        measures = np.array([5.0, 9.0, 2.0])
        return build_key_measure_function(keys, measures, Aggregate.MAX)

    def test_step_evaluation(self, df):
        assert df.evaluate(10.0) == 5.0
        assert df.evaluate(15.0) == 5.0
        assert df.evaluate(25.0) == 9.0
        assert df.evaluate(100.0) == 2.0

    def test_before_first_key_is_zero(self, df):
        assert df.evaluate(5.0) == 0.0

    def test_range_extreme_max(self, df):
        assert df.range_extreme(10.0, 30.0) == 9.0
        assert df.range_extreme(25.0, 35.0) == 2.0

    def test_range_extreme_min(self):
        keys = np.array([1.0, 2.0, 3.0])
        measures = np.array([5.0, 1.0, 9.0])
        df = build_key_measure_function(keys, measures, Aggregate.MIN)
        assert df.range_extreme(1.0, 3.0) == 1.0
        assert df.range_extreme(2.5, 3.5) == 9.0

    def test_range_extreme_empty_is_nan(self, df):
        assert np.isnan(df.range_extreme(11.0, 19.0))

    def test_range_extreme_invalid(self, df):
        with pytest.raises(QueryError):
            df.range_extreme(5.0, 1.0)

    def test_range_extreme_matches_brute_force(self):
        rng = np.random.default_rng(7)
        keys = np.sort(rng.uniform(0, 100, size=300))
        measures = rng.uniform(0, 50, size=300)
        df = build_key_measure_function(keys, measures, Aggregate.MAX)
        for _ in range(50):
            low, high = np.sort(rng.choice(keys, size=2, replace=False))
            expected = measures[(keys >= low) & (keys <= high)].max()
            assert df.range_extreme(low, high) == pytest.approx(expected)

    def test_slice_points(self, df):
        keys, measures = df.slice_points(0, 2)
        np.testing.assert_array_equal(keys, [10.0, 20.0])
        np.testing.assert_array_equal(measures, [5.0, 9.0])

    def test_slice_points_bad_bounds(self, df):
        with pytest.raises(QueryError):
            df.slice_points(2, 5)


class TestRangeExtremeBatch:
    """The vectorized exact MAX/MIN path against the scalar window scan."""

    @staticmethod
    def windows(n):
        """(lows, highs) over keys 0..n-1: every window shape the block table splits on."""
        block = BlockExtremeTable.BLOCK
        pairs = [
            (-5.0, -1.0), (n + 1.0, n + 9.0), (0.5, 0.7),  # empty: below, above, between keys
            (0.0, 0.0), (n - 1.0, n - 1.0),  # single element at either end
            (1.0, float(np.clip(n - 1, 1, 5))),  # inside the first block
            (block - 2.0, block + 1.0),  # straddles one block boundary
            (block - 1.0, 3 * block + 2.0),  # partial end blocks around a full middle
            (block * 1.0, 2 * block - 1.0),  # exactly one whole block
            (0.0, n - 1.0), (-np.inf, np.inf), (-1e300, 1e300),  # the full span
            (-np.inf, n / 2), (n / 2, np.inf),
        ]
        rng = np.random.default_rng(n)
        starts = rng.uniform(-2.0, n + 2.0, size=200)
        pairs += zip(starts, starts + rng.exponential(max(n / 8, 1.0), size=200))
        lows, highs = (np.array(side, dtype=np.float64) for side in zip(*pairs))
        return lows, highs

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 1000, 4099])
    @pytest.mark.parametrize("aggregate", [Aggregate.MAX, Aggregate.MIN], ids=["max", "min"])
    def test_matches_scalar_range_extreme(self, n, aggregate):
        rng = np.random.default_rng(n + 1)
        df = build_key_measure_function(
            np.arange(n, dtype=np.float64), rng.normal(size=n), aggregate
        )
        lows, highs = self.windows(n)
        expected = np.array([df.range_extreme(lo, hi) for lo, hi in zip(lows, highs)])
        got = df.range_extreme_batch(lows, highs)
        np.testing.assert_array_equal(got, expected)
        # Element independence: each answer is the same alone as in the batch.
        for i in (0, 3, len(lows) - 1):
            np.testing.assert_array_equal(
                df.range_extreme_batch(lows[i:i + 1], highs[i:i + 1]), expected[i:i + 1]
            )

    def test_table_references_measures_without_per_element_arrays(self):
        n = 100_000
        df = build_key_measure_function(
            np.arange(n, dtype=np.float64), np.random.default_rng(3).normal(size=n),
            Aggregate.MAX,
        )
        df.range_extreme_batch(np.array([0.0]), np.array([10.0]))
        table = df._extreme_table
        assert table._values is df.measures
        # Per-block extremes plus their sparse table: O(n / BLOCK * log n).
        assert table.size_in_bytes() < df.measures.nbytes // 2

    def test_nan_bounds_rejected(self):
        df = build_key_measure_function(np.arange(10.0), np.arange(10.0), Aggregate.MAX)
        for lows, highs in (([np.nan], [5.0]), ([2.0], [np.nan]), ([1.0, np.nan], [2.0, 3.0])):
            with pytest.raises(QueryError):
                df.range_extreme_batch(np.array(lows), np.array(highs))
        with pytest.raises(QueryError):
            df.range_extreme(np.nan, 5.0)
