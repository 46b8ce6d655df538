"""Tests for the exact baselines (KCA, brute force, 2-D prefix grid)."""

import numpy as np
import pytest

from repro import Aggregate
from repro.baselines import BruteForceAggregator, KeyCumulativeArray, PrefixSumGrid2D
from repro.errors import DataError, QueryError


class TestKeyCumulativeArray:
    def test_build_sorts_input(self):
        kca = KeyCumulativeArray.build(np.array([3.0, 1.0, 2.0]), np.array([3.0, 1.0, 2.0]))
        np.testing.assert_array_equal(kca.keys, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(kca.cumulative, [1.0, 3.0, 6.0])

    def test_count_mode_uses_unit_measures(self):
        kca = KeyCumulativeArray.build(np.array([1.0, 2.0]), np.array([9.0, 9.0]),
                                       aggregate=Aggregate.COUNT)
        np.testing.assert_array_equal(kca.cumulative, [1.0, 2.0])

    def test_evaluate_float_key(self):
        kca = KeyCumulativeArray.build(np.array([10.0, 20.0]), np.array([1.0, 2.0]))
        assert kca.evaluate(5.0) == 0.0
        assert kca.evaluate(15.0) == 1.0
        assert kca.evaluate(25.0) == 3.0

    def test_range_aggregate_inclusive(self):
        kca = KeyCumulativeArray.build(np.array([10.0, 20.0, 30.0]), np.array([1.0, 2.0, 3.0]))
        assert kca.range_aggregate(10.0, 30.0) == 6.0
        assert kca.range_aggregate(15.0, 25.0) == 2.0
        assert kca.range_aggregate(11.0, 19.0) == 0.0

    def test_range_aggregate_matches_brute_force(self):
        rng = np.random.default_rng(1)
        keys = rng.uniform(0, 100, size=300)
        measures = rng.uniform(0, 10, size=300)
        kca = KeyCumulativeArray.build(keys, measures)
        brute = BruteForceAggregator(keys, measures)
        for _ in range(50):
            low, high = np.sort(rng.uniform(0, 100, size=2))
            assert kca.range_aggregate(low, high) == pytest.approx(
                brute.range_aggregate(low, high, Aggregate.SUM)
            )

    def test_invalid_range(self):
        kca = KeyCumulativeArray.build(np.array([1.0]), np.array([1.0]))
        with pytest.raises(QueryError):
            kca.range_aggregate(2.0, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            KeyCumulativeArray.build(np.array([]))

    def test_size_in_bytes(self):
        kca = KeyCumulativeArray.build(np.arange(100.0), np.ones(100))
        assert kca.size_in_bytes() == 8 * 200

    def test_from_cumulative(self):
        from repro.functions import build_cumulative_function

        cf = build_cumulative_function(np.array([1.0, 2.0]), np.array([3.0, 4.0]), Aggregate.SUM)
        kca = KeyCumulativeArray.from_cumulative(cf)
        assert kca.range_aggregate(1.0, 2.0) == 7.0


class TestBruteForceAggregator:
    @pytest.fixture()
    def data(self):
        rng = np.random.default_rng(2)
        keys = rng.uniform(0, 10, size=200)
        measures = rng.uniform(1, 5, size=200)
        return keys, measures

    def test_count(self, data):
        keys, measures = data
        brute = BruteForceAggregator(keys, measures)
        assert brute.range_aggregate(0, 10, Aggregate.COUNT) == 200

    def test_sum_min_max(self, data):
        keys, measures = data
        brute = BruteForceAggregator(keys, measures)
        mask = (keys >= 2) & (keys <= 7)
        assert brute.range_aggregate(2, 7, Aggregate.SUM) == pytest.approx(measures[mask].sum())
        assert brute.range_aggregate(2, 7, Aggregate.MAX) == pytest.approx(measures[mask].max())
        assert brute.range_aggregate(2, 7, Aggregate.MIN) == pytest.approx(measures[mask].min())

    def test_empty_range_semantics(self, data):
        keys, measures = data
        brute = BruteForceAggregator(keys, measures)
        assert brute.range_aggregate(100, 200, Aggregate.SUM) == 0.0
        assert brute.range_aggregate(100, 200, Aggregate.COUNT) == 0.0
        assert np.isnan(brute.range_aggregate(100, 200, Aggregate.MAX))

    def test_rectangle_aggregate(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        ys = np.array([0.0, 1.0, 2.0, 3.0])
        brute = BruteForceAggregator(xs, np.ones(4), second_keys=ys)
        assert brute.rectangle_aggregate(0.5, 2.5, 0.5, 2.5, Aggregate.COUNT) == 2.0

    def test_rectangle_requires_second_keys(self):
        brute = BruteForceAggregator(np.array([1.0]), np.array([1.0]))
        with pytest.raises(QueryError):
            brute.rectangle_aggregate(0, 1, 0, 1)

    def test_invalid_range(self, data):
        keys, measures = data
        brute = BruteForceAggregator(keys, measures)
        with pytest.raises(QueryError):
            brute.range_aggregate(5, 1, Aggregate.SUM)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            BruteForceAggregator(np.array([]))


class TestPrefixSumGrid2D:
    def test_exact_on_grid_aligned_queries(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(0, 1, size=2000)
        ys = rng.uniform(0, 1, size=2000)
        grid = PrefixSumGrid2D(xs, ys, resolution=10)
        # Whole-domain query is always exact.
        assert grid.rectangle_estimate(0.0, 1.0, 0.0, 1.0) == pytest.approx(2000.0)

    def test_estimate_close_to_truth(self):
        rng = np.random.default_rng(4)
        xs = rng.uniform(0, 1, size=5000)
        ys = rng.uniform(0, 1, size=5000)
        grid = PrefixSumGrid2D(xs, ys, resolution=64)
        brute = BruteForceAggregator(xs, np.ones(xs.size), second_keys=ys)
        for _ in range(20):
            x1, x2 = np.sort(rng.uniform(0, 1, size=2))
            y1, y2 = np.sort(rng.uniform(0, 1, size=2))
            exact = brute.rectangle_aggregate(x1, x2, y1, y2)
            estimate = grid.rectangle_estimate(x1, x2, y1, y2)
            # Error bounded by boundary-cell mass; generous tolerance.
            assert abs(estimate - exact) <= 0.05 * xs.size

    def test_invalid_rectangle(self):
        grid = PrefixSumGrid2D(np.array([0.0, 1.0]), np.array([0.0, 1.0]), resolution=2)
        with pytest.raises(QueryError):
            grid.rectangle_estimate(1.0, 0.0, 0.0, 1.0)

    def test_bad_resolution(self):
        with pytest.raises(DataError):
            PrefixSumGrid2D(np.array([0.0, 1.0]), np.array([0.0, 1.0]), resolution=1)

    def test_size_in_bytes(self):
        grid = PrefixSumGrid2D(np.array([0.0, 1.0]), np.array([0.0, 1.0]), resolution=4)
        assert grid.size_in_bytes() == grid._prefix.nbytes


class TestKeyCumulativeArrayBatchCost:
    """Batch evaluation gathers O(batch) prefix values, never copies O(n)."""

    def test_batch_paths_bit_identical_to_padded_prefix(self):
        rng = np.random.default_rng(10)
        kca = KeyCumulativeArray.build(rng.uniform(0.0, 50.0, 400), rng.uniform(0.0, 2.0, 400))
        padded = np.concatenate(([0.0], kca.cumulative))
        probes = np.concatenate(([-1.0, 1e6], kca.keys[::29], rng.uniform(-1, 51, 40)))
        right = np.searchsorted(kca.keys, probes, side="right")
        assert np.array_equal(kca.evaluate_batch(probes), padded[right])
        lows = np.minimum(probes, probes[::-1])
        highs = np.maximum(probes, probes[::-1])
        expected = (
            padded[np.searchsorted(kca.keys, highs, side="right")]
            - padded[np.searchsorted(kca.keys, lows, side="left")]
        )
        assert np.array_equal(kca.range_aggregate_batch(lows, highs), expected)

    def test_one_query_batch_allocates_o_batch_not_o_n(self):
        import tracemalloc

        n = 1_000_000
        kca = KeyCumulativeArray.build(np.arange(n, dtype=np.float64), np.ones(n))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            answer = kca.range_aggregate_batch(np.array([0.0]), np.array([99.5]))
            kca.evaluate_batch(np.array([7.0]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert answer[0] == 100.0
        assert peak < 1_000_000, f"one-query batch allocated {peak} bytes"
