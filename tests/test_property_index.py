"""Property-based tests for the PolyFit indexes: guarantees on random data."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Aggregate, Guarantee, PolyFit2DIndex, PolyFitIndex, RangeQuery, RangeQuery2D
from repro.baselines import BruteForceAggregator
from repro.errors import QueryError
from repro.stream import UpdatablePolyFitIndex
from repro.queries.batch import resolve_batch_certificates


def _dataset_strategy(min_size=10, max_size=60):
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.floats(min_value=0, max_value=1e4, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
                unique=True,
            ),
            st.lists(
                st.floats(min_value=0, max_value=1e3, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
            ),
        )
    )


class TestCountGuaranteeProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        data=_dataset_strategy(),
        eps=st.floats(min_value=2.0, max_value=100.0),
        bounds=st.tuples(
            st.floats(min_value=-100, max_value=1.1e4, allow_nan=False),
            st.floats(min_value=-100, max_value=1.1e4, allow_nan=False),
        ),
    )
    def test_absolute_count_guarantee(self, data, eps, bounds):
        keys = np.sort(np.asarray(data[0], dtype=np.float64))
        index = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT,
                                   guarantee=Guarantee.absolute(eps))
        low, high = min(bounds), max(bounds)
        query = RangeQuery(low, high, Aggregate.COUNT)
        exact = float(np.count_nonzero((keys >= low) & (keys <= high)))
        result = index.query(query, Guarantee.absolute(eps))
        assert abs(result.value - exact) <= eps + 1e-6

    @settings(max_examples=15, deadline=None)
    @given(data=_dataset_strategy(), eps=st.floats(min_value=0.005, max_value=0.5))
    def test_relative_count_guarantee_with_fallback(self, data, eps):
        keys = np.sort(np.asarray(data[0], dtype=np.float64))
        index = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT, delta=5.0)
        low, high = float(keys[0]), float(keys[-1])
        query = RangeQuery(low, high, Aggregate.COUNT)
        exact = float(keys.size)
        result = index.query(query, Guarantee.relative(eps))
        assert abs(result.value - exact) <= eps * exact + 1e-6


class TestSumGuaranteeProperty:
    @settings(max_examples=15, deadline=None)
    @given(data=_dataset_strategy(), eps=st.floats(min_value=10.0, max_value=500.0))
    def test_absolute_sum_guarantee(self, data, eps):
        keys = np.sort(np.asarray(data[0], dtype=np.float64))
        measures = np.asarray(data[1], dtype=np.float64)
        index = PolyFitIndex.build(keys, measures, aggregate=Aggregate.SUM,
                                   guarantee=Guarantee.absolute(eps))
        brute = BruteForceAggregator(keys, measures)
        low, high = float(keys[len(keys) // 4]), float(keys[-1])
        query = RangeQuery(low, high, Aggregate.SUM)
        exact = brute.range_aggregate(low, high, Aggregate.SUM)
        assert abs(index.query(query).value - exact) <= eps + 1e-6


class TestMaxGuaranteeProperty:
    @settings(max_examples=15, deadline=None)
    @given(data=_dataset_strategy(min_size=15, max_size=50),
           eps=st.floats(min_value=5.0, max_value=200.0))
    def test_absolute_max_guarantee(self, data, eps):
        keys = np.sort(np.asarray(data[0], dtype=np.float64))
        measures = np.asarray(data[1], dtype=np.float64)
        index = PolyFitIndex.build(keys, measures, aggregate=Aggregate.MAX,
                                   guarantee=Guarantee.absolute(eps))
        brute = BruteForceAggregator(keys, measures)
        low, high = float(keys[2]), float(keys[-3])
        exact = brute.range_aggregate(low, high, Aggregate.MAX)
        if np.isnan(exact):
            return
        result = index.query(RangeQuery(low, high, Aggregate.MAX))
        assert abs(result.value - exact) <= eps + 1e-6

    @settings(max_examples=15, deadline=None)
    @given(data=_dataset_strategy(min_size=15, max_size=50),
           eps=st.floats(min_value=5.0, max_value=200.0))
    def test_absolute_min_guarantee(self, data, eps):
        keys = np.sort(np.asarray(data[0], dtype=np.float64))
        measures = np.asarray(data[1], dtype=np.float64)
        index = PolyFitIndex.build(keys, measures, aggregate=Aggregate.MIN,
                                   guarantee=Guarantee.absolute(eps))
        brute = BruteForceAggregator(keys, measures)
        low, high = float(keys[2]), float(keys[-3])
        exact = brute.range_aggregate(low, high, Aggregate.MIN)
        if np.isnan(exact):
            return
        result = index.query(RangeQuery(low, high, Aggregate.MIN))
        assert abs(result.value - exact) <= eps + 1e-6


class TestStructuralProperties:
    @settings(max_examples=15, deadline=None)
    @given(data=_dataset_strategy(), delta=st.floats(min_value=1.0, max_value=100.0))
    def test_segments_partition_domain(self, data, delta):
        keys = np.sort(np.asarray(data[0], dtype=np.float64))
        index = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT, delta=delta)
        segments = index.segments
        assert segments[0].start == 0
        assert segments[-1].stop == keys.size
        for previous, current in zip(segments, segments[1:]):
            assert current.start == previous.stop
            assert current.key_low > previous.key_high

    @settings(max_examples=10, deadline=None)
    @given(data=_dataset_strategy())
    def test_index_smaller_with_larger_delta(self, data):
        keys = np.sort(np.asarray(data[0], dtype=np.float64))
        tight = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT, delta=1.0)
        loose = PolyFitIndex.build(keys, aggregate=Aggregate.COUNT, delta=100.0)
        assert loose.num_segments <= tight.num_segments
        assert loose.size_in_bytes() <= tight.size_in_bytes()


class TestNonFiniteEstimatesFailClosed:
    """A non-finite SUM/COUNT estimate is never reported as guaranteed."""

    # Falsifying example of test_absolute_count_guarantee under
    # ``-W error::RuntimeWarning``: two subnormal-scale keys next to 0 make a
    # candidate segment polynomial overflow while the index is built.
    KEYS = np.sort(np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 2.0e-215, 3.2e-285]))

    @pytest.mark.parametrize("eps", [2.0, 5.0, 50.0])
    def test_pinned_subnormal_keys_example(self, eps):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            index = PolyFitIndex.build(self.KEYS, aggregate=Aggregate.COUNT,
                                       guarantee=Guarantee.absolute(eps))
            result = index.query(RangeQuery(0.0, 0.0, Aggregate.COUNT),
                                 Guarantee.absolute(eps))
            batch = index.query_batch(np.array([0.0]), np.array([0.0]),
                                      Guarantee.absolute(eps))
        exact = float(np.count_nonzero(self.KEYS == 0.0))
        assert np.isfinite(result.value)
        assert abs(result.value - exact) <= eps + 1e-6
        assert batch.values[0] == result.value
        assert bool(batch.guaranteed[0]) == result.guaranteed

    @pytest.mark.parametrize(
        "guarantee",
        [None, Guarantee.absolute(5.0), Guarantee.absolute(0.5), Guarantee.relative(0.1)],
        ids=["none", "absolute-met", "absolute-unmet", "relative"],
    )
    def test_resolve_routes_non_finite_to_exact(self, guarantee):
        approx = np.array([np.inf, np.nan, 40.0, -np.inf])
        exact = np.array([11.0, 12.0, 13.0, 14.0])
        result = resolve_batch_certificates(
            approx, error_bound=1.0, guarantee=guarantee,
            exact_for_mask=lambda mask: exact[mask], absolute_fallback=False,
        )
        broken = np.array([True, True, False, True])
        assert result.exact_fallback[broken].all()
        assert result.guaranteed[broken].all()
        assert np.array_equal(result.values[broken], exact[broken])
        assert np.array_equal(result.error_bounds[broken], np.zeros(3))
        assert result.values[2] == 40.0 and not result.exact_fallback[2]

    def test_extreme_nan_keeps_empty_range_semantics(self):
        result = resolve_batch_certificates(
            np.array([np.nan]), error_bound=1.0, guarantee=None,
            exact_for_mask=lambda mask: np.array([0.0])[mask],
            absolute_fallback=False, cumulative=False,
        )
        assert np.isnan(result.values[0]) and not result.exact_fallback[0]

    @staticmethod
    def _overflowed_1d(monkeypatch):
        index = PolyFitIndex.build(np.arange(100.0), aggregate=Aggregate.COUNT, delta=5.0)
        monkeypatch.setattr(index, "_approximate", lambda query: float("inf"))
        monkeypatch.setattr(
            index, "_estimate_snapped", lambda lo, hi: np.full(lo.size, np.inf)
        )
        return (
            lambda guarantee: index.query(RangeQuery(10.0, 19.0, Aggregate.COUNT), guarantee),
            lambda guarantee: index.query_batch(np.array([10.0]), np.array([19.0]), guarantee),
        )

    @staticmethod
    def _overflowed_2d(monkeypatch):
        grid = np.arange(10.0)
        xs, ys = (axis.ravel() for axis in np.meshgrid(grid, grid))
        index = PolyFit2DIndex.build(xs, ys, delta=5.0, grid_resolution=16)
        monkeypatch.setattr(index, "estimate", lambda query: float("inf"))
        monkeypatch.setattr(
            index, "estimate_batch",
            lambda x_lows, x_highs, y_lows, y_highs: np.full(np.size(x_lows), np.inf),
        )
        # The rectangle [2, 3] x [0, 4] holds 2 * 5 = 10 grid points.
        bounds = (2.0, 3.0, 0.0, 4.0)
        return (
            lambda guarantee: index.query(RangeQuery2D(*bounds), guarantee),
            lambda guarantee: index.query_batch(
                *(np.array([bound]) for bound in bounds), guarantee
            ),
        )

    def test_index_paths_fail_closed_on_overflowed_estimates(self, monkeypatch):
        for make_index in (self._overflowed_1d, self._overflowed_2d):
            scalar_query, batch_query = make_index(monkeypatch)
            for guarantee in (None, Guarantee.absolute(100.0), Guarantee.relative(0.5)):
                scalar = scalar_query(guarantee)
                batch = batch_query(guarantee)
                assert scalar.value == batch.values[0] == 10.0
                assert scalar.exact_fallback and batch.exact_fallback[0]


def _bounds_with_edges(rng, keys, size):
    """Random ranges plus out-of-domain, +-inf and single-key bounds."""
    span = keys[-1] - keys[0]
    lows = rng.uniform(keys[0] - 0.1 * span, keys[-1] + 0.1 * span, size)
    highs = lows + rng.exponential(0.05 * span, size)
    edges = np.array([
        [-np.inf, np.inf], [-np.inf, keys[10]], [keys[-10], np.inf],
        [keys[0] - 10.0, keys[0] - 1.0], [keys[-1] + 1.0, keys[-1] + 10.0],
        [keys[5], keys[5]], [-1e300, 1e300], [np.inf, np.inf], [-np.inf, -np.inf],
    ])
    return np.concatenate((edges[:, 0], lows)), np.concatenate((edges[:, 1], highs))


class TestSnappedExactFallback:
    """query_batch snaps once; its fallback and estimate match the public paths."""

    @staticmethod
    def _index(aggregate):
        rng = np.random.default_rng(21)
        keys = np.sort(rng.uniform(0.0, 10_000.0, 3000))
        measures = rng.uniform(1.0, 100.0, 3000)
        return PolyFitIndex.build(
            keys, None if aggregate is Aggregate.COUNT else measures, aggregate, delta=20.0
        ), keys

    @pytest.mark.parametrize(
        "aggregate", [Aggregate.COUNT, Aggregate.SUM, Aggregate.MAX, Aggregate.MIN],
        ids=["count", "sum", "max", "min"],
    )
    def test_fallback_equals_exact_batch_and_estimates_are_bit_identical(self, aggregate):
        index, keys = self._index(aggregate)
        lows, highs = _bounds_with_edges(np.random.default_rng(22), keys, 2000)
        guarantee = Guarantee.relative(0.5)
        result = index.query_batch(lows, highs, guarantee)
        fb = result.exact_fallback
        assert fb.any() and not fb.all()
        np.testing.assert_array_equal(result.values[fb], index.exact_batch(lows[fb], highs[fb]))
        np.testing.assert_array_equal(result.values[~fb], index.estimate_batch(lows, highs)[~fb])
        # A batch of one answers exactly as its slot in the big batch.
        for i in list(range(9)) + [int(np.argmax(fb)), int(np.argmin(fb))]:
            single = index.query_batch(lows[i:i + 1], highs[i:i + 1], guarantee)
            np.testing.assert_array_equal(single.values, result.values[i:i + 1])
            assert single.exact_fallback[0] == fb[i]

    @pytest.mark.parametrize("aggregate", [Aggregate.COUNT, Aggregate.MAX], ids=["count", "max"])
    def test_exact_batch_matches_brute_force(self, aggregate):
        index, keys = self._index(aggregate)
        lows, highs = _bounds_with_edges(np.random.default_rng(23), keys, 300)
        expected = np.array([index.exact(RangeQuery(lo, hi, aggregate))
                             for lo, hi in zip(lows, highs)])
        np.testing.assert_array_equal(index.exact_batch(lows, highs), expected)


class TestNaNBoundsRejected:
    """``[NaN, x]`` and ``[x, NaN]`` are malformed ranges, never answered."""

    NAN_PAIRS = [(np.nan, 5.0), (2.0, np.nan), (np.nan, np.nan)]

    def test_one_key_index_scalar_and_batch(self):
        index = PolyFitIndex.build(np.arange(1000.0), aggregate=Aggregate.COUNT, delta=5.0)
        for low, high in self.NAN_PAIRS:
            with pytest.raises(QueryError):
                index.query(RangeQuery(low, high, Aggregate.COUNT))
            for call in (index.query_batch, index.estimate_batch, index.exact_batch):
                with pytest.raises(QueryError):
                    call(np.array([1.0, low]), np.array([3.0, high]))
        # Infinite bounds stay valid.
        full = index.query_batch(np.array([-np.inf]), np.array([np.inf]))
        assert abs(full.values[0] - 1000.0) <= index.certified_bound

    def test_two_key_index_scalar_and_batch(self):
        grid = np.arange(10.0)
        xs, ys = (axis.ravel() for axis in np.meshgrid(grid, grid))
        index = PolyFit2DIndex.build(xs, ys, delta=5.0, grid_resolution=16)
        for bad in range(4):
            bounds = [0.0, 5.0, 0.0, 5.0]
            bounds[bad] = np.nan
            with pytest.raises(QueryError):
                index.query(RangeQuery2D(*bounds))
            with pytest.raises(QueryError):
                index.query_batch(*(np.array([b]) for b in bounds))
        assert index.exact_batch(*(np.array([b]) for b in (-np.inf, np.inf, -np.inf, np.inf)))[0] == 100

    def test_overlay_batch(self):
        index = UpdatablePolyFitIndex.build(
            np.arange(1000.0), aggregate=Aggregate.COUNT, delta=5.0
        )
        index.insert(np.array([3.5, 700.5]))
        overlay = index.snapshot()
        for low, high in self.NAN_PAIRS:
            for call in (overlay.query_batch, overlay.estimate_batch, overlay.exact_batch):
                with pytest.raises(QueryError):
                    call(np.array([low]), np.array([high]))
        assert overlay.exact_batch(np.array([-np.inf]), np.array([np.inf]))[0] == 1002.0
