"""Degraded fleet reads: answers stay certified when partitions fail.

The property under test (router ``failure_policy="degrade"``): when a
partition's scatter call fails, the merged answer for every query whose
clip touched that partition is still returned, with its certified bound
*widened* to cover anything the missing partition could have contributed —
so ``|answer - truth| <= error_bound`` keeps holding (truth from a healthy
monolithic oracle), the result is flagged ``degraded`` per query and
``partial`` overall, and the failed partition ids are surfaced.  Queries
whose clips avoided the failed partition are answered bit-identically to a
healthy fleet.  ``fail_fast`` (the default) propagates the failure instead.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Aggregate, Guarantee, IndexFleet, PolyFitIndex
from repro.config import FitConfig, IndexConfig, SegmentationConfig
from repro.errors import DataError, QueryError, SerializationError
from repro.queries.types import BatchQueryResult, GuaranteeKind
from repro.testing.faults import FlakyView

FAST = IndexConfig(fit=FitConfig(degree=1), segmentation=SegmentationConfig(delta=25.0))
AGGREGATES = [Aggregate.COUNT, Aggregate.SUM, Aggregate.MAX, Aggregate.MIN]


def _dataset(n=4000, seed=21):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.uniform(0.0, 1000.0, size=n))
    measures = rng.uniform(1.0, 40.0, size=n)
    return keys, measures


def _fleet_and_oracle(aggregate, keys, measures, *, failure_policy="degrade"):
    m = None if aggregate is Aggregate.COUNT else measures
    fleet = IndexFleet.build(
        keys, m, aggregate,
        delta=25.0, config=FAST, num_partitions=4,
        failure_policy=failure_policy,
    )
    oracle = PolyFitIndex.build(keys, m, aggregate=aggregate, delta=25.0, config=FAST)
    return fleet, oracle


def _fail_partition(snapshot, pid):
    """Replace one healthy view with a failing one, post reserve-capture."""
    router = getattr(snapshot, "_router", snapshot)
    flaky = FlakyView(router._views[pid])
    router._views[pid] = flaky
    router._engines[pid] = flaky
    return flaky


def _queries():
    lows = np.array([0.0, 100.0, 300.0, 600.0, 950.0, -np.inf, 400.0])
    highs = np.array([1500.0, 220.0, 480.0, 740.0, 1000.0, np.inf, 401.0])
    return lows, highs


class TestDegradedReads:
    @pytest.mark.parametrize("aggregate", AGGREGATES)
    @pytest.mark.parametrize(
        "guarantee", [None, Guarantee.absolute(5.0), Guarantee.relative(0.1)]
    )
    def test_answer_contains_truth_and_flags_surface(self, aggregate, guarantee):
        keys, measures = _dataset()
        fleet, oracle = _fleet_and_oracle(aggregate, keys, measures)
        router = fleet.snapshot()
        _fail_partition(router, 1)
        lows, highs = _queries()
        result = router.query_batch(lows, highs, guarantee)
        assert result.partial
        assert result.failed_partitions == (1,)
        assert result.degraded.any()
        truth = oracle.exact_batch(lows, highs)
        finite = np.isfinite(result.error_bounds) & ~np.isnan(truth)
        assert np.all(
            np.abs(result.values[finite] - truth[finite])
            <= result.error_bounds[finite] + 1e-9
        )
        # Certification is never claimed for free on degraded queries.
        if guarantee is not None and guarantee.kind is GuaranteeKind.ABSOLUTE:
            claimed = result.guaranteed & result.degraded
            assert np.all(
                result.error_bounds[claimed] <= guarantee.epsilon + 1e-9
            )

    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_untouched_queries_bit_identical_to_healthy(self, aggregate):
        keys, measures = _dataset(seed=22)
        fleet, _ = _fleet_and_oracle(aggregate, keys, measures)
        healthy = fleet.snapshot()
        degraded = fleet.snapshot()
        _fail_partition(degraded, 2)
        lows, highs = _queries()
        want = healthy.query_batch(lows, highs, Guarantee.relative(0.1))
        got = degraded.query_batch(lows, highs, Guarantee.relative(0.1))
        clean = ~got.degraded
        assert clean.any()
        assert np.array_equal(got.values[clean], want.values[clean], equal_nan=True)
        assert np.array_equal(got.guaranteed[clean], want.guaranteed[clean])
        assert np.array_equal(
            got.error_bounds[clean], want.error_bounds[clean], equal_nan=True
        )

    def test_fail_fast_propagates(self):
        keys, measures = _dataset(seed=23)
        fleet, _ = _fleet_and_oracle(
            Aggregate.COUNT, keys, measures, failure_policy="fail_fast"
        )
        router = fleet.snapshot()
        _fail_partition(router, 0)
        lows, highs = _queries()
        with pytest.raises(SerializationError):
            router.query_batch(lows, highs)

    def test_estimate_and_exact_stay_fail_fast_under_degrade(self):
        # Bare arrays carry no bound column to widen; a partial answer there
        # would be a silent wrong answer, so these propagate even in degrade.
        keys, measures = _dataset(seed=24)
        fleet, _ = _fleet_and_oracle(Aggregate.COUNT, keys, measures)
        router = fleet.snapshot()
        _fail_partition(router, 0)
        lows, highs = _queries()
        with pytest.raises(SerializationError):
            router.estimate_batch(lows, highs)
        with pytest.raises(SerializationError):
            router.exact_batch(lows, highs)

    def test_degrade_with_no_failures_is_bit_identical(self):
        keys, measures = _dataset(seed=25)
        fleet_d, _ = _fleet_and_oracle(Aggregate.SUM, keys, measures)
        fleet_f, _ = _fleet_and_oracle(
            Aggregate.SUM, keys, measures, failure_policy="fail_fast"
        )
        lows, highs = _queries()
        for guarantee in (None, Guarantee.absolute(5.0), Guarantee.relative(0.1)):
            a = fleet_d.snapshot().query_batch(lows, highs, guarantee)
            b = fleet_f.snapshot().query_batch(lows, highs, guarantee)
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.guaranteed, b.guaranteed)
            assert np.array_equal(a.error_bounds, b.error_bounds)
            assert not a.partial and a.failed_partitions == ()

    def test_transient_failure_recovers(self):
        keys, measures = _dataset(seed=26)
        fleet, _ = _fleet_and_oracle(Aggregate.COUNT, keys, measures)
        router = fleet.snapshot()
        flaky = _fail_partition(router, 1)
        flaky.failing = False
        flaky.fail_next = 1
        lows, highs = _queries()
        first = router.query_batch(lows, highs)
        assert first.partial
        second = router.query_batch(lows, highs)
        assert not second.partial and not second.degraded.any()

    @pytest.mark.parametrize("aggregate", [Aggregate.COUNT, Aggregate.SUM])
    @pytest.mark.parametrize(
        "guarantee", [None, Guarantee.absolute(1e9), Guarantee.relative(0.1)]
    )
    def test_overflowed_partial_fails_closed(self, aggregate, guarantee, monkeypatch):
        # An overflowed SUM/COUNT partial merges to +inf, which would pass
        # both the absolute budget and the relative certificate; the
        # degraded resolver must route it to the exact path instead.
        keys, measures = _dataset(seed=28)
        fleet, oracle = _fleet_and_oracle(aggregate, keys, measures)
        router = fleet.snapshot()
        _fail_partition(router, 3)
        engines = getattr(router, "_router", router)._engines
        monkeypatch.setattr(
            engines[0], "estimate_batch", lambda lows, highs: np.full(lows.size, np.inf)
        )
        lows, highs = _queries()
        result = router.query_batch(lows, highs, guarantee)
        assert result.partial and result.exact_fallback.any()
        assert np.all(np.isfinite(result.values))
        truth = oracle.exact_batch(lows, highs)
        finite = np.isfinite(result.error_bounds)
        assert np.all(
            np.abs(result.values[finite] - truth[finite])
            <= result.error_bounds[finite] + 1e-9
        )

    def test_rejects_unknown_policy(self):
        keys, measures = _dataset(seed=27)
        with pytest.raises(DataError, match="failure_policy"):
            IndexFleet.build(
                keys, None, Aggregate.COUNT,
                delta=25.0, config=FAST, num_partitions=2,
                failure_policy="retry",
            )

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        pid=st.integers(0, 3),
        aggregate=st.sampled_from(AGGREGATES),
    )
    def test_containment_property(self, seed, pid, aggregate):
        rng = np.random.default_rng(seed)
        keys, measures = _dataset(n=1200, seed=seed)
        fleet, oracle = _fleet_and_oracle(aggregate, keys, measures)
        router = fleet.snapshot()
        _fail_partition(router, pid)
        lows = rng.uniform(-50.0, 1050.0, size=24)
        highs = lows + rng.uniform(0.0, 500.0, size=24)
        result = router.query_batch(lows, highs)
        truth = oracle.exact_batch(lows, highs)
        finite = np.isfinite(result.error_bounds) & ~np.isnan(truth)
        assert np.all(
            np.abs(result.values[finite] - truth[finite])
            <= result.error_bounds[finite] + 1e-9
        )
        # Un-degraded queries are exactly the healthy-path answers.
        clean = ~result.degraded
        healthy = fleet.snapshot().query_batch(lows, highs)
        assert np.array_equal(
            result.values[clean], healthy.values[clean], equal_nan=True
        )


class TestBatchResultFields:
    def test_partial_property_and_defaults(self):
        values = np.array([1.0, 2.0])
        result = BatchQueryResult(
            values=values,
            guaranteed=np.array([True, True]),
            exact_fallback=np.array([False, False]),
            error_bounds=np.array([0.1, 0.2]),
        )
        assert not result.partial
        assert result.failed_partitions == ()
        assert result.degraded.shape == values.shape

    def test_degraded_shape_checked(self):
        with pytest.raises(QueryError):
            BatchQueryResult(
                values=np.array([1.0, 2.0]),
                guaranteed=np.array([True, True]),
                exact_fallback=np.array([False, False]),
                error_bounds=np.array([0.1, 0.2]),
                degraded=np.array([True]),
            )
