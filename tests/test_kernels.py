"""The one NumPy evaluation path on boundary inputs, and the backend report.

Every query kind is answered by one chain of vectorized NumPy passes (snap
bounds to keys, locate the segment or cell, Horner, certificate).  These
tests drive that chain on the inputs where it branches — empty, degenerate
and out-of-domain ranges, a non-empty delta buffer, a 2-D directory without
materialized boundary arrays — against the scalar path and brute force.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Aggregate, PolyFit2DIndex, PolyFitIndex, RangeQuery, RangeQuery2D
from repro.kernels import runtime_info
from repro.stream.updatable import UpdatablePolyFitIndex


class TestKernelSelection:
    """The backend description benchmark artifacts embed."""

    def test_runtime_info_shape(self):
        info = runtime_info()
        assert info["backend"] == "numpy"
        assert info["numpy_version"] == np.__version__
        assert json.loads(json.dumps(info)) == info


class TestFused1D:
    """The 1-D batch chain on degenerate and out-of-domain bounds."""

    @pytest.fixture(scope="class", params=["count", "sum", "max", "min"])
    def index(self, request, tweet_small, hki_small):
        if request.param in ("count", "sum"):
            keys, _ = tweet_small
            measures = None if request.param == "count" else np.abs(np.sin(keys)) * 7.0
            aggregate = Aggregate.COUNT if request.param == "count" else Aggregate.SUM
        else:
            keys, measures = hki_small
            aggregate = Aggregate.MAX if request.param == "max" else Aggregate.MIN
        return PolyFitIndex.build(keys, measures, aggregate, delta=40.0)

    def test_degenerate_and_out_of_domain(self, index, tweet_small, hki_small):
        keys, _ = tweet_small if index.aggregate.is_cumulative else hki_small
        lo, hi = float(keys.min()), float(keys.max())
        lows = np.array([lo - 100.0, hi + 1.0, lo, lo, hi])
        highs = np.array([lo - 50.0, hi + 2.0, lo, hi, hi])
        batch = index.estimate_batch(lows, highs)
        scalar = np.array([
            index.estimate(RangeQuery(low, high, index.aggregate))
            for low, high in zip(lows, highs)
        ])
        assert np.allclose(batch, scalar, equal_nan=True)
        # Independent oracle: every estimate is within the certified bound
        # of the exact answer; empty MAX/MIN ranges are NaN on both sides.
        exact = index.exact_batch(lows, highs)
        assert np.array_equal(np.isnan(batch), np.isnan(exact))
        present = ~np.isnan(exact)
        assert np.all(
            np.abs(batch[present] - exact[present]) <= index.certified_bound + 1e-6
        )


class TestFused1DDelta:
    """The batch chain under a non-empty delta buffer (overlay path)."""

    def test_overlay_matches_scalar_after_inserts(self, tweet_small):
        keys, _ = tweet_small
        index = UpdatablePolyFitIndex.build(keys, delta=40.0)
        rng = np.random.default_rng(23)
        inserted = rng.uniform(keys.min(), keys.max(), 200)
        index.insert(inserted)
        lows = rng.uniform(keys.min(), keys.max(), 500)
        highs = lows + rng.uniform(0, 20, 500)
        combined = index.estimate_batch(lows, highs)
        # The overlay adds the buffer's exact contribution on top of the
        # base estimate: the difference is exactly the in-range insert count.
        base = index.base.estimate_batch(lows, highs)
        in_range = np.array([
            np.count_nonzero((inserted >= low) & (inserted <= high))
            for low, high in zip(lows, highs)
        ])
        assert np.allclose(combined - base, in_range)
        scalar = np.array([
            index.query(RangeQuery(low, high, Aggregate.COUNT)).value
            for low, high in zip(lows, highs)
        ])
        assert np.allclose(combined, scalar)


class TestFused2D:
    """The 2-D corner chain when the directory must locate by descent."""

    @pytest.fixture(scope="class")
    def clustered_index(self):
        rng = np.random.default_rng(29)
        xs = np.concatenate(
            [rng.normal(0, 1, 3000), rng.normal(15, 0.4, 3000), rng.uniform(-20, 30, 1500)]
        )
        ys = np.concatenate(
            [rng.normal(4, 1, 3000), rng.normal(-10, 0.6, 3000), rng.uniform(-15, 15, 1500)]
        )
        return PolyFit2DIndex.build(xs, ys, delta=80.0, grid_resolution=64)

    def test_descent_fallback_matches(self, clustered_index):
        directory = clustered_index.directory
        rng = np.random.default_rng(31)
        x_lows = rng.uniform(-20, 25, 400)
        x_highs = x_lows + rng.uniform(0, 15, 400)
        y_lows = rng.uniform(-15, 10, 400)
        y_highs = y_lows + rng.uniform(0, 10, 400)
        reference = clustered_index.estimate_batch(x_lows, x_highs, y_lows, y_highs)
        saved = directory._x_boundaries, directory._y_boundaries
        try:
            # Deep trees carry no boundary arrays; locate falls back to the
            # midpoint descent, which must pick the same leaves.
            directory._x_boundaries = None
            directory._y_boundaries = None
            descended = clustered_index.estimate_batch(x_lows, x_highs, y_lows, y_highs)
        finally:
            directory._x_boundaries, directory._y_boundaries = saved
        assert np.array_equal(reference, descended, equal_nan=True)
        scalar = np.array([
            clustered_index.estimate(RangeQuery2D(*bounds))
            for bounds in zip(x_lows, x_highs, y_lows, y_highs)
        ])
        assert np.allclose(reference, scalar)

