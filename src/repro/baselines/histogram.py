"""Histogram-based selectivity estimators.

* :class:`EquiWidthHistogram` — the classic fixed-width bucket histogram.
* :class:`EntropyHistogram` — an entropy-guided histogram in the spirit of
  To, Chiang and Shahabi's entropy-based histograms (the paper's "Hist"
  heuristic): bucket boundaries are chosen greedily so that the mass of each
  bucket is as close to uniform as possible, which maximizes the entropy of
  the bucket-mass distribution for a fixed bucket budget.

Both estimators answer range COUNT/SUM queries by summing fully covered
buckets and linearly interpolating the two boundary buckets (the continuous
values assumption).  Neither offers a deterministic error guarantee; they are
the heuristic comparison points of Figure 20.
"""

from __future__ import annotations

import numpy as np

from ..config import Aggregate
from ..errors import DataError, NotSupportedError, QueryError

__all__ = ["EquiWidthHistogram", "EntropyHistogram"]


class _BaseHistogram:
    """Shared machinery: bucket edges + per-bucket mass, interpolated queries."""

    def __init__(self, edges: np.ndarray, masses: np.ndarray) -> None:
        if edges.ndim != 1 or masses.ndim != 1 or edges.size != masses.size + 1:
            raise DataError("edges must have exactly one more entry than masses")
        self._edges = edges
        self._masses = masses
        self._cumulative = np.concatenate(([0.0], np.cumsum(masses)))

    @property
    def num_buckets(self) -> int:
        """Number of buckets."""
        return int(self._masses.size)

    @property
    def edges(self) -> np.ndarray:
        """Bucket edges (ascending, length ``num_buckets + 1``)."""
        return self._edges.copy()

    @property
    def masses(self) -> np.ndarray:
        """Per-bucket aggregated mass."""
        return self._masses.copy()

    def _cumulative_at(self, key: float) -> float:
        """Mass of all records with key <= ``key`` under the uniform-bucket model."""
        if key <= self._edges[0]:
            return 0.0
        if key >= self._edges[-1]:
            return float(self._cumulative[-1])
        bucket = int(np.searchsorted(self._edges, key, side="right")) - 1
        bucket = min(max(bucket, 0), self.num_buckets - 1)
        left, right = self._edges[bucket], self._edges[bucket + 1]
        fraction = 0.0 if right == left else (key - left) / (right - left)
        return float(self._cumulative[bucket] + fraction * self._masses[bucket])

    def range_estimate(self, low: float, high: float) -> float:
        """Estimated aggregate over ``[low, high]``."""
        if not low <= high:
            raise QueryError("invalid range")
        return self._cumulative_at(high) - self._cumulative_at(low)

    def _cumulative_at_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_cumulative_at` for N keys at once."""
        keys = np.asarray(keys, dtype=np.float64)
        bucket = np.clip(
            np.searchsorted(self._edges, keys, side="right") - 1, 0, self.num_buckets - 1
        )
        left = self._edges[bucket]
        width = self._edges[bucket + 1] - left
        with np.errstate(invalid="ignore", divide="ignore"):
            fraction = np.where(width > 0, (keys - left) / width, 0.0)
        inside = self._cumulative[bucket] + fraction * self._masses[bucket]
        below = keys <= self._edges[0]
        above = keys >= self._edges[-1]
        return np.where(below, 0.0, np.where(above, self._cumulative[-1], inside))

    def range_estimate_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`range_estimate` over N ranges in O(1) NumPy calls."""
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        if lows.shape != highs.shape:
            raise QueryError("lows and highs must have matching shapes")
        if not np.all(lows <= highs):
            raise QueryError("invalid range: need low <= high")
        return self._cumulative_at_batch(highs) - self._cumulative_at_batch(lows)

    def size_in_bytes(self) -> int:
        """Footprint of edges and masses."""
        return int(self._edges.nbytes + self._masses.nbytes)


class EquiWidthHistogram(_BaseHistogram):
    """Fixed-width bucket histogram over one key."""

    def __init__(
        self,
        keys: np.ndarray,
        measures: np.ndarray | None = None,
        *,
        num_buckets: int = 128,
        aggregate: Aggregate = Aggregate.COUNT,
    ) -> None:
        keys = np.asarray(keys, dtype=np.float64)
        if keys.size == 0:
            raise DataError("dataset is empty")
        if num_buckets < 1:
            raise DataError("num_buckets must be >= 1")
        if aggregate not in (Aggregate.COUNT, Aggregate.SUM):
            raise NotSupportedError("histograms support COUNT and SUM only")
        if measures is None or aggregate is Aggregate.COUNT:
            measures = np.ones_like(keys)
        measures = np.asarray(measures, dtype=np.float64)
        if measures.size != keys.size:
            raise DataError("keys and measures must have equal length")
        edges = np.linspace(keys.min(), keys.max(), num_buckets + 1)
        # Guard against a degenerate single-valued key domain.
        if edges[0] == edges[-1]:
            edges = np.array([edges[0], edges[0] + 1.0])
        masses, _ = np.histogram(keys, bins=edges, weights=measures)
        super().__init__(edges=edges, masses=masses.astype(np.float64))


class EntropyHistogram(_BaseHistogram):
    """Entropy-guided histogram (the paper's "Hist" heuristic).

    Bucket boundaries are placed on the empirical quantiles of the aggregated
    mass, which equalizes per-bucket mass and therefore maximizes the entropy
    of the bucket-mass distribution for the given bucket budget.  With skewed
    data this concentrates buckets where the mass is, exactly the behaviour
    entropy-based histograms are designed for.
    """

    def __init__(
        self,
        keys: np.ndarray,
        measures: np.ndarray | None = None,
        *,
        num_buckets: int = 128,
        aggregate: Aggregate = Aggregate.COUNT,
    ) -> None:
        keys = np.asarray(keys, dtype=np.float64)
        if keys.size == 0:
            raise DataError("dataset is empty")
        if num_buckets < 1:
            raise DataError("num_buckets must be >= 1")
        if aggregate not in (Aggregate.COUNT, Aggregate.SUM):
            raise NotSupportedError("histograms support COUNT and SUM only")
        if measures is None or aggregate is Aggregate.COUNT:
            measures = np.ones_like(keys)
        measures = np.asarray(measures, dtype=np.float64)
        if measures.size != keys.size:
            raise DataError("keys and measures must have equal length")

        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        sorted_measures = measures[order]
        cumulative = np.cumsum(sorted_measures)
        total = cumulative[-1]
        if total <= 0:
            edges = np.linspace(sorted_keys[0], sorted_keys[-1] or 1.0, num_buckets + 1)
            masses = np.zeros(num_buckets)
            super().__init__(edges=edges, masses=masses)
            return

        # Mass quantile targets: equal mass per bucket.
        targets = np.linspace(0.0, total, num_buckets + 1)[1:-1]
        cut_positions = np.searchsorted(cumulative, targets, side="left")
        cut_keys = sorted_keys[np.clip(cut_positions, 0, sorted_keys.size - 1)]
        edges = np.concatenate(([sorted_keys[0]], cut_keys, [sorted_keys[-1]]))
        edges = np.maximum.accumulate(edges)
        # Collapse duplicate edges introduced by heavy single keys.
        edges = np.unique(edges)
        if edges.size < 2:
            edges = np.array([sorted_keys[0], sorted_keys[0] + 1.0])
        masses, _ = np.histogram(keys, bins=edges, weights=measures)
        super().__init__(edges=edges, masses=masses.astype(np.float64))

    @property
    def bucket_entropy(self) -> float:
        """Shannon entropy (nats) of the normalized bucket-mass distribution."""
        total = self._masses.sum()
        if total <= 0:
            return 0.0
        probabilities = self._masses[self._masses > 0] / total
        return float(-(probabilities * np.log(probabilities)).sum())
