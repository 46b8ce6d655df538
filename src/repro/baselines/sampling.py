"""Sampling-based estimators: S2 sequential sampling and the S-tree heuristic.

* :class:`SequentialSampler` (S2) — sequential sampling in the spirit of
  Haas & Swami: keep drawing records uniformly at random until the running
  confidence interval of the estimated selectivity is tight enough for the
  requested relative error at the requested confidence.  The guarantee is
  *probabilistic* (e.g. rel <= 0.01 with probability 0.9), matching the
  paper's description of S2.
* :class:`SampledBTree` (S-tree) — a B+tree built over a uniform sample of
  the data; range aggregates are answered from the sample and scaled by the
  sampling ratio.  Purely heuristic (no guarantee), used in Figure 20.
"""

from __future__ import annotations

import numpy as np

from ..config import Aggregate
from ..errors import DataError, NotSupportedError, QueryError
from .btree import BPlusTree

__all__ = ["SequentialSampler", "SampledBTree"]


class SequentialSampler:
    """S2-style sequential sampling estimator for COUNT/SUM queries.

    Parameters
    ----------
    keys, measures:
        The dataset; two-key mode is enabled by passing ``second_keys``.
    relative_error:
        Target relative error of the estimate.
    confidence:
        Probability with which the target must hold (paper default 0.9).
    batch_size:
        Records drawn per sampling round.
    max_fraction:
        Hard cap on the sampled fraction; reaching it means the estimator
        answers from the full scan (exact) for that query.
    """

    def __init__(
        self,
        keys: np.ndarray,
        measures: np.ndarray | None = None,
        second_keys: np.ndarray | None = None,
        *,
        relative_error: float = 0.01,
        confidence: float = 0.9,
        batch_size: int = 256,
        max_fraction: float = 1.0,
        seed: int = 99,
    ) -> None:
        self._keys = np.asarray(keys, dtype=np.float64)
        if self._keys.size == 0:
            raise DataError("dataset is empty")
        if measures is None:
            measures = np.ones_like(self._keys)
        self._measures = np.asarray(measures, dtype=np.float64)
        if self._measures.size != self._keys.size:
            raise DataError("keys and measures must have equal length")
        self._second_keys = (
            np.asarray(second_keys, dtype=np.float64) if second_keys is not None else None
        )
        if self._second_keys is not None and self._second_keys.size != self._keys.size:
            raise DataError("second_keys must match keys length")
        if not 0 < relative_error:
            raise DataError("relative_error must be positive")
        if not 0 < confidence < 1:
            raise DataError("confidence must be in (0, 1)")
        if batch_size <= 0:
            raise DataError("batch_size must be positive")
        if not 0 < max_fraction <= 1.0:
            raise DataError("max_fraction must be in (0, 1]")
        self._relative_error = relative_error
        self._confidence = confidence
        self._batch_size = batch_size
        self._max_fraction = max_fraction
        self._rng = np.random.default_rng(seed)
        # Normal quantile for the two-sided confidence interval.
        from scipy.stats import norm

        self._z = float(norm.ppf(0.5 + confidence / 2.0))

    @property
    def relative_error(self) -> float:
        """Target relative error."""
        return self._relative_error

    def _selection_mask_1d(self, low: float, high: float, indices: np.ndarray) -> np.ndarray:
        sampled_keys = self._keys[indices]
        return (sampled_keys >= low) & (sampled_keys <= high)

    def _selection_mask_2d(
        self,
        x_low: float,
        x_high: float,
        y_low: float,
        y_high: float,
        indices: np.ndarray,
    ) -> np.ndarray:
        if self._second_keys is None:
            raise NotSupportedError("two-key query on a one-key sampler")
        xs = self._keys[indices]
        ys = self._second_keys[indices]
        return (xs >= x_low) & (xs <= x_high) & (ys >= y_low) & (ys <= y_high)

    def _estimate(self, mask_fn, aggregate: Aggregate) -> tuple[float, int]:
        """Run sampling rounds until the stopping rule fires.

        Returns the estimate and the number of sampled records.
        """
        if aggregate not in (Aggregate.COUNT, Aggregate.SUM):
            raise NotSupportedError("sampling estimator supports COUNT and SUM only")
        n = self._keys.size
        max_samples = max(int(self._max_fraction * n), self._batch_size)
        sampled = 0
        hits = 0.0
        hit_squares = 0.0
        while sampled < max_samples:
            batch = self._rng.integers(0, n, size=self._batch_size)
            mask = mask_fn(batch)
            if aggregate is Aggregate.COUNT:
                contributions = mask.astype(np.float64)
            else:
                contributions = np.where(mask, self._measures[batch], 0.0)
            hits += float(contributions.sum())
            hit_squares += float((contributions**2).sum())
            sampled += self._batch_size
            mean = hits / sampled
            variance = max(hit_squares / sampled - mean**2, 0.0)
            if mean > 0:
                half_width = self._z * np.sqrt(variance / sampled)
                if half_width <= self._relative_error * mean:
                    break
        estimate = (hits / sampled) * n if sampled else 0.0
        return estimate, sampled

    def range_estimate(self, low: float, high: float, aggregate: Aggregate = Aggregate.COUNT) -> float:
        """Estimate a one-key range aggregate."""
        if not low <= high:
            raise QueryError("invalid range")
        estimate, _ = self._estimate(
            lambda idx: self._selection_mask_1d(low, high, idx), aggregate
        )
        return estimate

    def rectangle_estimate(
        self,
        x_low: float,
        x_high: float,
        y_low: float,
        y_high: float,
        aggregate: Aggregate = Aggregate.COUNT,
    ) -> float:
        """Estimate a two-key rectangle aggregate."""
        if not (x_low <= x_high and y_low <= y_high):
            raise QueryError("invalid rectangle bounds")
        estimate, _ = self._estimate(
            lambda idx: self._selection_mask_2d(x_low, x_high, y_low, y_high, idx), aggregate
        )
        return estimate

    def range_estimate_batch(
        self, lows: np.ndarray, highs: np.ndarray, aggregate: Aggregate = Aggregate.COUNT
    ) -> np.ndarray:
        """Batch of :meth:`range_estimate` calls.

        S2's stopping rule is adaptive per query (the sample size depends on
        the running confidence interval), so the batch form is a loop — the
        honest apples-to-apples comparison for a method with no flat layout.
        :meth:`range_estimate_batch_two_pass` trades the fully sequential
        rule for a vectorized two-pass variant of the same guarantee.
        """
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        if lows.shape != highs.shape:
            raise QueryError("lows and highs must have matching shapes")
        return np.array(
            [self.range_estimate(lows[i], highs[i], aggregate) for i in range(lows.size)],
            dtype=np.float64,
        )

    def range_estimate_batch_two_pass(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        aggregate: Aggregate = Aggregate.COUNT,
        *,
        query_chunk: int = 256,
        sample_block: int = 65536,
    ) -> np.ndarray:
        """Batched two-pass variant of the sequential stopping rule.

        The sequential rule re-checks the confidence interval after every
        ``batch_size`` draws, which forces a per-query loop.  The two-pass
        (Cochran-style) variant vectorizes it across the whole batch:

        1. **Round 1** — one shared pilot of ``batch_size`` uniform draws,
           evaluated against *every* query at once (a broadcasted selection
           mask).  Per query, the pilot mean and variance determine the
           sample size the stopping rule would need:
           ``n_i = ceil((z * sd / (rel * mean))^2)``, clipped to the same
           ``[batch_size, max_fraction * n]`` range the sequential rule
           operates in (a non-positive pilot mean — nothing hit yet — takes
           the cap, exactly like a sequential run that never tightens).
        2. **Round 2 (single adaptive top-up)** — one further shared draw of
           ``max(n_i) - batch_size`` records; query ``i``'s estimate uses
           the first ``n_i`` contributions of the shared pool, so every
           query stops at *its own* adaptive size while the whole batch
           costs two vectorized rounds.

        Estimates carry the same probabilistic guarantee as the sequential
        oracle (relative error <= ``relative_error`` with probability
        ~``confidence``; the pilot-estimated variance makes it approximate
        in the same way the oracle's running variance does).

        ``query_chunk`` bounds how many queries share one contribution
        matrix and ``sample_block`` bounds its sample axis, keeping peak
        memory at ``O(query_chunk * sample_block)`` regardless of how large
        the top-up gets.
        """
        if aggregate not in (Aggregate.COUNT, Aggregate.SUM):
            raise NotSupportedError("sampling estimator supports COUNT and SUM only")
        lows = np.atleast_1d(np.asarray(lows, dtype=np.float64))
        highs = np.atleast_1d(np.asarray(highs, dtype=np.float64))
        if lows.shape != highs.shape or lows.ndim != 1:
            raise QueryError("lows and highs must be equal-length 1-D arrays")
        if query_chunk < 1 or sample_block < 1:
            raise QueryError("query_chunk and sample_block must be >= 1")
        n = self._keys.size
        max_samples = max(int(self._max_fraction * n), self._batch_size)
        estimates = np.empty(lows.size, dtype=np.float64)
        for start in range(0, lows.size, query_chunk):
            stop = min(start + query_chunk, lows.size)
            estimates[start:stop] = self._two_pass_chunk(
                lows[start:stop], highs[start:stop], aggregate,
                max_samples=max_samples, sample_block=sample_block,
            )
        return estimates

    def _contributions(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        indices: np.ndarray,
        aggregate: Aggregate,
    ) -> np.ndarray:
        """(queries, samples) contribution matrix for one shared draw."""
        sampled_keys = self._keys[indices]
        mask = (sampled_keys >= lows[:, None]) & (sampled_keys <= highs[:, None])
        if aggregate is Aggregate.COUNT:
            return mask.astype(np.float64)
        return np.where(mask, self._measures[indices], 0.0)

    def _two_pass_chunk(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        aggregate: Aggregate,
        *,
        max_samples: int,
        sample_block: int,
    ) -> np.ndarray:
        n = self._keys.size
        pilot_size = min(self._batch_size, max_samples)
        pilot = self._rng.integers(0, n, size=pilot_size)
        contributions = self._contributions(lows, highs, pilot, aggregate)
        sums = contributions.sum(axis=1)
        square_sums = (contributions**2).sum(axis=1)
        mean = sums / pilot_size
        variance = np.maximum(square_sums / pilot_size - mean**2, 0.0)
        # Sample size at which the sequential rule's interval closes:
        # z * sqrt(var / n_i) <= rel * mean  =>  n_i >= z^2 var / (rel mean)^2.
        with np.errstate(divide="ignore", invalid="ignore"):
            needed = np.ceil(
                (self._z**2) * variance / (self._relative_error * mean) ** 2
            )
        needed = np.where(mean > 0, needed, float(max_samples))
        needed = np.clip(needed, pilot_size, max_samples).astype(np.int64)
        top_up = int(needed.max()) - pilot_size
        if top_up > 0:
            # Single shared top-up pool; query i consumes its first
            # (needed_i - pilot_size) contributions.  Blocked accumulation
            # keeps the transient matrix at O(queries x sample_block).
            remaining = needed - pilot_size
            for block_start in range(0, top_up, sample_block):
                block_stop = min(block_start + sample_block, top_up)
                draw = self._rng.integers(0, n, size=block_stop - block_start)
                contributions = self._contributions(lows, highs, draw, aggregate)
                take = np.clip(remaining - block_start, 0, block_stop - block_start)
                active = take > 0
                if not np.any(active):
                    break
                prefix = np.cumsum(contributions[active], axis=1)
                sums[active] += prefix[np.arange(np.count_nonzero(active)), take[active] - 1]
        return (sums / needed) * n

    def sampled_records_for(self, low: float, high: float, aggregate: Aggregate = Aggregate.COUNT) -> int:
        """Number of samples the stopping rule consumed for this query."""
        _, sampled = self._estimate(
            lambda idx: self._selection_mask_1d(low, high, idx), aggregate
        )
        return sampled


class SampledBTree:
    """S-tree heuristic: a B+tree over a uniform sample, scaled at query time."""

    def __init__(
        self,
        keys: np.ndarray,
        measures: np.ndarray | None = None,
        *,
        sample_fraction: float = 0.01,
        branching_factor: int = 64,
        seed: int = 7,
    ) -> None:
        keys = np.asarray(keys, dtype=np.float64)
        if keys.size == 0:
            raise DataError("dataset is empty")
        if not 0 < sample_fraction <= 1.0:
            raise DataError("sample_fraction must be in (0, 1]")
        if measures is None:
            measures = np.ones_like(keys)
        measures = np.asarray(measures, dtype=np.float64)
        if measures.size != keys.size:
            raise DataError("keys and measures must have equal length")
        rng = np.random.default_rng(seed)
        sample_size = max(1, int(round(sample_fraction * keys.size)))
        chosen = rng.choice(keys.size, size=sample_size, replace=False)
        order = np.argsort(keys[chosen], kind="stable")
        sampled_keys = keys[chosen][order]
        sampled_measures = measures[chosen][order]
        self._tree = BPlusTree.from_sorted(
            sampled_keys, sampled_measures, branching_factor=branching_factor
        )
        self._scale = keys.size / sample_size
        self._sample_fraction = sample_fraction

    @property
    def sample_fraction(self) -> float:
        """Fraction of records retained in the sample."""
        return self._sample_fraction

    @property
    def scale(self) -> float:
        """Scale-up factor applied to sample aggregates."""
        return self._scale

    def range_estimate(self, low: float, high: float, aggregate: Aggregate = Aggregate.COUNT) -> float:
        """Estimate a one-key COUNT/SUM by scaling the sample aggregate."""
        if aggregate not in (Aggregate.COUNT, Aggregate.SUM):
            raise NotSupportedError("S-tree supports COUNT and SUM only")
        raw = self._tree.range_aggregate(low, high, aggregate.value)
        return raw * self._scale

    def range_estimate_batch(
        self, lows: np.ndarray, highs: np.ndarray, aggregate: Aggregate = Aggregate.COUNT
    ) -> np.ndarray:
        """Batch of :meth:`range_estimate` calls (per-query tree walks)."""
        if aggregate not in (Aggregate.COUNT, Aggregate.SUM):
            raise NotSupportedError("S-tree supports COUNT and SUM only")
        raw = self._tree.range_aggregate_batch(lows, highs, aggregate.value)
        return raw * self._scale

    def size_in_bytes(self) -> int:
        """Footprint of the underlying sampled B+tree."""
        return self._tree.size_in_bytes()
