"""Two-key cumulative count function ``CFcount(u, v)`` (Definition 5).

``CFcount(u, v)`` counts records with first key ``<= u`` and second key
``<= v``.  A rectangle COUNT query is then answered by four-corner
inclusion-exclusion.  The exact representation used here is a sorted-column
structure that answers corner evaluations in ``O(log n)`` per corner via a
merge-based dominance count, plus a dense prefix-sum grid for bulk sampling
during surface fitting.

For *batch* workloads the per-query scan is replaced by an offline sweep
over the x-sorted point arrays (:meth:`Cumulative2D.range_count_batch`):
each rectangle reduces to four prefix dominance counts
``D(k, r) = #{i < k : rank(y_i) < r}``, and those are answered by a
Fenwick-style merge tree (:class:`_PrefixMergeTree`) built once over the
y-ranks in x-order — ``log n`` levels of block-sorted arrays, with every
level answering all pending queries in a single ``searchsorted``.  The whole
workload costs O((n + q) log n) inside a handful of NumPy passes instead of
O(q) Python-level scans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError, QueryError

__all__ = ["Cumulative2D", "build_cumulative_2d"]


class _PrefixMergeTree:
    """Offline prefix dominance counting over a permutation of ``[0, n)``.

    Level ``l`` stores the rank array sorted inside blocks of ``2**l``
    elements; a prefix ``[0, k)`` decomposes into one block per set bit of
    ``k`` (the Fenwick decomposition), so ``D(k, r) = #{i < k : rank_i < r}``
    is the sum of at most ``log n`` within-block counts.  Blocks at one level
    are disambiguated by adding ``block_index * (n + 2)`` to both the stored
    ranks and the query thresholds, which makes the whole level one globally
    sorted array — every level then answers all queries with a single
    ``searchsorted`` call.

    With ``weights`` the tree also stores within-block prefix sums aligned to
    the sorted order, turning the same machinery into weighted dominance
    *sums* for the cumulative-SUM surface.
    """

    __slots__ = ("_n", "_offset", "_levels")

    def __init__(self, ranks: np.ndarray, weights: np.ndarray | None = None) -> None:
        n = int(ranks.size)
        self._n = n
        self._offset = np.int64(n + 2)
        height = max(1, (n - 1).bit_length() if n > 1 else 1)
        padded = 1 << height
        rank_pad = np.full(padded, n, dtype=np.int64)
        rank_pad[:n] = ranks
        weight_pad = None
        if weights is not None:
            weight_pad = np.zeros(padded, dtype=np.float64)
            weight_pad[:n] = weights
        self._levels: list[tuple[np.ndarray, np.ndarray | None]] = []
        # The top level (one block spanning the whole padded array) is only
        # reachable when some prefix k has bit `height` set, i.e. k == padded
        # — which requires n == padded; otherwise skip its build entirely.
        top = height + 1 if n == padded else height
        for level in range(top):
            block = 1 << level
            view = rank_pad.reshape(-1, block)
            order = np.argsort(view, axis=1, kind="stable")
            sorted_ranks = np.take_along_axis(view, order, axis=1)
            offsets = (np.arange(view.shape[0], dtype=np.int64) * self._offset)[:, None]
            flat = (sorted_ranks + offsets).ravel()
            cumulative = None
            if weight_pad is not None:
                sorted_weights = np.take_along_axis(
                    weight_pad.reshape(-1, block), order, axis=1
                )
                cumulative = np.cumsum(sorted_weights, axis=1).ravel()
            self._levels.append((flat, cumulative))

    def query(self, prefixes: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """``D(prefixes[i], thresholds[i])`` for all ``i`` — counts, or
        weighted sums when the tree was built with weights."""
        prefixes = np.asarray(prefixes, dtype=np.int64)
        thresholds = np.asarray(thresholds, dtype=np.int64)
        out = np.zeros(prefixes.shape, dtype=np.float64)
        for level, (flat, cumulative) in enumerate(self._levels):
            mask = ((prefixes >> level) & 1) == 1
            if not np.any(mask):
                continue
            k = prefixes[mask]
            # Fenwick decomposition: bit ``level`` of k covers the block
            # [m, m + 2**level) with m = (k >> (level+1)) << (level+1).
            block = (k >> (level + 1)) << 1
            position = np.searchsorted(
                flat, thresholds[mask] + block * self._offset, side="left"
            )
            within = position - (block << level)
            if cumulative is None:
                out[mask] += within
            else:
                out[mask] += np.where(
                    within > 0, cumulative[(block << level) + within - 1], 0.0
                )
        return out


@dataclass
class Cumulative2D:
    """Exact two-key cumulative aggregate structure.

    With unit weights (the default) this is the cumulative *count* function of
    Definition 5; with explicit per-point weights it generalizes to the
    cumulative SUM surface, which Section VI notes the same machinery
    supports.

    The structure stores points sorted by ``x`` and, for dominance counting,
    a Fenwick-style offline approach is avoided in favour of a rank grid: the
    points are mapped to their rank in each dimension and a prefix-sum matrix
    over an ``grid_size x grid_size`` rank grid gives corner counts whose
    error is at most the number of points sharing a grid cell; exact counts
    are then recovered by scanning the single boundary cell row/column.  For
    the sizes used in this reproduction a direct sorted-scan evaluation is
    also provided and used as ground truth in tests.
    """

    xs: np.ndarray
    ys: np.ndarray
    order_by_x: np.ndarray = field(repr=False)
    ys_sorted_by_x: np.ndarray = field(repr=False)
    weights: np.ndarray | None = None
    weights_sorted_by_x: np.ndarray = field(repr=False, default=None)

    @property
    def size(self) -> int:
        """Number of points."""
        return int(self.xs.size)

    @property
    def total(self) -> float:
        """Total aggregate over all points."""
        if self.weights is None:
            return float(self.size)
        return float(self.weights.sum())

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """Bounding box ``(xmin, xmax, ymin, ymax)`` of the point set."""
        return (
            float(self.xs.min()),
            float(self.xs.max()),
            float(self.ys.min()),
            float(self.ys.max()),
        )

    def evaluate(self, u: float, v: float) -> float:
        """Exact ``CF(u, v)``: aggregate weight of points with x <= u and y <= v."""
        hi = int(np.searchsorted(self.xs_sorted, u, side="right"))
        if hi == 0:
            return 0.0
        mask = self.ys_sorted_by_x[:hi] <= v
        if self.weights_sorted_by_x is None:
            return float(np.count_nonzero(mask))
        return float(self.weights_sorted_by_x[:hi][mask].sum())

    @property
    def xs_sorted(self) -> np.ndarray:
        """The x coordinates sorted ascending (cached by construction)."""
        return self._xs_sorted

    def range_count(self, x_low: float, x_high: float, y_low: float, y_high: float) -> float:
        """Exact COUNT/SUM over the closed rectangle via inclusion-exclusion."""
        if not (x_low <= x_high and y_low <= y_high):
            raise QueryError("invalid rectangle bounds")
        hi = int(np.searchsorted(self.xs_sorted, x_high, side="right"))
        lo = int(np.searchsorted(self.xs_sorted, x_low, side="left"))
        if hi <= lo:
            return 0.0
        ys_window = self.ys_sorted_by_x[lo:hi]
        mask = (ys_window >= y_low) & (ys_window <= y_high)
        if self.weights_sorted_by_x is None:
            return float(np.count_nonzero(mask))
        return float(self.weights_sorted_by_x[lo:hi][mask].sum())

    def range_count_batch(
        self,
        x_lows: np.ndarray,
        x_highs: np.ndarray,
        y_lows: np.ndarray,
        y_highs: np.ndarray,
    ) -> np.ndarray:
        """Exact COUNT/SUM for N closed rectangles — the offline sweep.

        Each rectangle is four prefix dominance counts over the x-sorted
        point order (the closed bounds become half-open rank thresholds via
        ``searchsorted`` side selection, matching :meth:`range_count`'s tie
        semantics exactly), all answered together by the lazily built
        :class:`_PrefixMergeTree`.  COUNT results are bit-identical to the
        per-query scan; SUM results differ only by floating-point summation
        order.
        """
        x_lows = np.asarray(x_lows, dtype=np.float64)
        x_highs = np.asarray(x_highs, dtype=np.float64)
        y_lows = np.asarray(y_lows, dtype=np.float64)
        y_highs = np.asarray(y_highs, dtype=np.float64)
        if not (np.all(x_lows <= x_highs) and np.all(y_lows <= y_highs)):
            raise QueryError("invalid rectangle bounds")
        tree, ys_by_value = self._prefix_structures()
        hi = np.searchsorted(self.xs_sorted, x_highs, side="right")
        lo = np.searchsorted(self.xs_sorted, x_lows, side="left")
        r_hi = np.searchsorted(ys_by_value, y_highs, side="right")
        r_lo = np.searchsorted(ys_by_value, y_lows, side="left")
        prefixes = np.concatenate((hi, hi, lo, lo))
        thresholds = np.concatenate((r_hi, r_lo, r_hi, r_lo))
        dominance = tree.query(prefixes, thresholds)
        n = x_lows.size
        return (
            dominance[:n]
            - dominance[n: 2 * n]
            - dominance[2 * n: 3 * n]
            + dominance[3 * n:]
        )

    def _prefix_structures(self) -> tuple["_PrefixMergeTree", np.ndarray]:
        """The merge tree over y-ranks in x-order, built on first batch use.

        An O(n log n)-memory acceleration cache for the exact *fallback*
        path only; scalar users and (de)serialization never pay for it.
        """
        if self._merge_tree is None:
            order = np.argsort(self.ys_sorted_by_x, kind="stable")
            ranks = np.empty(order.size, dtype=np.int64)
            ranks[order] = np.arange(order.size, dtype=np.int64)
            self._ys_by_value = self.ys_sorted_by_x[order]
            self._merge_tree = _PrefixMergeTree(ranks, self.weights_sorted_by_x)
        return self._merge_tree, self._ys_by_value

    def sample_grid(self, resolution: int = 64) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample ``CFcount`` on a regular grid for surface fitting.

        Returns ``(grid_x, grid_y, grid_cf)`` where ``grid_cf[i, j]`` is the
        cumulative count at ``(grid_x[i], grid_y[j])``.  Computed with a 2-D
        histogram + double cumulative sum, so it costs ``O(n + resolution^2)``.
        """
        if resolution < 2:
            raise QueryError("resolution must be >= 2")
        xmin, xmax, ymin, ymax = self.bounds
        grid_x = np.linspace(xmin, xmax, resolution)
        grid_y = np.linspace(ymin, ymax, resolution)
        hist, _, _ = np.histogram2d(
            self.xs,
            self.ys,
            bins=[_edges_from_centers(grid_x), _edges_from_centers(grid_y)],
            weights=self.weights,
        )
        grid_cf = np.cumsum(np.cumsum(hist, axis=0), axis=1)
        return grid_x, grid_y, grid_cf

    def __post_init__(self) -> None:
        self._xs_sorted = self.xs[self.order_by_x]
        # Batch-only acceleration caches (built lazily by range_count_batch).
        self._merge_tree: _PrefixMergeTree | None = None
        self._ys_by_value: np.ndarray | None = None


def _edges_from_centers(centers: np.ndarray) -> np.ndarray:
    """Bin edges such that each center is the right edge of its bin.

    This makes ``cumsum(hist)`` at grid point ``i`` equal the count of points
    with coordinate <= centers[i] (up to points exactly on edges).
    """
    left = np.concatenate(([-np.inf], centers[:-1]))
    # Use the centers themselves as right edges; the first left edge is -inf
    # so every point below the first center falls into bin 0.
    edges = np.concatenate((left[:1], centers))
    edges[0] = min(centers[0] - 1.0, centers[0] - abs(centers[0]) * 0.01 - 1.0)
    return edges


def build_cumulative_2d(
    xs: np.ndarray,
    ys: np.ndarray,
    weights: np.ndarray | None = None,
) -> Cumulative2D:
    """Build the exact two-key cumulative structure from point coordinates.

    Parameters
    ----------
    xs, ys:
        Point coordinates (first and second key).
    weights:
        Optional non-negative per-point measures; omit for COUNT semantics.

    Raises
    ------
    DataError
        If the coordinate arrays are malformed, contain non-finite values, or
        weights are negative (the cumulative surface must stay monotone).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or ys.ndim != 1:
        raise DataError("coordinates must be 1-D arrays")
    if xs.size == 0:
        raise DataError("point set is empty")
    if xs.size != ys.size:
        raise DataError("x and y arrays must have equal length")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DataError("coordinates contain NaN or infinite values")
    weight_array = None
    if weights is not None:
        weight_array = np.asarray(weights, dtype=np.float64)
        if weight_array.shape != xs.shape:
            raise DataError("weights must have the same length as the coordinates")
        if not np.all(np.isfinite(weight_array)):
            raise DataError("weights contain NaN or infinite values")
        if np.any(weight_array < 0):
            raise DataError("weights must be non-negative")
    order = np.argsort(xs, kind="stable")
    return Cumulative2D(
        xs=xs,
        ys=ys,
        order_by_x=order,
        ys_sorted_by_x=ys[order],
        weights=weight_array,
        weights_sorted_by_x=None if weight_array is None else weight_array[order],
    )
