"""Aggregate trees (the paper's exact MAX baseline and the aR-tree).

* :class:`AggregateSegmentTree` — the 1-D aggregate max/min tree of
  Section III-B2 / Figure 4: a balanced binary tree over sorted keys where
  each internal node stores the extreme of its interval.  Range queries visit
  at most two branches per level, so they run in ``O(log n)``.
* :class:`AggregateRTree2D` — an aggregate R-tree (aR-tree, Papadias et al.)
  over 2-D points, bulk-loaded with Sort-Tile-Recursive packing.  Each node
  stores the count/sum of its subtree so fully covered nodes are answered
  without descending.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import Aggregate
from ..errors import DataError, QueryError

__all__ = ["AggregateSegmentTree", "AggregateRTree2D"]


class AggregateSegmentTree:
    """Implicit-array segment tree storing a range extreme (or sum) per node.

    The tree is built over records sorted by key; queries map key bounds to
    index bounds by binary search and then run the classic iterative
    bottom-up segment-tree traversal.
    """

    def __init__(
        self,
        keys: np.ndarray,
        measures: np.ndarray,
        aggregate: Aggregate = Aggregate.MAX,
    ) -> None:
        keys = np.asarray(keys, dtype=np.float64)
        measures = np.asarray(measures, dtype=np.float64)
        if keys.size == 0:
            raise DataError("dataset is empty")
        if keys.size != measures.size:
            raise DataError("keys and measures must have equal length")
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        self._measures = measures[order]
        self._aggregate = aggregate
        self._size = int(keys.size)
        if aggregate is Aggregate.MAX:
            self._identity = -np.inf
            self._combine = np.maximum
        elif aggregate is Aggregate.MIN:
            self._identity = np.inf
            self._combine = np.minimum
        elif aggregate in (Aggregate.SUM, Aggregate.COUNT):
            self._identity = 0.0
            self._combine = np.add
        else:  # pragma: no cover - defensive
            raise DataError(f"unsupported aggregate {aggregate}")
        self._tree = np.full(2 * self._size, self._identity, dtype=np.float64)
        if aggregate is Aggregate.COUNT:
            self._tree[self._size:] = 1.0
        else:
            self._tree[self._size:] = self._measures
        for i in range(self._size - 1, 0, -1):
            self._tree[i] = self._combine(self._tree[2 * i], self._tree[2 * i + 1])

    @property
    def aggregate(self) -> Aggregate:
        """Aggregate stored in the tree nodes."""
        return self._aggregate

    @property
    def size(self) -> int:
        """Number of leaf records."""
        return self._size

    def range_extreme(self, index_low: int, index_high: int) -> float:
        """Aggregate over leaf *indices* ``[index_low, index_high]`` (inclusive)."""
        if index_high < index_low:
            return float(self._identity)
        lo = int(index_low) + self._size
        hi = int(index_high) + self._size + 1
        if lo < self._size or hi > 2 * self._size:
            raise QueryError("leaf index out of range")
        result = self._identity
        while lo < hi:
            if lo & 1:
                result = self._combine(result, self._tree[lo])
                lo += 1
            if hi & 1:
                hi -= 1
                result = self._combine(result, self._tree[hi])
            lo //= 2
            hi //= 2
        return float(result)

    def range_query(self, key_low: float, key_high: float) -> float:
        """Aggregate over records whose *key* lies in ``[key_low, key_high]``."""
        if not key_low <= key_high:
            raise QueryError(f"invalid range [{key_low}, {key_high}]")
        lo = int(np.searchsorted(self._keys, key_low, side="left"))
        hi = int(np.searchsorted(self._keys, key_high, side="right")) - 1
        if hi < lo:
            if self._aggregate in (Aggregate.SUM, Aggregate.COUNT):
                return 0.0
            return float("nan")
        return self.range_extreme(lo, hi)

    def range_query_batch(
        self,
        key_lows: np.ndarray,
        key_highs: np.ndarray,
        *,
        force_scalar: bool = False,
    ) -> np.ndarray:
        """Batch of :meth:`range_query` calls, traversed level-synchronously.

        Key-to-index mapping is one vectorized ``searchsorted`` per side.
        The bottom-up traversal runs for all queries at once: every query
        sits at the same tree level after ``k`` halvings, so each of the
        O(log n) iterations resolves one level for the whole batch with a
        masked gather-combine — the total Python-level work drops from
        O(N log n) iterations to O(log n).  Per query, nodes are combined in
        exactly the scalar loop's order (low side, then high side, level by
        level), so results are bit-identical even for SUM, where addition
        order matters.  ``force_scalar=True`` keeps the per-query loop as
        the correctness oracle.
        """
        key_lows = np.asarray(key_lows, dtype=np.float64)
        key_highs = np.asarray(key_highs, dtype=np.float64)
        if key_lows.shape != key_highs.shape:
            raise QueryError("lows and highs must have matching shapes")
        if not np.all(key_lows <= key_highs):
            raise QueryError("invalid range: need low <= high")
        lo_idx = np.searchsorted(self._keys, key_lows, side="left")
        hi_idx = np.searchsorted(self._keys, key_highs, side="right") - 1
        empty_value = (
            0.0 if self._aggregate in (Aggregate.SUM, Aggregate.COUNT) else float("nan")
        )
        empty = hi_idx < lo_idx
        if force_scalar:
            out = np.full(key_lows.shape, empty_value, dtype=np.float64)
            for i in range(out.size):
                if hi_idx[i] >= lo_idx[i]:
                    out[i] = self.range_extreme(int(lo_idx[i]), int(hi_idx[i]))
            return out
        out = np.full(key_lows.shape, self._identity, dtype=np.float64)
        lo = (lo_idx + self._size).astype(np.int64)
        hi = (hi_idx + self._size + 1).astype(np.int64)
        # Park empty queries at lo == hi == 0 so they never enter a combine.
        lo[empty] = 0
        hi[empty] = 0
        while True:
            active = lo < hi
            if not active.any():
                break
            take = active & ((lo & 1) == 1)
            if take.any():
                out[take] = self._combine(out[take], self._tree[lo[take]])
            lo = lo + take
            take = active & ((hi & 1) == 1)
            hi = hi - take
            if take.any():
                out[take] = self._combine(out[take], self._tree[hi[take]])
            # Halving inactive lanes preserves lo >= hi, so they stay inactive.
            lo >>= 1
            hi >>= 1
        out[empty] = empty_value
        return out

    def size_in_bytes(self) -> int:
        """Footprint of the tree array plus the sorted keys."""
        return int(self._tree.nbytes + self._keys.nbytes)


@dataclass
class _RTreeNode:
    """One node of the aggregate R-tree."""

    x_low: float
    x_high: float
    y_low: float
    y_high: float
    aggregate_value: float
    count: int
    children: list["_RTreeNode"] = field(default_factory=list)
    point_indices: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.point_indices is not None

    def covered_by(self, x_low: float, x_high: float, y_low: float, y_high: float) -> bool:
        """Node MBR fully inside the query rectangle."""
        return (
            x_low <= self.x_low
            and self.x_high <= x_high
            and y_low <= self.y_low
            and self.y_high <= y_high
        )

    def intersects(self, x_low: float, x_high: float, y_low: float, y_high: float) -> bool:
        """Node MBR intersects the query rectangle."""
        return not (
            self.x_high < x_low
            or x_high < self.x_low
            or self.y_high < y_low
            or y_high < self.y_low
        )


class AggregateRTree2D:
    """Aggregate R-tree over 2-D points (STR bulk-loaded).

    Each node stores the COUNT (or SUM of measures) of the points in its
    subtree.  Rectangle queries add fully covered nodes directly and only
    descend into partially covered ones, giving the usual ``O(sqrt(n))``-ish
    behaviour on real workloads; leaves are scanned exactly.
    """

    def __init__(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        measures: np.ndarray | None = None,
        *,
        leaf_capacity: int = 64,
        fanout: int = 16,
        aggregate: Aggregate = Aggregate.COUNT,
    ) -> None:
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.size == 0 or xs.size != ys.size:
            raise DataError("xs and ys must be equal-length non-empty arrays")
        if aggregate not in (Aggregate.COUNT, Aggregate.SUM):
            raise DataError("aggregate R-tree supports COUNT and SUM")
        if leaf_capacity < 1 or fanout < 2:
            raise DataError("leaf_capacity must be >= 1 and fanout >= 2")
        if measures is None or aggregate is Aggregate.COUNT:
            measures = np.ones_like(xs)
        measures = np.asarray(measures, dtype=np.float64)
        self._xs = xs
        self._ys = ys
        self._measures = measures
        self._aggregate = aggregate
        self._leaf_capacity = leaf_capacity
        self._fanout = fanout
        self._num_nodes = 0
        self._root = self._bulk_load(np.arange(xs.size))

    # ------------------------------------------------------------------ #
    # Construction (Sort-Tile-Recursive packing)
    # ------------------------------------------------------------------ #

    def _make_leaf(self, indices: np.ndarray) -> _RTreeNode:
        self._num_nodes += 1
        xs = self._xs[indices]
        ys = self._ys[indices]
        return _RTreeNode(
            x_low=float(xs.min()),
            x_high=float(xs.max()),
            y_low=float(ys.min()),
            y_high=float(ys.max()),
            aggregate_value=float(self._measures[indices].sum()),
            count=int(indices.size),
            point_indices=indices,
        )

    def _make_internal(self, children: list[_RTreeNode]) -> _RTreeNode:
        self._num_nodes += 1
        return _RTreeNode(
            x_low=min(child.x_low for child in children),
            x_high=max(child.x_high for child in children),
            y_low=min(child.y_low for child in children),
            y_high=max(child.y_high for child in children),
            aggregate_value=float(sum(child.aggregate_value for child in children)),
            count=int(sum(child.count for child in children)),
            children=children,
        )

    def _bulk_load(self, indices: np.ndarray) -> _RTreeNode:
        # Build leaves with STR: sort by x, slice into vertical strips, then
        # sort each strip by y and cut into leaf pages.
        n = indices.size
        num_leaves = int(np.ceil(n / self._leaf_capacity))
        strips = int(np.ceil(np.sqrt(num_leaves)))
        by_x = indices[np.argsort(self._xs[indices], kind="stable")]
        strip_size = int(np.ceil(n / strips))
        leaves: list[_RTreeNode] = []
        for s in range(0, n, strip_size):
            strip = by_x[s: s + strip_size]
            strip = strip[np.argsort(self._ys[strip], kind="stable")]
            for page_start in range(0, strip.size, self._leaf_capacity):
                page = strip[page_start: page_start + self._leaf_capacity]
                leaves.append(self._make_leaf(page))
        # Pack leaves into internal levels until a single root remains.
        level = leaves
        while len(level) > 1:
            next_level = [
                self._make_internal(level[i: i + self._fanout])
                for i in range(0, len(level), self._fanout)
            ]
            level = next_level
        return level[0]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Total number of tree nodes."""
        return self._num_nodes

    def rectangle_aggregate(self, x_low: float, x_high: float, y_low: float, y_high: float) -> float:
        """Exact COUNT/SUM over the closed query rectangle."""
        if not (x_low <= x_high and y_low <= y_high):
            raise QueryError("invalid rectangle bounds")
        total = 0.0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not node.intersects(x_low, x_high, y_low, y_high):
                continue
            if node.covered_by(x_low, x_high, y_low, y_high):
                total += node.aggregate_value
                continue
            if node.is_leaf:
                idx = node.point_indices
                mask = (
                    (self._xs[idx] >= x_low)
                    & (self._xs[idx] <= x_high)
                    & (self._ys[idx] >= y_low)
                    & (self._ys[idx] <= y_high)
                )
                total += float(self._measures[idx][mask].sum())
            else:
                stack.extend(node.children)
        return total

    def size_in_bytes(self) -> int:
        """Approximate footprint: 6 floats per node plus leaf index arrays."""
        leaf_floats = self._xs.size  # each point index referenced once
        return 8 * (6 * self._num_nodes + leaf_floats)
