"""Key-measure step function ``DFmax`` / ``DFmin`` (Equation 6 of the paper).

For MAX/MIN queries the target function is simply the measure as a (step)
function of the key.  The PolyFit index fits piecewise polynomials to the
sampled (key, measure) points; the exact baseline is an aggregate tree.
Batch exact answers (the index's exact fallback) come from a
:class:`BlockExtremeTable` over the measures, built on first batch use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..config import Aggregate
from ..errors import DataError, QueryError
from .cumulative import snap_bounds, validate_ranges

__all__ = ["BlockExtremeTable", "KeyMeasureFunction", "build_key_measure_function"]


class BlockExtremeTable:
    """Vectorized inclusive range-extreme queries over a fixed value array.

    Block decomposition with block size ``BLOCK``: a sparse table over the
    per-block extremes answers the full blocks strictly inside a window,
    and masked ``BLOCK``-wide gathers from the values themselves answer the
    partial end blocks (or a window inside one block).  Every path is O(1)
    NumPy calls for N windows.  The table keeps a reference to ``values``,
    never a copy, and nothing per element: about ``(log2(n / BLOCK) + 1) *
    n / BLOCK`` doubles, 4 MB at a million values.
    """

    BLOCK = 32

    def __init__(self, values: np.ndarray, maximize: bool) -> None:
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise QueryError("values must be a non-empty 1-D array")
        self._values = values
        self._combine = np.maximum if maximize else np.minimum
        self._reduce = np.maximum.reduce if maximize else np.minimum.reduce
        self._fill = -np.inf if maximize else np.inf
        block = self.BLOCK
        self._offsets = np.arange(block, dtype=np.intp)
        full = values.size // block
        # Full blocks reduce over a reshaped view; only the ragged tail
        # block is reduced on its own.
        block_extremes = [self._reduce(values[: full * block].reshape(full, block), axis=1)]
        if values.size % block:
            block_extremes.append([self._reduce(values[full * block:])])
        self._block_extremes = np.concatenate(block_extremes)
        self._table = self._build_sparse_table(self._block_extremes)

    def _build_sparse_table(self, values: np.ndarray) -> np.ndarray:
        """``table[k, i]`` = extreme over ``values[i : i + 2**k]`` (clamped)."""
        n = values.size
        levels = max(1, int(np.log2(n)) + 1)
        table = np.empty((levels, n), dtype=np.float64)
        table[0] = values
        for k in range(1, levels):
            span = 1 << (k - 1)
            table[k, : n - span] = self._combine(table[k - 1, : n - span], table[k - 1, span:])
            table[k, n - span:] = table[k - 1, n - span:]
        return table

    def _masked_rows(self, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Extreme of the values in blocks ``rows[i]`` that lie in ``[lo[i], hi[i]]``.

        One fixed-width gather: positions past the last value are clipped
        in bounds and then masked out with everything outside the window,
        so no padded copy of the values is needed.
        """
        positions = rows[..., None] * self.BLOCK + self._offsets
        inside = (positions >= lo[:, None, None]) & (positions <= hi[:, None, None])
        gathered = self._values.take(positions, mode="clip")
        return self._reduce(gathered, axis=(1, 2), where=inside, initial=self._fill)

    def _spanning_ends(
        self, lo: np.ndarray, hi: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray
    ) -> np.ndarray:
        """Extremes over a spanning window's parts in its first and last block."""
        return self._masked_rows(np.array((b_lo, b_hi)).T, lo, hi)

    def _sparse_query(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Range extreme over whole blocks ``[lo, hi]`` (inclusive, lo <= hi)."""
        k = np.frexp(hi - lo + 1)[1] - 1  # floor(log2(length))
        return self._combine(self._table[k, lo], self._table[k, hi - np.left_shift(1, k) + 1])

    def _query(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """:meth:`query` without the bounds checks.

        A window with ``hi < lo`` holds no value and yields the reduction's
        identity (``-inf`` for MAX, ``+inf`` for MIN).
        """
        b_lo = lo // self.BLOCK
        b_hi = hi // self.BLOCK
        out = np.empty(lo.shape, dtype=np.float64)
        same = b_lo == b_hi
        if same.any():
            out[same] = self._masked_rows(b_lo[same, None], lo[same], hi[same])
        spanning = ~same
        if spanning.any():
            lo, hi, b_lo, b_hi = lo[spanning], hi[spanning], b_lo[spanning], b_hi[spanning]
            value = self._spanning_ends(lo, hi, b_lo, b_hi)
            middle = b_hi - b_lo > 1
            if middle.any():
                value[middle] = self._combine(
                    value[middle], self._sparse_query(b_lo[middle] + 1, b_hi[middle] - 1)
                )
            out[spanning] = value
        return out

    def query(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Extremes over the inclusive index windows ``[lo[i], hi[i]]``."""
        lo = np.asarray(lo, dtype=np.intp)
        hi = np.asarray(hi, dtype=np.intp)
        if lo.shape != hi.shape:
            raise QueryError("lo and hi must have matching shapes")
        if lo.size and (lo.min() < 0 or hi.max() >= self._values.size or np.any(hi < lo)):
            raise QueryError("window indices out of range")
        return self._query(lo, hi)

    def size_in_bytes(self) -> int:
        """Footprint of the table arrays (excluding the values themselves)."""
        return int(self._block_extremes.nbytes + self._table.nbytes)


@dataclass(frozen=True)
class KeyMeasureFunction:
    """A sampled key-measure function.

    Attributes
    ----------
    keys:
        Sorted, strictly increasing keys.
    measures:
        Measure of the record at each key.
    aggregate:
        :attr:`Aggregate.MAX` or :attr:`Aggregate.MIN` — records which extreme
        queries on this function will compute.
    """

    keys: np.ndarray
    measures: np.ndarray
    aggregate: Aggregate

    def __post_init__(self) -> None:
        if self.keys.shape != self.measures.shape:
            raise DataError("keys and measures must have identical shapes")

    @property
    def size(self) -> int:
        """Number of sampled points."""
        return int(self.keys.size)

    def evaluate(self, k: float) -> float:
        """Step-function evaluation ``DF(k)`` (Equation 6).

        Returns the measure of the last record whose key is ``<= k``, or 0
        when ``k`` lies before the first key (the paper's "0 otherwise"
        branch).
        """
        idx = int(np.searchsorted(self.keys, k, side="right")) - 1
        if idx < 0:
            return 0.0
        return float(self.measures[idx])

    def range_extreme(self, low: float, high: float) -> float:
        """Exact range MAX/MIN over keys in ``[low, high]`` by scanning.

        Used as the ground truth in tests; the fast exact method is the
        aggregate tree in :mod:`repro.baselines.aggregate_tree`.
        """
        if not low <= high:
            raise QueryError(f"invalid range [{low}, {high}]")
        lo = int(np.searchsorted(self.keys, low, side="left"))
        hi = int(np.searchsorted(self.keys, high, side="right"))
        if hi <= lo:
            return float("nan")
        window = self.measures[lo:hi]
        if self.aggregate is Aggregate.MAX:
            return float(window.max())
        return float(window.min())

    def range_extreme_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Exact MAX/MIN over N ranges in O(1) NumPy calls.

        One sorted bound search (:func:`~repro.functions.cumulative.
        snap_bounds`) and one block-extreme table query for the whole batch.
        Empty ranges yield NaN, matching :meth:`range_extreme`.
        """
        lows, highs = validate_ranges(lows, highs)
        return self.extremes_between(*snap_bounds(self.keys, lows, highs))

    def extremes_between(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Exact extremes over the snapped windows ``measures[lo[i]:hi[i]]``.

        ``lo``/``hi`` are insertion points from
        :func:`~repro.functions.cumulative.snap_bounds`; an empty window
        (``hi <= lo``) yields NaN.
        """
        # Snapped windows need no bounds checks.  An empty one (hi <= lo)
        # comes back as the reduction's identity (+-inf, never a finite
        # measure) and becomes NaN here.
        out = self._extreme_table._query(lo, hi - 1)
        out[hi <= lo] = np.nan
        return out

    @cached_property
    def _extreme_table(self) -> BlockExtremeTable:
        """Block-extreme table over ``measures``, built on first batch use.

        Scalar-only users (and every deserialization) never pay for it; it
        references ``measures`` rather than copying them.
        """
        return BlockExtremeTable(self.measures, maximize=self.aggregate is Aggregate.MAX)

    def slice_points(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Return the (keys, measures) points with indices in ``[start, stop)``."""
        if not 0 <= start <= stop <= self.size:
            raise QueryError(f"bad slice [{start}, {stop}) for size {self.size}")
        return self.keys[start:stop], self.measures[start:stop]


def build_key_measure_function(
    keys: np.ndarray,
    measures: np.ndarray,
    aggregate: Aggregate = Aggregate.MAX,
    *,
    presorted: bool = False,
) -> KeyMeasureFunction:
    """Build the key-measure function from a (key, measure) dataset.

    Duplicate keys are collapsed to a single sample keeping the extreme
    measure consistent with ``aggregate`` (max for MAX, min for MIN) so the
    result is still a function of the key and range extremes are preserved.

    Raises
    ------
    DataError
        If arrays are malformed or contain non-finite values, or if the
        aggregate is not MIN/MAX.
    """
    if aggregate not in (Aggregate.MAX, Aggregate.MIN):
        raise DataError(f"key-measure function only supports MAX/MIN, got {aggregate}")
    keys = np.asarray(keys, dtype=np.float64)
    measures = np.asarray(measures, dtype=np.float64)
    if keys.ndim != 1 or measures.ndim != 1:
        raise DataError("keys and measures must be 1-D arrays")
    if keys.size == 0:
        raise DataError("dataset is empty")
    if keys.size != measures.size:
        raise DataError("keys and measures must have equal length")
    if not (np.all(np.isfinite(keys)) and np.all(np.isfinite(measures))):
        raise DataError("keys/measures contain NaN or infinite values")

    if not presorted:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        measures = measures[order]
    elif np.any(np.diff(keys) < 0):
        raise DataError("presorted=True but keys are not sorted ascending")

    unique_keys, inverse = np.unique(keys, return_inverse=True)
    if unique_keys.size != keys.size:
        if aggregate is Aggregate.MAX:
            collapsed = np.full(unique_keys.size, -np.inf)
            np.maximum.at(collapsed, inverse, measures)
        else:
            collapsed = np.full(unique_keys.size, np.inf)
            np.minimum.at(collapsed, inverse, measures)
        keys, measures = unique_keys, collapsed

    return KeyMeasureFunction(keys=keys, measures=measures, aggregate=aggregate)
