"""In-memory B+tree substrate.

A stand-in for the STX B+tree used by the paper's S-tree heuristic, and a
generally useful ordered-map substrate.  Leaves hold sorted (key, value)
pairs and are linked; internal nodes hold separator keys.  The tree supports
point lookup, insertion, range iteration, and range aggregation over an
optional per-leaf prefix cache.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from ..errors import DataError, QueryError

__all__ = ["BPlusTree"]


class _LeafNode:
    """Leaf node: sorted keys with parallel values and a next-leaf link."""

    __slots__ = ("keys", "values", "next")

    def __init__(self) -> None:
        self.keys: list[float] = []
        self.values: list[float] = []
        self.next: _LeafNode | None = None

    @property
    def is_leaf(self) -> bool:
        return True


class _InternalNode:
    """Internal node: separator keys and child pointers."""

    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: list[float] = []
        self.children: list[object] = []

    @property
    def is_leaf(self) -> bool:
        return False


class BPlusTree:
    """A simple order-``branching_factor`` B+tree over float keys.

    Parameters
    ----------
    branching_factor:
        Maximum number of children per internal node (and keys per leaf).
    """

    def __init__(self, branching_factor: int = 64) -> None:
        if branching_factor < 4:
            raise DataError("branching_factor must be >= 4")
        self._order = branching_factor
        self._root: _LeafNode | _InternalNode = _LeafNode()
        self._size = 0
        self._height = 1

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_sorted(
        cls,
        keys: np.ndarray,
        values: np.ndarray | None = None,
        branching_factor: int = 64,
    ) -> "BPlusTree":
        """Bulk-load from sorted keys (values default to 1.0)."""
        keys = np.asarray(keys, dtype=np.float64)
        if keys.size == 0:
            raise DataError("cannot bulk-load an empty key set")
        if np.any(np.diff(keys) < 0):
            raise DataError("keys must be sorted ascending for bulk loading")
        if values is None:
            values = np.ones_like(keys)
        values = np.asarray(values, dtype=np.float64)
        if values.size != keys.size:
            raise DataError("keys and values must have equal length")

        tree = cls(branching_factor=branching_factor)
        leaf_capacity = branching_factor
        leaves: list[_LeafNode] = []
        for start in range(0, keys.size, leaf_capacity):
            leaf = _LeafNode()
            leaf.keys = keys[start: start + leaf_capacity].tolist()
            leaf.values = values[start: start + leaf_capacity].tolist()
            if leaves:
                leaves[-1].next = leaf
            leaves.append(leaf)
        tree._size = int(keys.size)

        level: list[_LeafNode | _InternalNode] = list(leaves)
        height = 1
        while len(level) > 1:
            parents: list[_InternalNode] = []
            for start in range(0, len(level), branching_factor):
                group = level[start: start + branching_factor]
                parent = _InternalNode()
                parent.children = list(group)
                parent.keys = [tree._subtree_min(child) for child in group[1:]]
                parents.append(parent)
            level = list(parents)
            height += 1
        tree._root = level[0]
        tree._height = height
        return tree

    def _subtree_min(self, node: _LeafNode | _InternalNode) -> float:
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[union-attr]
        return node.keys[0]  # type: ignore[union-attr]

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def insert(self, key: float, value: float = 1.0) -> None:
        """Insert a (key, value) pair; duplicate keys are allowed."""
        split = self._insert_into(self._root, float(key), float(value))
        if split is not None:
            separator, right = split
            new_root = _InternalNode()
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
        self._size += 1

    def _insert_into(
        self, node: _LeafNode | _InternalNode, key: float, value: float
    ) -> tuple[float, _LeafNode | _InternalNode] | None:
        if node.is_leaf:
            leaf = node  # type: ignore[assignment]
            position = bisect_right(leaf.keys, key)
            leaf.keys.insert(position, key)
            leaf.values.insert(position, value)
            if len(leaf.keys) > self._order:
                return self._split_leaf(leaf)
            return None
        internal = node  # type: ignore[assignment]
        child_index = bisect_right(internal.keys, key)
        split = self._insert_into(internal.children[child_index], key, value)
        if split is None:
            return None
        separator, right = split
        internal.keys.insert(child_index, separator)
        internal.children.insert(child_index + 1, right)
        if len(internal.children) > self._order:
            return self._split_internal(internal)
        return None

    def _split_leaf(self, leaf: _LeafNode) -> tuple[float, _LeafNode]:
        mid = len(leaf.keys) // 2
        right = _LeafNode()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        right.next = leaf.next
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _InternalNode) -> tuple[float, _InternalNode]:
        mid = len(node.children) // 2
        separator = node.keys[mid - 1]
        right = _InternalNode()
        right.keys = node.keys[mid:]
        right.children = node.children[mid:]
        node.keys = node.keys[: mid - 1]
        node.children = node.children[:mid]
        return separator, right

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Number of stored records."""
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 = a single leaf)."""
        return self._height

    def _find_leaf(self, key: float) -> _LeafNode:
        node = self._root
        while not node.is_leaf:
            index = bisect_right(node.keys, key)  # type: ignore[union-attr]
            node = node.children[index]  # type: ignore[union-attr]
        return node  # type: ignore[return-value]

    def get(self, key: float, default: float | None = None) -> float | None:
        """Value of the first record with exactly this key, or ``default``."""
        leaf = self._find_leaf(float(key))
        index = bisect_left(leaf.keys, float(key))
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return default

    def __contains__(self, key: float) -> bool:
        return self.get(float(key)) is not None

    def items_in_range(self, low: float, high: float):
        """Yield (key, value) pairs with ``low <= key <= high`` in key order."""
        if not low <= high:
            raise QueryError(f"invalid range [{low}, {high}]")
        leaf = self._find_leaf(float(low))
        index = bisect_left(leaf.keys, float(low))
        while leaf is not None:
            while index < len(leaf.keys):
                key = leaf.keys[index]
                if key > high:
                    return
                yield key, leaf.values[index]
                index += 1
            leaf = leaf.next
            index = 0

    def range_aggregate(self, low: float, high: float, aggregate: str = "sum") -> float:
        """Aggregate the values of records with key in ``[low, high]``.

        ``aggregate`` is one of ``"sum"``, ``"count"``, ``"min"``, ``"max"``.
        """
        values = [value for _, value in self.items_in_range(low, high)]
        if aggregate == "count":
            return float(len(values))
        if not values:
            return 0.0 if aggregate == "sum" else float("nan")
        if aggregate == "sum":
            return float(sum(values))
        if aggregate == "max":
            return float(max(values))
        if aggregate == "min":
            return float(min(values))
        raise QueryError(f"unsupported aggregate {aggregate!r}")

    def range_aggregate_batch(
        self, lows: np.ndarray, highs: np.ndarray, aggregate: str = "sum"
    ) -> np.ndarray:
        """Batch of :meth:`range_aggregate` calls.

        A pointer-based B+tree has no flat-array layout to vectorize over, so
        each query still walks the tree; the batch API exists so the bench
        harness compares every method through the same interface.
        """
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        if lows.shape != highs.shape:
            raise QueryError("lows and highs must have matching shapes")
        return np.array(
            [self.range_aggregate(lows[i], highs[i], aggregate) for i in range(lows.size)],
            dtype=np.float64,
        )

    def keys(self) -> list[float]:
        """All keys in ascending order."""
        result: list[float] = []
        node = self._root
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[union-attr]
        leaf: _LeafNode | None = node  # type: ignore[assignment]
        while leaf is not None:
            result.extend(leaf.keys)
            leaf = leaf.next
        return result

    def size_in_bytes(self) -> int:
        """Rough footprint: 16 bytes per stored (key, value) pair plus nodes."""
        # Count nodes by traversal.
        nodes = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            nodes += 1
            if not node.is_leaf:
                stack.extend(node.children)  # type: ignore[union-attr]
        return 16 * self._size + 64 * nodes
