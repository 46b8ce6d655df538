"""Independent truth for every answer the benchmark checks.

Truth comes from the benchmark's own sorted records, never from the program
under test: prefix sums for SUM, and for MAX a sparse table over the
maxima of the elementary intervals the queries' endpoints cut the records
into.  For the ingest workload an answer is checked against exactly the
rows visible at the write ``version`` the server reported with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Slack for float round-off when comparing against a certified bound.
_REL_TOL = 1e-9


def sum_truth(keys: np.ndarray, measures: np.ndarray, lows, highs) -> np.ndarray:
    """Sum of ``measures`` over records with ``low <= key <= high``."""
    prefix = np.concatenate(([0.0], np.cumsum(measures)))
    lo = np.searchsorted(keys, lows, side="left")
    hi = np.searchsorted(keys, highs, side="right")
    return prefix[hi] - prefix[lo]


def max_truth(keys: np.ndarray, measures: np.ndarray, lows, highs) -> np.ndarray:
    """Max of ``measures`` over ``low <= key <= high`` (NaN when empty)."""
    n = keys.size
    lo = np.searchsorted(keys, lows, side="left")
    hi = np.searchsorted(keys, highs, side="right")
    cuts = np.unique(np.concatenate((lo, hi)))
    cuts = cuts[cuts < n]
    out = np.full(lo.shape, np.nan)
    if cuts.size == 0:
        return out
    # Elementary interval j is measures[cuts[j]:cuts[j + 1]]; every
    # non-empty query is a contiguous run of them.
    # Sparse table: row k holds the max of 2**k consecutive intervals.
    table = np.full((int(np.log2(cuts.size)) + 1, cuts.size), -np.inf)
    table[0] = np.maximum.reduceat(measures, cuts)
    for k in range(1, table.shape[0]):
        step = 2 ** (k - 1)
        table[k, :-step] = np.maximum(table[k - 1, :-step], table[k - 1, step:])
    first = np.searchsorted(cuts, lo)
    stop = np.searchsorted(cuts, hi)  # exclusive; hi == n maps past the end
    live = hi > lo
    level = np.floor(np.log2(np.maximum(stop - first, 1))).astype(int)
    left = table[level[live], first[live]]
    right = table[level[live], stop[live] - 2 ** level[live]]
    out[live] = np.maximum(left, right)
    return out


@dataclass
class Verdict:
    """Per-answer oracle outcome, accumulated over a run."""

    checked: int = 0
    misses: int = 0
    rel_err_sum: float = 0.0
    rel_err_count: int = 0
    fallbacks: int = 0

    def add(self, other: "Verdict") -> None:
        self.checked += other.checked
        self.misses += other.misses
        self.rel_err_sum += other.rel_err_sum
        self.rel_err_count += other.rel_err_count
        self.fallbacks += other.fallbacks

    @property
    def mean_rel_err(self) -> float:
        return self.rel_err_sum / self.rel_err_count if self.rel_err_count else 0.0


def check_answers(
    values: np.ndarray,
    guaranteed: np.ndarray,
    fallback: np.ndarray,
    bounds: np.ndarray,
    truth: np.ndarray,
    eps_rel: float | None,
) -> tuple[np.ndarray, Verdict]:
    """Check one request's answers; returns the miss mask and a verdict.

    * ``exact_fallback`` answers must equal the truth to float tolerance;
    * other guaranteed answers must lie within their certified absolute
      bound and, under a relative guarantee, within ``eps_rel * truth``;
    * an empty range must be answered NaN (MAX) — and only an empty one.
    """
    values = np.asarray(values, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    empty = np.isnan(truth)
    err = np.abs(values - truth)
    tol = _REL_TOL * np.maximum(1.0, np.abs(np.nan_to_num(truth)))
    ok = np.where(fallback, err <= tol, True)
    certified = guaranteed & ~fallback
    ok &= ~certified | (err <= np.nan_to_num(bounds, nan=-1.0) + tol)
    if eps_rel is not None:
        ok &= ~certified | (err <= eps_rel * np.abs(truth) + tol)
    ok = np.where(empty, np.isnan(values), ok & ~np.isnan(values))
    verdict = Verdict(checked=values.size, misses=int((~ok).sum()),
                      fallbacks=int(np.count_nonzero(fallback)))
    measured = ~empty & ~np.isnan(values)
    rel = err[measured] / np.maximum(truth[measured], 1.0)
    verdict.rel_err_sum = float(rel.sum())
    verdict.rel_err_count = int(rel.size)
    return ~ok, verdict


def visible_sum_truth(
    base_keys: np.ndarray,
    base_sums: np.ndarray,
    insert_keys: np.ndarray,
    insert_sums: np.ndarray,
    chunk_rows: int,
    visible_chunks: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
) -> np.ndarray:
    """SUM truth when query ``i`` sees the first ``visible_chunks[i]``
    insert chunks on top of the base records (brute force per chunk)."""
    truth = sum_truth(base_keys, base_sums, lows, highs)
    for chunk in range(int(visible_chunks.max(initial=0))):
        rows = slice(chunk * chunk_rows, (chunk + 1) * chunk_rows)
        order = np.argsort(insert_keys[rows], kind="stable")
        part = sum_truth(insert_keys[rows][order], insert_sums[rows][order], lows, highs)
        truth += np.where(visible_chunks > chunk, part, 0.0)
    return truth
