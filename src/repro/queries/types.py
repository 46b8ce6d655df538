"""Query and result value types.

The paper's Definition 1 (one key) and Definition 4 (two keys) are modelled
as small frozen dataclasses; the guarantee requested by a query (Problem 1 or
Problem 2) is carried alongside so the engine can certify or fall back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import Aggregate, GuaranteeKind
from ..errors import QueryError

__all__ = ["Guarantee", "RangeQuery", "RangeQuery2D", "QueryResult", "BatchQueryResult"]


@dataclass(frozen=True)
class Guarantee:
    """A requested approximation guarantee.

    Attributes
    ----------
    kind:
        :attr:`GuaranteeKind.ABSOLUTE` (Problem 1) or
        :attr:`GuaranteeKind.RELATIVE` (Problem 2).
    epsilon:
        The error budget: ``eps_abs`` for absolute guarantees and ``eps_rel``
        for relative guarantees.
    """

    kind: GuaranteeKind
    epsilon: float

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise QueryError(f"epsilon must be positive, got {self.epsilon}")

    @classmethod
    def absolute(cls, eps_abs: float) -> "Guarantee":
        """Problem 1 guarantee: ``|A - R| <= eps_abs``."""
        return cls(kind=GuaranteeKind.ABSOLUTE, epsilon=eps_abs)

    @classmethod
    def relative(cls, eps_rel: float) -> "Guarantee":
        """Problem 2 guarantee: ``|A - R| / R <= eps_rel``."""
        return cls(kind=GuaranteeKind.RELATIVE, epsilon=eps_rel)

    def satisfied_by(self, approx: float, exact: float) -> bool:
        """Check whether an (approx, exact) pair meets the guarantee."""
        error = abs(approx - exact)
        if self.kind is GuaranteeKind.ABSOLUTE:
            return error <= self.epsilon + 1e-9
        if exact == 0:
            return error == 0
        return error / abs(exact) <= self.epsilon + 1e-9


@dataclass(frozen=True)
class RangeQuery:
    """A one-key range aggregate query ``R_G(D, [low, high])`` (Definition 1)."""

    low: float
    high: float
    aggregate: Aggregate

    def __post_init__(self) -> None:
        if not self.low <= self.high:
            raise QueryError(f"invalid query range [{self.low}, {self.high}]")

    @property
    def width(self) -> float:
        """Width of the key range."""
        return self.high - self.low


@dataclass(frozen=True)
class RangeQuery2D:
    """A two-key rectangle aggregate query (Definition 4)."""

    x_low: float
    x_high: float
    y_low: float
    y_high: float
    aggregate: Aggregate = Aggregate.COUNT

    def __post_init__(self) -> None:
        if not (self.x_low <= self.x_high and self.y_low <= self.y_high):
            raise QueryError("invalid rectangle bounds")

    @property
    def area(self) -> float:
        """Area of the query rectangle."""
        return (self.x_high - self.x_low) * (self.y_high - self.y_low)


@dataclass(frozen=True)
class QueryResult:
    """Outcome of an approximate range aggregate query.

    Attributes
    ----------
    value:
        The returned aggregate value (approximate unless ``exact_fallback``).
    guaranteed:
        Whether the requested guarantee is certified for this answer.
    exact_fallback:
        True when the engine had to fall back to the exact method because the
        relative-error certificate (Lemma 3 / 5 / 7) failed.
    error_bound:
        The certified bound on ``|value - R|`` (absolute), when available.
    """

    value: float
    guaranteed: bool = True
    exact_fallback: bool = False
    error_bound: float | None = None


# eq=False: the auto-generated __eq__ would compare ndarray fields with
# ``==`` and raise on multi-element batches; identity comparison is the only
# well-defined equality for columnar results.
@dataclass(frozen=True, eq=False)
class BatchQueryResult:
    """Vectorized outcome of a batch of range aggregate queries.

    Columnar counterpart of :class:`QueryResult`: one parallel array per
    field, so a workload of N queries is answered and inspected without
    materializing N Python objects.

    Attributes
    ----------
    values:
        ``(N,)`` answers (approximate except where ``exact_fallback``).
    guaranteed:
        ``(N,)`` bool — whether the requested guarantee is certified.
    exact_fallback:
        ``(N,)`` bool — queries answered by the exact method after the
        relative-error certificate failed.
    error_bounds:
        ``(N,)`` certified absolute error bound per answer (0 for exact
        fallbacks).
    degraded:
        ``(N,)`` bool — queries whose answer was computed without one or
        more failed fleet partitions (their bound is widened to cover the
        missing contribution; the certificate stays sound, just looser).
        All-False outside degraded fleet reads.
    failed_partitions:
        Sorted partition ids that failed during a degraded read (empty
        otherwise).
    """

    values: np.ndarray
    guaranteed: np.ndarray
    exact_fallback: np.ndarray
    error_bounds: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    degraded: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    failed_partitions: tuple = ()

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "guaranteed", np.asarray(self.guaranteed, dtype=bool))
        object.__setattr__(self, "exact_fallback", np.asarray(self.exact_fallback, dtype=bool))
        bounds = self.error_bounds
        if bounds is None:
            bounds = np.full(values.shape, np.nan)
        object.__setattr__(self, "error_bounds", np.asarray(bounds, dtype=np.float64))
        degraded = self.degraded
        if degraded is None:
            degraded = np.zeros(values.shape, dtype=bool)
        object.__setattr__(self, "degraded", np.asarray(degraded, dtype=bool))
        object.__setattr__(self, "failed_partitions", tuple(self.failed_partitions))
        if not (
            self.guaranteed.shape
            == self.exact_fallback.shape
            == self.error_bounds.shape
            == self.degraded.shape
            == values.shape
        ):
            raise QueryError("batch result arrays must have identical shapes")

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def partial(self) -> bool:
        """Whether any answer was computed without a failed partition."""
        return bool(self.degraded.any())

    @property
    def fallback_rate(self) -> float:
        """Fraction of queries answered by the exact fallback."""
        if self.values.size == 0:
            return 0.0
        return float(np.count_nonzero(self.exact_fallback)) / self.values.size

    def to_results(self) -> list[QueryResult]:
        """Materialize per-query :class:`QueryResult` objects (scalar view)."""
        return [
            QueryResult(
                value=float(self.values[i]),
                guaranteed=bool(self.guaranteed[i]),
                exact_fallback=bool(self.exact_fallback[i]),
                error_bound=None if np.isnan(self.error_bounds[i]) else float(self.error_bounds[i]),
            )
            for i in range(self.values.size)
        ]
