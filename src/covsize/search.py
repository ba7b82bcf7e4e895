"""Smallest n whose worst-case coverage clears the confidence requirement.

The worst-case coverage is not monotone in n, so the search walks n upward
one step at a time and certifies every n it rejects; the trace it returns is
gapless from n_start to the answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from ._exact import exact
from .coverage import ErrorCriterion, EstimatorKind
from .errors import DomainError
from .families import _check_n
from .minimize import min_coverage

# nudge for float comparison against 1 - delta when requested
GUARD_BAND = 1e-12


@dataclass(frozen=True)
class SampleSizeQuery:
    family: str
    criterion: ErrorCriterion
    estimator: EstimatorKind
    a: Fraction
    b: Fraction
    delta: Fraction
    n_start: int = 2
    n_max: int = 1_000_000
    guard_band: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", exact(self.a, name="a"))
        object.__setattr__(self, "b", exact(self.b, name="b"))
        object.__setattr__(self, "delta", exact(self.delta, name="delta"))
        if not (0 < self.delta < 1):
            raise DomainError(f"delta must lie in (0, 1), got {self.delta}")
        _check_n(self.n_start, "n_start")
        _check_n(self.n_max, "n_max")
        if self.n_max < self.n_start:
            raise DomainError(
                f"n_max ({self.n_max}) must be >= n_start ({self.n_start})"
            )


@dataclass(frozen=True)
class SampleSizeResult:
    """Outcome of a sample-size search.

    n_min is None when no n up to n_max qualified.  The trace holds
    (n, min_coverage, argmin_theta) for every n examined, in order.
    """

    query: SampleSizeQuery
    n_min: Optional[int]
    coverage_at_n_min: Optional[float]
    argmin_theta: Optional[Fraction]
    trace: tuple[tuple[int, float, Fraction], ...] = field(repr=False)

    @property
    def found(self) -> bool:
        return self.n_min is not None


def min_sample_size(
    query: SampleSizeQuery,
    *,
    progress: Optional[Callable[[int, float], None]] = None,
    threads: Optional[int] = None,
) -> SampleSizeResult:
    """Scan n = n_start, n_start+1, ... for worst-case coverage > 1 - delta.

    The comparison is strict; with guard_band the threshold is raised by
    GUARD_BAND to absorb summation noise on the pass side.
    """
    threshold = float(1 - query.delta)
    if query.guard_band:
        threshold += GUARD_BAND
    trace: list[tuple[int, float, Fraction]] = []
    for n in range(query.n_start, query.n_max + 1):
        report = min_coverage(
            query.family, n, query.criterion, query.estimator, query.a, query.b,
            threads=threads,
        )
        trace.append((n, report.min_coverage, report.argmin_theta))
        if progress is not None:
            progress(n, report.min_coverage)
        if report.min_coverage > threshold:
            return SampleSizeResult(
                query=query,
                n_min=n,
                coverage_at_n_min=report.min_coverage,
                argmin_theta=report.argmin_theta,
                trace=tuple(trace),
            )
    return SampleSizeResult(
        query=query, n_min=None, coverage_at_n_min=None, argmin_theta=None,
        trace=tuple(trace),
    )
