"""Smallest n whose worst-case coverage clears the confidence requirement.

The worst-case coverage is not monotone in n, so the search walks n upward
one step at a time and certifies every n it rejects; the trace it returns is
gapless from n_start to the answer.  A rejection needs only one theta whose
coverage is at most 1 - delta, so most n are rejected by a few candidates
near the previous argmin, and only an acceptance needs the whole set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from ._exact import exact
from .coverage import ErrorCriterion, EstimatorKind
from .errors import DomainError
from .families import _check_n
from .minimize import min_coverage, witness_min_coverage

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
    (n, coverage, theta) for every n examined, in order.  At n_min and
    n_min - 1 the entry is that n's full minimum and its argmin.  At any
    other rejected n it is the witness that rejected it: the coverage at
    theta, exact to the last bit, at most 1 - delta, and an upper bound on
    that n's minimum.  With `full_trace` every entry is a full minimum.
    `full_sweeps` lists, in ascending order, the n whose whole candidate set
    was evaluated.
    """

    query: SampleSizeQuery
    n_min: Optional[int]
    coverage_at_n_min: Optional[float]
    argmin_theta: Optional[Fraction]
    trace: tuple[tuple[int, float, Fraction], ...] = field(repr=False)
    full_sweeps: tuple[int, ...] = field(repr=False)

    @property
    def found(self) -> bool:
        return self.n_min is not None


def min_sample_size(
    query: SampleSizeQuery,
    *,
    progress: Optional[Callable[[int, float], None]] = None,
    threads: Optional[int] = None,
    full_trace: bool = False,
) -> SampleSizeResult:
    """Scan n = n_start, n_start+1, ... for worst-case coverage > 1 - delta.

    Witness first: after n_start, each n is first tried on the few
    candidates within WITNESS_RADIUS / n of the previous n's argmin (see
    `witness_min_coverage`).  Their values are bit-equal to the full sweep's
    at the same thetas, so a witness at or below the threshold rejects n
    exactly as `min_coverage` would; otherwise the full candidate set
    decides n.  When n is accepted and n - 1 was rejected by a witness, n - 1
    is swept too, so both entries around the decision hold full minima.
    `full_trace=True` sweeps every n in full.  `progress(n, value)` is called
    once per n, with the value first put in the trace for that n: at n_min - 1
    that can be the witness's, later replaced by the full minimum.

    The comparison is strict; with guard_band the threshold is raised by
    GUARD_BAND to absorb summation noise on the pass side.
    """
    threshold = float(1 - query.delta)
    if query.guard_band:
        threshold += GUARD_BAND
    family, args = query.family, (query.criterion, query.estimator, query.a, query.b)
    trace: list[tuple[int, float, Fraction]] = []
    swept: list[int] = []

    def sweep(n: int) -> tuple[float, Fraction]:
        swept.append(n)
        report = min_coverage(family, n, *args, threads=threads)
        return report.min_coverage, report.argmin_theta

    for n in range(query.n_start, query.n_max + 1):
        if full_trace or not trace:
            value, theta = sweep(n)
        else:
            witness = witness_min_coverage(family, n, *args, near=trace[-1][2])
            value, theta = witness.min_coverage, witness.argmin_theta
            if value > threshold:
                value, theta = sweep(n)
        if value > threshold and trace and n - 1 not in swept:
            trace[-1] = (n - 1, *sweep(n - 1))
        trace.append((n, value, theta))
        if progress is not None:
            progress(n, value)
        if value > threshold:
            return SampleSizeResult(
                query=query,
                n_min=n,
                coverage_at_n_min=value,
                argmin_theta=theta,
                trace=tuple(trace),
                full_sweeps=tuple(sorted(swept)),
            )
    return SampleSizeResult(
        query=query, n_min=None, coverage_at_n_min=None, argmin_theta=None,
        trace=tuple(trace), full_sweeps=tuple(swept),
    )
