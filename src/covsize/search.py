"""Smallest n whose worst-case coverage clears the confidence requirement.

The worst-case coverage is not monotone in n, so the search walks n upward
one step at a time and certifies every n it rejects; the trace it returns is
gapless from n_start to the answer.  A rejection needs only one theta whose
coverage is at most 1 - delta, so most n are rejected by a few candidates
near an earlier n's argmin, a block of n in one evaluation, and only an
acceptance needs the whole set.  A large block is tried in two slices, the
second only when every n of the first is rejected, so no block evaluates
rows far past the n that ends it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from ._exact import exact
from .coverage import ErrorCriterion, EstimatorKind
from .errors import DomainError
from .families import _check_n, resolve_family
from .minimize import WITNESS_RADIUS, _witness_minima, min_coverage

# nudge for float comparison against 1 - delta when requested
GUARD_BAND = 1e-12
# a witness block grows by this factor while all its n are rejected, up to
# BLOCK_MAX n: each block costs about 0.1 ms more than its n's own work
BLOCK_GROWTH, BLOCK_MAX = 8, 1024


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
    other rejected n it is the witness that rejected it, found in a block of
    n that shared one centre: the coverage at theta, exact to the last bit,
    at most 1 - delta, and an upper bound on that n's minimum.  With
    `full_trace` every entry is a full minimum.
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

    Witness first: after n_start, the n are tried in blocks.  A block's n
    are tried together on the candidates within WITNESS_RADIUS / n of the
    last trace entry's theta (see `_witness_minima`), whose values are
    bit-equal to the full sweep's at the same thetas, so a witness at or
    below the threshold rejects n exactly as `min_coverage` would.  A block
    ends at its first n that its witness does not reject.  Unless that n was
    the block's first, whose centre was the entry of n - 1 already, it is
    tried again on its own, centred there; if that does not reject it either,
    the full candidate set decides it.  Blocks start at one n and grow by
    BLOCK_GROWTH, up to BLOCK_MAX, while every n is rejected and the last
    minimum lies inside its window: a minimum on the window's edge may have
    a lower one just beyond it, which a block, centred on one theta, would
    not follow.  A block that ends after its first n is followed by a block
    of one n.  A block of more than BLOCK_GROWTH**2 n (512 or 1024) is
    evaluated in two slices: its first count // BLOCK_GROWTH n, and the rest
    only if all of those are rejected.  A row depends only on the query, its
    n, the centre and WITNESS_RADIUS, so every trace entry is that of the
    whole block.  The golden-101 and mixed-96 searches, whose block of 512 n
    from n = 85 ends at n = 101 and 96, evaluate 64 of those n: 2.6 and 3.0
    ms of CPU from n = 2, against 5.6 and 12.4 ms whole (best of 5, 2-vCPU
    machine).  Smaller blocks stay whole: a slice costs about as much of its
    own as a block does (see BLOCK_GROWTH).
    When n is accepted and n - 1 was rejected by a witness,
    n - 1 is swept too, so both entries around the decision hold full
    minima.  `full_trace=True` sweeps every n in full.  `progress(n, value)`
    is called once per n, with the value first put in the trace for that
    n: at n_min - 1 that can be the witness's, later replaced by the full
    minimum.

    The comparison is strict; with guard_band the threshold is raised by
    GUARD_BAND to absorb summation noise on the pass side.
    """
    threshold = float(1 - query.delta)
    if query.guard_band:
        threshold += GUARD_BAND
    args = (query.criterion, query.estimator, query.a, query.b)
    family, spec = resolve_family(query.family), None
    trace: list[tuple[int, float, Fraction]] = []
    swept: list[int] = []

    def sweep(n: int) -> tuple[float, Fraction]:
        nonlocal spec
        swept.append(n)
        report = min_coverage(family, n, *args, threads=threads)
        if spec is None:  # the query is valid: make its block tables on this step
            spec = report.candidate_set.spec
            spec.tables
        return report.min_coverage, report.argmin_theta

    def record(n: int, value: float, theta: Fraction) -> None:
        trace.append((n, value, theta))
        if progress is not None:
            progress(n, value)

    n, size = query.n_start, 1
    while n <= query.n_max:
        if trace and not full_trace:
            near, count = trace[-1][2], min(size, query.n_max + 1 - n)
            # a block of more than BLOCK_GROWTH**2 n tries its first
            # count // BLOCK_GROWTH n first, and the rest only if they are all
            # rejected: a row depends on its n and near alone
            start, head = n, count // BLOCK_GROWTH if count > BLOCK_GROWTH**2 else count
            for part in (head, count - head):
                block, values, best = _witness_minima(family, spec, n, part, near)
                minima = values[best].tolist()
                stop = next((i for i, v in enumerate(minima) if v > threshold), part)
                for i, theta in enumerate(block.thetas(best[:stop])):
                    record(n + i, minima[i], theta)
                n += stop
                if stop < part or n == start + count:
                    break
            if n > start:  # the next block is centred on the new last entry
                # |theta - near| * (n - 1) > WITNESS_RADIUS - 1 for its theta = p / q
                (p, q), (tn, td) = trace[-1][2].as_integer_ratio(), near.as_integer_ratio()
                edge = abs(p * td - tn * q) * (n - 1) > (WITNESS_RADIUS - 1) * q * td
                whole = n == start + count
                size = min(BLOCK_GROWTH * size, BLOCK_MAX) if whole and not edge else 1
                continue
        value, theta = sweep(n)
        if value > threshold and trace and n - 1 not in swept:
            trace[-1] = (n - 1, *sweep(n - 1))
        record(n, value, theta)
        if value > threshold:
            return SampleSizeResult(
                query=query,
                n_min=n,
                coverage_at_n_min=value,
                argmin_theta=theta,
                trace=tuple(trace),
                full_sweeps=tuple(sorted(swept)),
            )
        n += 1
    return SampleSizeResult(
        query=query, n_min=None, coverage_at_n_min=None, argmin_theta=None,
        trace=tuple(trace), full_sweeps=tuple(swept),
    )
