"""Worst-case coverage over a parameter interval, via the candidate set."""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from ._exact import exact
from .candidates import CandidateBlock, CandidateSet, _block, _Spec, candidate_set_for
from .coverage import ErrorCriterion, EstimatorKind, windows_at
# not called here: perfbench's tracer still wraps this name, which it checks exists
from .coverage import coverage  # noqa: F401
from .errors import DomainError
from .families import (DistributionFamily, _check_int, _check_n, prob_min, prob_ranges,
                       resolve_family)

THREADS_ENV = "COVSIZE_THREADS"
# a witness looks this many lattice spacings (1/n) either side of its centre
WITNESS_RADIUS = 3


def resolve_threads(threads: Optional[int]) -> int:
    """Validated thread count from the argument or COVSIZE_THREADS.

    It changes no work: a thread pool measured about 2x slower than one thread.
    """
    if threads is None:
        raw = os.environ.get(THREADS_ENV, "1")
        try:
            threads = int(raw)
        except ValueError:
            raise DomainError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    _check_int(threads, "thread count")
    if threads < 1:
        raise DomainError(f"thread count must be >= 1, got {threads}")
    return threads


@dataclass(frozen=True)
class CoverageReport:
    """Minimum coverage over [a, b] at a fixed n: `values` holds the coverage at
    each candidate, in order, and `evaluations` pairs them with the thetas.
    `values` are evaluated on first read: the minimum came from `prob_min`,
    equal to theirs bit for bit."""

    n: int
    min_coverage: float
    argmin_theta: Fraction
    candidate_set: CandidateSet
    family: DistributionFamily

    @cached_property
    def values(self) -> tuple[float, ...]:
        rows = _rows(self.n, self.candidate_set)
        return tuple(prob_ranges(self.family, *rows).tolist())

    @cached_property
    def evaluations(self) -> tuple[tuple[Fraction, float], ...]:
        return tuple(zip(self.candidate_set.thetas, self.values))


def min_coverage(
    family: DistributionFamily | str,
    n: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    a: Fraction,
    b: Fraction,
    *,
    threads: Optional[int] = None,
) -> CoverageReport:
    """Minimize coverage over theta in [a, b] by evaluating the candidate set.

    Windows come from one integer pass and the minimum from one `prob_min`
    call at the candidates' floats, equal bit for bit to the minimum of
    `prob_ranges` over them.  Ties break toward the smallest theta among
    float-equal values, so exact ties such as the mirror points theta and
    1 - theta of a symmetric query can swap when the floats' last bits do.
    Evaluations are in ascending theta order; `threads` is only validated.
    """
    fam = resolve_family(family)
    _check_n(n)
    resolve_threads(threads)
    a = exact(a, name="a")
    b = exact(b, name="b")
    fam.require_interval(a, b)
    # every candidate lies in [a, b], inside the family's parameter interval
    cset = candidate_set_for(n, criterion, estimator, a, b)
    value, argmin = prob_min(fam, *_rows(n, cset))
    return CoverageReport(n=n, min_coverage=value,
                          argmin_theta=Fraction(int(cset.numerators[argmin]), cset.den),
                          candidate_set=cset, family=fam)


def _witness_minima(fam: DistributionFamily, spec: _Spec, n0: int, count: int,
                    near: Fraction) -> tuple[CandidateBlock, np.ndarray, np.ndarray]:
    """The witnesses of n = n0, ..., n0 + count - 1 in one evaluation.

    Returns the `_block` of the candidates within WITNESS_RADIUS / n of
    `near`, the coverage at its every row, and each n's argmin row: the
    smallest theta among float-equal minima, as in `min_coverage`.  The rows
    go through the windows and probabilities of a full sweep, with one n per
    row, so every value is bit-equal to the sweep's at that theta.  The
    caller passes a resolved family, a validated query and n0, count >= 1.
    """
    block = _block(spec, n0, count, near, WITNESS_RADIUS)
    values = prob_ranges(fam, *_rows(block.n, block))
    starts = block.starts
    minima = np.minimum.reduceat(values, starts[:-1])
    lowest = (values == minima.repeat(starts[1:] - starts[:-1])).nonzero()[0]
    return block, values, lowest[lowest.searchsorted(starts[:-1])]


def _rows(n, points) -> tuple:
    """`prob_ranges`' arguments after the family at the points (run, k,
    floats) of a candidate set or block; n is one int or one per point."""
    return n, points.floats, *windows_at(points.spec.windows, n, points.run, points.k)
