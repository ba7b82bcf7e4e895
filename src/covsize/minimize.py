"""Worst-case coverage over a parameter interval, via the candidate set."""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from ._exact import exact
from .candidates import CandidateSet, candidate_set_for
from .coverage import ErrorCriterion, EstimatorKind, acceptance_windows
# not called here: perfbench's tracer still wraps this name, which it checks exists
from .coverage import coverage  # noqa: F401
from .errors import DomainError
from .families import DistributionFamily, prob_ranges, resolve_family, scalar_prob_range

THREADS_ENV = "COVSIZE_THREADS"


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
    if threads < 1:
        raise DomainError(f"thread count must be >= 1, got {threads}")
    return threads


@dataclass(frozen=True)
class CoverageReport:
    """Minimum coverage over [a, b] at a fixed n, with all candidate evaluations."""

    n: int
    min_coverage: float
    argmin_theta: Fraction
    evaluations: tuple[tuple[Fraction, float], ...]
    candidate_set: CandidateSet


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

    Windows come from one integer pass and, with `cdf_batch`, probabilities
    from one vectorized call.  Ties break toward the smallest theta among
    float-equal values, so exact ties such as the mirror points theta and
    1 - theta of a symmetric query can swap when the floats' last bits do.
    Evaluations are in ascending theta order; `threads` is only validated.
    """
    fam = resolve_family(family)
    resolve_threads(threads)
    a = exact(a, name="a")
    b = exact(b, name="b")
    for endpoint, label in ((a, "a"), (b, "b")):
        if not fam.param_space.admits(endpoint):
            raise DomainError(
                f"interval endpoint {label}={endpoint} outside parameter space "
                f"{fam.param_space.describe()} of family '{fam.name}'"
            )
    # every candidate lies in [a, b], inside the family's parameter interval
    cset = candidate_set_for(n, criterion, estimator, a, b)
    thetas = cset.thetas
    lo, hi, open_lo, open_hi = acceptance_windows(n, criterion, estimator, thetas)
    lo = np.where(open_lo, fam.support_bound(n)[0], lo)
    if fam.cdf_batch is not None:
        tf = np.array([float(t) for t in thetas])
        values = prob_ranges(fam, n, tf, lo, hi, open_hi).tolist()
    else:
        values = [
            1.0 if top and bottom else scalar_prob_range(fam, n, k, None if top else l, t)
            for t, k, l, bottom, top in zip(
                thetas, lo.tolist(), hi.tolist(), open_lo.tolist(), open_hi.tolist()
            )
        ]

    best = min(values)
    argmin = next(t for t, v in zip(thetas, values) if v == best)
    return CoverageReport(
        n=n,
        min_coverage=best,
        argmin_theta=argmin,
        evaluations=tuple(zip(thetas, values)),
        candidate_set=cset,
    )
