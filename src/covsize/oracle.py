"""Brute-force cross-checks for the closed-form coverage machinery.

`indicator_coverage` never touches the window formulas: it tests the raw
acceptance event k by k in exact arithmetic (the estimate is nondecreasing
in k, so the accepted set is one contiguous window, found by direct scan).
`grid_min_coverage` sweeps a dense theta grid, optionally merged with the
candidate points, and reports the smallest coverage seen.  Agreement between
this scan and the candidate-set minimum is what certifies the reduction.

The grid scan has a vectorized fast path built on library CDFs; any grid row
whose window thresholds land near an integer, or near a clamp switchover, is
re-evaluated through the exact scalar path, as are all candidate points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from ._exact import exact
from .candidates import candidate_set_for
from .coverage import (
    Absolute,
    ErrorCriterion,
    EstimatorKind,
    Mixed,
    RangePreserving,
    Relative,
)
from .errors import DomainError
from .families import DistributionFamily, prob_range, prob_ranges, resolve_family

# rows whose float thresholds sit this close to a decision boundary are
# recomputed exactly
_FLAG_RTOL = 1e-9
# grids at least this long go through the vectorized CDF path when available
_VECTOR_MIN_ROWS = 16


@dataclass(frozen=True)
class GridSpec:
    """Dense scan of [a, b] at spacing `step`, from a upward.

    The step must not exceed (b - a) / 10, so every scan sees at least some
    interior structure.  With include_candidates the candidate points are
    evaluated as well, which makes the scan minimum a true upper bound for
    the candidate-set minimum.
    """

    step: Fraction
    include_candidates: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "step", exact(self.step, name="step"))
        if self.step <= 0:
            raise DomainError(f"grid step must be positive, got {self.step}")

    @classmethod
    def divide(cls, a: Fraction, b: Fraction, cells: int = 10_000,
               include_candidates: bool = True) -> "GridSpec":
        a = exact(a, name="a")
        b = exact(b, name="b")
        if not (a < b and cells >= 10):
            raise DomainError(f"need a < b and cells >= 10, got a={a}, b={b}, cells={cells}")
        return cls(step=(b - a) / cells, include_candidates=include_candidates)


def _margin_at(criterion: ErrorCriterion, theta: Fraction) -> Fraction:
    match criterion:
        case Absolute(eps=eps):
            return eps
        case Relative(eps=eps):
            if theta <= 0:
                raise DomainError(f"relative coverage needs theta > 0, got {theta}")
            return eps * theta
        case Mixed():
            return max(criterion.eps_abs, criterion.eps_rel * theta)
    raise DomainError(f"unknown criterion {criterion!r}")


def indicator_coverage(
    family: DistributionFamily | str,
    n: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    theta: Fraction,
) -> float:
    """Coverage computed from the raw event, one support point at a time."""
    fam = resolve_family(family)
    theta = fam.require_theta(theta)
    rp = isinstance(estimator, RangePreserving)
    if rp and not estimator.lower <= theta <= estimator.upper:
        raise DomainError(
            f"theta={theta} outside the range-preserving interval "
            f"[{estimator.lower}, {estimator.upper}]"
        )
    m = _margin_at(criterion, theta)
    kmin, kmax = fam.support_bound(n)

    def accepted(k: int) -> bool:
        v = Fraction(k, n)
        if rp:
            if v < estimator.lower:
                v = estimator.lower
            elif v > estimator.upper:
                v = estimator.upper
        return abs(v - theta) < m

    # transitions of `accepted` happen while the estimate moves through
    # (theta - m, theta + m) or up to the upper clamp; beyond both it is
    # constant in k
    top_change = math.ceil(n * (theta + m)) + 2
    if rp:
        top_change = max(top_change, math.ceil(n * estimator.upper) + 2)
    if kmax is not None:
        top_change = min(top_change, kmax)

    if accepted(kmin):
        lo = kmin
    else:
        # below this every estimate is either at the (rejected) lower clamp
        # or more than m under theta
        start = max(kmin, math.floor(n * (theta - m)) - 2)
        lo = next((k for k in range(start, top_change + 1) if accepted(k)), None)
        if lo is None:
            return 0.0

    k = lo
    while k < top_change and accepted(k + 1):
        k += 1
    if k >= top_change and accepted(k):
        # still accepted where transitions have stopped: window runs through
        # the top of the support
        return prob_range(fam, n, lo, None, theta)
    return prob_range(fam, n, lo, k, theta)


# ---------------------------------------------------------------------------
# vectorized grid rows

def _near_int(x: np.ndarray) -> np.ndarray:
    return np.abs(x - np.rint(x)) <= _FLAG_RTOL * np.maximum(1.0, np.abs(x))


def _near(x: np.ndarray, y: float) -> np.ndarray:
    return np.abs(x - y) <= _FLAG_RTOL * max(1.0, abs(y))


def _vector_rows(
    fam: DistributionFamily,
    n: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    tf: np.ndarray,
    af: float,
    bf: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Float coverage per grid row plus a mask of rows needing exact redo."""
    kmin, _ = fam.support_bound(n)
    rp = isinstance(estimator, RangePreserving)
    flags = np.zeros(tf.shape, dtype=bool)

    def one_window(eps_f: float, relative: bool):
        if relative:
            lo_edge = tf * (1.0 - eps_f)
            hi_edge = tf * (1.0 + eps_f)
        else:
            lo_edge = tf - eps_f
            hi_edge = tf + eps_f
        t_lo = n * lo_edge
        t_hi = n * hi_edge
        lo = np.floor(t_lo).astype(np.int64) + 1
        hi = np.ceil(t_hi).astype(np.int64) - 1
        nonlocal flags
        flags |= _near_int(t_lo) | _near_int(t_hi)
        open_top = np.zeros(tf.shape, dtype=bool)
        if rp:
            lo = np.where(lo_edge < af, kmin, lo)
            open_top = hi_edge > bf
            flags |= _near(lo_edge, af) | _near(hi_edge, bf)
        return lo, hi, open_top

    match criterion:
        case Absolute(eps=eps):
            lo, hi, open_top = one_window(float(eps), False)
        case Relative(eps=eps):
            lo, hi, open_top = one_window(float(eps), True)
        case Mixed():
            lo_a, hi_a, open_a = one_window(float(criterion.eps_abs), False)
            lo_r, hi_r, open_r = one_window(float(criterion.eps_rel), True)
            # the two margins give nested windows; the union is the wider one
            lo = np.minimum(lo_a, lo_r)
            hi = np.maximum(hi_a, hi_r)
            open_top = open_a | open_r
        case _:
            raise DomainError(f"unknown criterion {criterion!r}")

    space = fam.param_space
    if space.include_lower:
        flags |= _near(tf, float(space.lower))
    if space.upper is not None and space.include_upper:
        flags |= _near(tf, float(space.upper))

    return prob_ranges(fam, n, tf, lo, hi, open_top), flags


def grid_min_coverage(
    family: DistributionFamily | str,
    n: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    a: Fraction,
    b: Fraction,
    grid: GridSpec,
) -> tuple[float, Fraction]:
    """Smallest coverage over the grid (and candidates, if included) on [a, b].

    Returns (value, theta); ties resolve to the smallest theta.  Candidate
    points and boundary-suspicious grid rows are evaluated through the exact
    indicator path.
    """
    fam = resolve_family(family)
    a = exact(a, name="a")
    b = exact(b, name="b")
    if not a < b:
        raise DomainError(f"need a < b, got a={a}, b={b}")
    for endpoint, label in ((a, "a"), (b, "b")):
        if not fam.param_space.admits(endpoint):
            raise DomainError(
                f"interval endpoint {label}={endpoint} outside parameter space "
                f"{fam.param_space.describe()} of family '{fam.name}'"
            )
    if isinstance(estimator, RangePreserving) and (
        estimator.lower != a or estimator.upper != b
    ):
        raise DomainError(
            f"range-preserving clamp [{estimator.lower}, {estimator.upper}] must "
            f"equal the scanned interval [{a}, {b}]"
        )
    if grid.step > (b - a) / 10:
        raise DomainError(
            f"grid step {grid.step} too coarse for [{a}, {b}]; need at most (b-a)/10"
        )

    rows = int(math.floor((b - a) / grid.step)) + 1

    def exact_theta(j: int) -> Fraction:
        return a + j * grid.step

    values: Optional[np.ndarray] = None
    if (
        fam.cdf_batch is not None
        and rows >= _VECTOR_MIN_ROWS
    ):
        tf = float(a) + float(grid.step) * np.arange(rows, dtype=np.float64)
        values, flagged = _vector_rows(fam, n, criterion, estimator, tf, float(a), float(b))
        for j in np.nonzero(flagged)[0]:
            values[j] = indicator_coverage(fam, n, criterion, estimator, exact_theta(int(j)))
    if values is None:
        values = np.empty(rows, dtype=np.float64)
        for j in range(rows):
            values[j] = indicator_coverage(fam, n, criterion, estimator, exact_theta(j))

    best = float(values.min())
    attaining = [exact_theta(int(j)) for j in np.nonzero(values == best)[0][:1]]

    if grid.include_candidates:
        cset = candidate_set_for(n, criterion, estimator, a, b)
        for theta in cset.thetas:
            v = indicator_coverage(fam, n, criterion, estimator, theta)
            if v < best:
                best = v
                attaining = [theta]
            elif v == best:
                attaining.append(theta)

    return best, min(attaining)
