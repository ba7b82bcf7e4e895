"""Brute-force cross-checks for the closed-form coverage machinery.

`indicator_coverage` never touches the window formulas: it tests the raw
acceptance event in exact arithmetic.  The estimate is nondecreasing in k,
so each half of the event is monotone and the accepted set is one
contiguous window, whose ends are found by bisection on the raw event.
Each probe compares the (clamped) estimate k/n with theta - m and theta + m
by integer cross-multiplication; no Fraction is built per probe.
`grid_min_coverage` sweeps a dense theta grid, optionally merged with the
candidate points, and reports the smallest coverage seen.  Agreement between
this scan and the candidate-set minimum is what certifies the reduction.

The grid scan has a vectorized fast path built on library CDFs; any grid row
whose window thresholds land near an integer, or near a clamp switchover, is
re-evaluated through the exact path, as are all candidate points and every
row of a family without `cdf_batch`.  The exact rows find their windows one
theta at a time, then take their probabilities from one `prob_ranges` call
per group (flagged rows, candidates), for either kind of family, each row
bit-equal to the scalar `prob_range` that `indicator_coverage` calls.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
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
from .families import DistributionFamily, _check_n, prob_range, prob_ranges, resolve_family

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


def _window(
    fam: DistributionFamily,
    n: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    theta: Fraction,
) -> Optional[tuple[int, Optional[int]]]:
    """Accepted outcomes at theta as (lo, hi), hi None when the window runs
    through the top of the support; None when no outcome is accepted."""
    _check_n(n)
    theta = fam.require_theta(theta)
    rp = isinstance(estimator, RangePreserving)
    if rp and not estimator.lower <= theta <= estimator.upper:
        raise DomainError(
            f"theta={theta} outside the range-preserving interval "
            f"[{estimator.lower}, {estimator.upper}]"
        )
    m = _margin_at(criterion, theta)
    low, high = theta - m, theta + m
    kmin, kmax = fam.support_bound(n)

    def past(edge: Fraction, inclusive: bool):
        """Key k -> estimate(k) > edge (>= if inclusive), in integers: k/n
        against p/q is k*q against p*n, and a clamped estimate is a constant
        whose side of the edge is decided once."""
        q, pn = edge.denominator, edge.numerator * n
        raw = (lambda k: k * q >= pn) if inclusive else (lambda k: k * q > pn)
        if not rp:
            return raw
        lower, upper = estimator.lower, estimator.upper
        at_lower = lower >= edge if inclusive else lower > edge
        at_upper = upper >= edge if inclusive else upper > edge
        ld, lpn = lower.denominator, lower.numerator * n
        ud, upn = upper.denominator, upper.numerator * n
        return lambda k: (at_lower if k * ld < lpn
                          else at_upper if k * ud > upn else raw(k))

    # transitions of the event happen while the estimate moves through
    # (theta - m, theta + m) or up to the upper clamp; beyond both it is
    # constant in k
    top_change = math.ceil(n * high) + 2
    if rp:
        top_change = max(top_change, math.ceil(n * estimator.upper) + 2)
    if kmax is not None:
        top_change = min(top_change, kmax)

    # the estimate is nondecreasing in k, so each half of |v - theta| < m is
    # monotone: bisect for the first k above theta - m, then for the first k
    # at or past theta + m
    ks = range(kmin, top_change + 1)
    first = bisect_left(ks, True, key=past(low, False))
    stop = bisect_left(ks, True, first, key=past(high, True))
    if stop == first:
        return None
    # still accepted where transitions have stopped: the window runs through
    # the top of the support
    return ks[first], None if stop == len(ks) else ks[stop - 1]


def indicator_coverage(
    family: DistributionFamily | str,
    n: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    theta: Fraction,
) -> float:
    """Coverage computed from the raw event, its window ends found by bisection."""
    fam = resolve_family(family)
    window = _window(fam, n, criterion, estimator, theta)
    return 0.0 if window is None else prob_range(fam, n, *window, theta)


def _exact_values(
    fam: DistributionFamily,
    n: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    thetas: Sequence[Fraction],
) -> np.ndarray:
    """`indicator_coverage` at each theta: the non-empty windows go through
    one `prob_ranges` call, whose rows are bit-equal to `prob_range`."""
    windows = [_window(fam, n, criterion, estimator, t) for t in thetas]
    full = [j for j, w in enumerate(windows) if w is not None]
    values = np.zeros(len(thetas), dtype=np.float64)
    if full:
        lo, hi = zip(*(windows[j] for j in full))
        open_top = np.array([h is None for h in hi])
        # an open row's upper CDF is never read; its lo stands in
        hi = [l if h is None else h for l, h in zip(lo, hi)]
        tf = np.array([float(thetas[j]) for j in full])
        values[full] = prob_ranges(fam, n, tf, np.array(lo), np.array(hi), open_top)
    return values


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

    Returns (value, theta); ties resolve to the smallest theta.  With
    `cdf_batch`, grids of at least `_VECTOR_MIN_ROWS` rows are scanned in
    float arithmetic first; candidate points, boundary-suspicious grid rows
    and every row of a family without `cdf_batch` are evaluated through the
    exact indicator path, each group in one `prob_ranges` batch.
    """
    fam = resolve_family(family)
    _check_n(n)
    a = exact(a, name="a")
    b = exact(b, name="b")
    if not a < b:
        raise DomainError(f"need a < b, got a={a}, b={b}")
    fam.require_interval(a, b)
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

    if fam.cdf_batch is not None and rows >= _VECTOR_MIN_ROWS:
        tf = float(a) + float(grid.step) * np.arange(rows, dtype=np.float64)
        values, flagged = _vector_rows(fam, n, criterion, estimator, tf, float(a), float(b))
        exact_rows = np.nonzero(flagged)[0]
    else:
        values = np.empty(rows, dtype=np.float64)
        exact_rows = np.arange(rows)
    values[exact_rows] = _exact_values(fam, n, criterion, estimator,
                                       [exact_theta(int(j)) for j in exact_rows])
    # argmin takes the first, smallest theta of the tied rows
    j = int(np.argmin(values))
    best, theta = float(values[j]), exact_theta(j)

    if grid.include_candidates:
        thetas = candidate_set_for(n, criterion, estimator, a, b).thetas
        cand = _exact_values(fam, n, criterion, estimator, thetas)
        low = float(cand.min())
        if low <= best:
            tied = min(t for t, v in zip(thetas, cand.tolist()) if v == low)
            theta = tied if low < best else min(theta, tied)
            best = low

    return best, theta
