"""Brute-force cross-checks for the closed-form coverage machinery.

`indicator_coverage` never touches the window formulas: it tests the raw
acceptance event in exact arithmetic.  The estimate is nondecreasing in k,
so each half of the event is monotone and the accepted set is one
contiguous window, whose ends are found by bisection on the raw event.
Each probe compares the (clamped) estimate k/n with theta - m and theta + m
by integer cross-multiplication; no Fraction is built per probe.  The
bisection is vectorized: many thetas over one denominator, both ends of
each window in the same loop, in int64 where a bound allows and in Python
ints otherwise; `indicator_coverage` is its one-theta case.
`grid_min_coverage` sweeps a dense theta grid, optionally merged with the
candidate points, and reports the smallest coverage seen.  Agreement between
this scan and the candidate-set minimum is what certifies the reduction.

Every grid of a family with `cdf_batch` takes a vectorized path built on its
CDFs: one floor per window threshold gives every row's float window, and a
row is flagged when a threshold lands near an integer (tested only where the
floor's fraction is nearly 0 or 1) or near a clamp switchover.  Flagged rows,
the candidate points (the set `min_coverage` built, while held) and every row
of a family without `cdf_batch` find their windows in one bisection and take
their probabilities from one `prob_ranges` call, each row bit-equal to the
scalar `prob_range` of `indicator_coverage` (a window that accepts nothing
is the row lo .. lo - 1, read as 0.0); the least of them seeds the scan's best.

The other rows are not all read.  They fall into maximal runs of rows with
one window [k, l], whose two end rows are evaluated, and every evaluated row
keeps the two CDF values it read, F(k - 1; theta) and F(l; theta).  The
family promises that F(l; theta) = Pr{Y_n <= l | theta} does not increase in
theta, so on a run from theta_s to theta_e every row's coverage is at least
F(l; theta_e) - F(k - 1; theta_s) (an interval bound, Moore 1966), from
values already in hand.  A run whose window reads no CDF value (the whole
support, or a window outside it) or one value twice (an empty window) holds
its start row's value on every row, bit for bit, and is dropped.  Level by
level, a run whose bound exceeds the best value by more than `_PRUNE_MARGIN`
is dropped, one with at most `_LEAF_ROWS` interior rows is evaluated whole,
and any other is split at its middle row, which is evaluated and bounds both
halves: at most one `cdf_batch` call per level.  A dropped row is strictly
above the result or equal to an evaluated row of smaller theta, so the
scan's (value, theta) is that of evaluating every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._exact import exact
from .candidates import _floats, candidate_set_for
from .coverage import (
    Absolute,
    ErrorCriterion,
    EstimatorKind,
    Mixed,
    RangePreserving,
    Relative,
)
from .errors import DomainError
from .families import (DistributionFamily, _cdf_ends, _cdf_keys, _check_n, prob_range, prob_ranges,
                       resolve_family)

# rows whose float thresholds sit this close to a decision boundary are
# recomputed exactly
_FLAG_RTOL = 1e-9
# a run is dropped when its bound exceeds the best value by this much: twice
# the 5e-10 cross-check tolerance, and far above 4x the float CDFs' error
# (at most 5e-11 up to n = 10**6)
_PRUNE_MARGIN = 1e-9
# runs with at most this many interior rows are evaluated whole
_LEAF_ROWS = 16


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


def _windows(
    fam: DistributionFamily,
    n: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    t: np.ndarray,
    den: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accepted outcomes at the thetas t / den (integers over one positive
    denominator) as int64 arrays (lo, hi) and a mask open_top, where the
    window runs through the top of the support; one that accepts nothing is
    lo .. lo - 1, never open.  The thetas are validated by their least and
    greatest."""
    tmin, tmax = int(t.min()), int(t.max())
    lowest = fam.require_theta(Fraction(tmin, den))
    highest = lowest if tmax == tmin else fam.require_theta(Fraction(tmax, den))
    rp = isinstance(estimator, RangePreserving)
    if rp and not estimator.lower <= lowest <= highest <= estimator.upper:
        outside = lowest if lowest < estimator.lower else highest
        raise DomainError(
            f"theta={outside} outside the range-preserving interval "
            f"[{estimator.lower}, {estimator.upper}]"
        )
    # over q = den * d * g, theta is t * d * g and its margin m: eps_abs =
    # e / d up to the crossover, eps_rel * theta = f * theta / g beyond it,
    # the wider where both apply
    match criterion:
        case Absolute(eps=eps):
            (e, d), (f, g) = eps.as_integer_ratio(), (0, 1)
        case Relative(eps=eps):
            if lowest <= 0:
                raise DomainError(f"relative coverage needs theta > 0, got {lowest}")
            (e, d), (f, g) = (0, 1), eps.as_integer_ratio()
        case Mixed(eps_abs=eps_abs, eps_rel=eps_rel):
            (e, d), (f, g) = eps_abs.as_integer_ratio(), eps_rel.as_integer_ratio()
        case _:
            raise DomainError(f"unknown criterion {criterion!r}")
    q, kmin, kmax = den * d * g, *fam.support_bound(n)
    (ln, ld), (un, ud) = ((estimator.lower.as_integer_ratio(), estimator.upper.as_integer_ratio())
                          if rp else ((0, 1), (0, 1)))
    # a bound on every integer below: edges, k * q and its key edge * n, with
    # k at most twice the top of the search; else Python ints, which never wrap
    edge = max(abs(tmin), abs(tmax)) * (d * g + f * d) + e * g * den
    bound = 4 * (edge * (n + max(ld, ud)) + (n * -(-un // ud) + abs(kmin) + ln + un + 8) * q)
    t = t.astype(np.int64 if bound < 2**62 else object)
    m = np.maximum(e * g * den, f * d * t)
    low, high = t * (d * g) - m, t * (d * g) + m
    # transitions of the event happen while the estimate moves through
    # (theta - m, theta + m) or up to the upper clamp; beyond both it is
    # constant in k
    end = -(-n * high // q) + 3
    if rp:
        end = np.maximum(end, -(-n * un // ud) + 3)
    if kmax is not None:
        end = np.minimum(end, kmax + 1)
    end = np.maximum(end, kmin)
    # the estimate is nondecreasing in k, so each half of |v - theta| < m is
    # monotone: the first k whose estimate is past theta - m, and the first
    # at or past theta + m, which is never below it.  k / n > low is
    # k * q >= low * n + 1 and k / n >= high is k * q >= high * n
    edges, strict = np.array((low, high)), np.array([[1], [0]])
    key = edges * n + strict
    if rp:
        # a clamped estimate passes an edge where k / n or the lower clamp
        # does, and the upper clamp does too: a row whose upper clamp does
        # not pass never passes, one whose lower clamp passes always does
        def passes(v, vd):
            return v * q >= edges * vd + strict
        key = np.where(passes(un, ud), np.where(passes(ln, ld), -bound, key), bound)
    # binary lifting on k * q: kq climbs to the last k * q below the key
    kq = np.full(key.shape, (kmin - 1) * q, key.dtype)
    for i in reversed(range(int((end - kmin).max()).bit_length())):
        up = kq + (q << i)
        kq = np.where(up < key, up, kq)
    end = np.asarray(end, np.int64)
    first, stop = np.asarray(np.minimum(kq // q + 1, end), np.int64)
    return first, stop - 1, (stop == end) & (stop > first)


def indicator_coverage(
    family: DistributionFamily | str,
    n: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    theta: Fraction,
) -> float:
    """Coverage computed from the raw event, its window ends found by bisection."""
    fam = resolve_family(family)
    _check_n(n)
    theta = exact(theta, name="theta")
    lo, hi, open_top = _windows(fam, n, criterion, estimator,
                                np.array([theta.numerator]), theta.denominator)
    return prob_range(fam, n, int(lo[0]), None if open_top[0] else int(hi[0]), theta)


def _exact_values(
    fam: DistributionFamily,
    n: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    t: np.ndarray,
    den: int,
) -> np.ndarray:
    """`indicator_coverage` at each theta t / den: one `prob_ranges` call,
    whose rows are bit-equal to `prob_range`."""
    lo, hi, open_top = _windows(fam, n, criterion, estimator, t, den)
    return prob_ranges(fam, n, _floats(t, den), lo, hi, open_top)


# ---------------------------------------------------------------------------
# vectorized grid rows

def _floor_near_int(x: np.ndarray, flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(x) as int64 and the rows where x is an integer; flags where x is
    within _FLAG_RTOL * max(1, |x|) of an integer, tested only where x is
    within `bound` of one: it bounds every row's tolerance (x is ascending),
    its slack the rounding of the fraction of a small negative x."""
    frac = np.floor(x)
    floor = frac.astype(np.int64)
    np.subtract(x, frac, out=frac)  # the fraction, 0 just where x is an integer
    bound = _FLAG_RTOL * max(1.0, -x[0], x[-1]) + 2**-50
    near = ((frac <= bound) | (frac >= 1.0 - bound)).nonzero()[0]
    xs = x[near]
    flags[near[np.abs(xs - np.rint(xs)) <= np.maximum(np.abs(xs), 1.0) * _FLAG_RTOL]] = True
    return floor, near[frac[near] == 0.0]


def _near(x: np.ndarray, y: float, flags: np.ndarray) -> None:
    """Flag where x, ascending, is within _FLAG_RTOL * max(1, |y|) of y;
    only the rows within twice that are compared."""
    tol = _FLAG_RTOL * max(1.0, abs(y))
    i, j = x.searchsorted((y - 2 * tol, y + 2 * tol))
    flags[i:j] |= np.abs(x[i:j] - y) <= tol


def _vector_rows(
    fam: DistributionFamily,
    n: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    tf: np.ndarray,
    af: float,
    bf: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Float windows (lo, hi, open_top) per grid row plus a mask of rows
    needing exact redo; the rows' thetas `tf` are ascending, and so is every
    threshold."""
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
        lo, _ = _floor_near_int(n * lo_edge, flags)
        lo += 1
        # ceil(x) - 1 is floor(x), or x - 1 where x is an integer
        hi, whole = _floor_near_int(n * hi_edge, flags)
        hi[whole] -= 1
        open_top = np.zeros(tf.shape, dtype=bool)
        if rp:
            lo[:lo_edge.searchsorted(af)] = kmin
            open_top = hi_edge > bf
            _near(lo_edge, af, flags)
            _near(hi_edge, bf, flags)
        return lo, hi, open_top

    match criterion:
        case Absolute(eps=eps):
            lo, hi, open_top = one_window(float(eps), False)
        case Relative(eps=eps):
            lo, hi, open_top = one_window(float(eps), True)
        case Mixed():
            lo, hi, open_top = one_window(float(criterion.eps_abs), False)
            lo_r, hi_r, open_r = one_window(float(criterion.eps_rel), True)
            # the two margins give nested windows; the union is the wider one
            np.minimum(lo, lo_r, out=lo)
            np.maximum(hi, hi_r, out=hi)
            open_top |= open_r
        case _:
            raise DomainError(f"unknown criterion {criterion!r}")

    space = fam.param_space
    if space.include_lower:
        _near(tf, float(space.lower), flags)
    if space.upper is not None and space.include_upper:
        _near(tf, float(space.upper), flags)

    return lo, hi, open_top, flags


def _scan_runs(
    fam: DistributionFamily,
    n: int,
    tf: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    open_top: np.ndarray,
    free: np.ndarray,
    values: np.ndarray,
    best: float,
) -> None:
    """Write into `values` the float coverage of every row in `free` that
    can hold the least value, by branch and bound over the runs of free rows
    with one window; the others keep their +inf.  `best` is the least value
    already known: the exact rows' and the candidates'."""
    # F(lo - 1) and F(hi) of each evaluated row, as prob_ranges reads them
    cdf = np.empty((2, len(tf)))

    def evaluate(rows: np.ndarray) -> float:
        c = cdf[:, rows] = _cdf_ends(fam, n, tf[rows], lo[rows], hi[rows], open_top[rows])
        got = values[rows] = np.maximum(c[1] - c[0], 0.0)
        return min(best, float(got.min(initial=np.inf)))

    # maximal runs: a free row opens one unless the row before is free with
    # its window, and closes one unless the row after opens none
    joins = free[1:] & free[:-1] & (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    joins &= open_top[1:] == open_top[:-1]
    s = (free & np.append(True, ~joins)).nonzero()[0]
    e = (free & np.append(~joins, True)).nonzero()[0]
    best = evaluate(np.union1d(s, e))
    # a window that reads no CDF value, or F(k - 1) twice (an empty one),
    # gives every row of its run the start row's value bit for bit, at the
    # run's least theta
    ks, _, ask = _cdf_keys(fam, n, lo[s], hi[s], open_top[s])
    varies = ask.any(axis=0) & (ks[0] != ks[1])
    s, e = s[varies], e[varies]
    while True:
        # the runs with interior rows left, their ends evaluated: each is
        # bounded by F(l; theta_e) - F(k - 1; theta_s) from those ends
        inner = e - s > 1
        s, e = s[inner], e[inner]
        live = cdf[1, e] - cdf[0, s] <= best + _PRUNE_MARGIN
        s, e = s[live], e[live]
        if not len(s):
            return
        leaf = e - s <= _LEAF_ROWS + 1
        ls, le = s[leaf], e[leaf]
        # every interior row of the leaves, then the middle row of the others
        sizes = le - ls - 1
        inside = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes - ls - 1, sizes)
        s, e = s[~leaf], e[~leaf]
        mid = (s + e) // 2
        best = evaluate(np.concatenate((inside, mid)))
        s, e = np.concatenate((s, mid)), np.concatenate((mid, e))


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
    points, boundary-suspicious grid rows and every row of a family without
    `cdf_batch` are evaluated through the exact indicator path, all in one
    `prob_ranges` batch, where a window that accepts nothing is a row that
    reads 0.0.  The other rows take float windows and are read only where
    the branch and bound over their runs says the minimum can be.
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
    if fam.cdf_batch is not None:
        tf = float(a) + float(grid.step) * np.arange(rows, dtype=np.float64)
        *window, flagged = _vector_rows(fam, n, criterion, estimator, tf, float(a), float(b))
        exact_rows = np.nonzero(flagged)[0]
    else:
        exact_rows = np.arange(rows)
    # the exact grid rows (a + j * step) and the candidates, in one batch
    # over one denominator; the candidates come sorted by theta
    cset = candidate_set_for(n, criterion, estimator, a, b) if grid.include_candidates else None
    (an, ad), (sn, sd) = a.as_integer_ratio(), grid.step.as_integer_ratio()
    cn, cd = (cset.numerators, cset.den) if cset is not None else (np.zeros(0, np.int64), 1)
    den = math.lcm(ad, sd, cd)
    an, sn, cm = an * (den // ad), sn * (den // sd), den // cd
    top = max(abs(an) + rows * sn, int(np.abs(cn).max(initial=0)) * cm)
    dtype = np.int64 if top < 2**62 else object  # else Python ints, which never wrap
    t = np.concatenate((an + exact_rows.astype(dtype) * sn, cn.astype(dtype) * cm))
    exact_values = (_exact_values(fam, n, criterion, estimator, t, den) if len(t)
                    else np.zeros(0, np.float64))
    # rows left unevaluated hold +inf, strictly above the least value
    values = np.full(rows, np.inf)
    values[exact_rows] = exact_values[:len(exact_rows)]
    if fam.cdf_batch is not None:
        _scan_runs(fam, n, tf, *window, ~flagged, values,
                   float(exact_values.min(initial=np.inf)))
    # argmin takes the first, smallest theta of the tied rows
    j = int(np.argmin(values))
    best, theta = float(values[j]), a + j * grid.step

    if cset is not None:
        cand = exact_values[len(exact_rows):]
        i = int(np.argmin(cand))
        if cand[i] <= best:
            tied = Fraction(int(cn[i]), cd)
            theta = tied if cand[i] < best else min(theta, tied)
            best = float(cand[i])

    return best, theta
