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

A grid row theta = a + j * step, over the rows' own denominator, is read at
its correctly rounded float in the window of one floor division per end,
lo = floor(n (theta - m)) + 1 and hi = ceil(n (theta + m)) - 1, and so
are the candidate points (the set `min_coverage` built, while held), over
their own denominator: clipped to the support, these windows accept what
the bisection accepts, so every value is bit-equal to `indicator_coverage`
(a window that accepts nothing reads 0.0).  For a family without
`cdf_batch` the candidates and the grid rows take one `prob_min` call each;
for the others the candidates are read in the scan's first CDF call, and
their least value seeds a branch and bound.

Not every grid row is read, nor is every row's window made.  The rows fall
into maximal runs with one window [k, l], its two ends as they are (an open
top is l = `_PAST_TOP`, whatever the arithmetic top).  Both ends do not
decrease in theta and move only where n (theta - m) or n (theta + m)
crosses an integer, or theta -+ m a clamp, so the runs come from those edge
crossings: each is mapped to its first grid row by one integer ceiling
division, the windows are made at those rows only, and neighbours with one
window are joined.  Only a grid with more crossings than rows (say a
Poisson grid at large n (b - a)) makes every row's window and joins those.
A family without `cdf_batch` repeats each run's window over its rows for
`prob_min`.  For the others the two end rows of each run are evaluated, and
every evaluated row keeps the two CDF values it read, F(k - 1; theta) and
F(l; theta).  The family promises that F(l; theta) = Pr{Y_n <= l | theta}
does not increase in theta, so on a run from theta_s to theta_e every row's
coverage is at least F(l; theta_e) - F(k - 1; theta_s) (an interval bound,
Moore 1966), from values already in hand.  A run whose window reads no CDF
value (the whole support, or a window outside it) or one value twice (an
empty window) holds its start row's value on every row, bit for bit, and is
dropped.  A run whose bound exceeds the best value by more than a margin is
dropped; one with more than `_LEAF_ROWS` interior rows is cut at every
(`_LEAF_ROWS` + 1)-th row, all cuts in one call, into pieces that are
bounded by their ends in turn; what is left is evaluated row by row.  The
runs are made before any CDF value is read, so there are at most three
`cdf_batch` calls per grid: the candidates with the ends of the runs, the
cuts, the leaves.  A grid row's float is made only when the row is read.
The margin is `families._prune_margin`, the rule `prob_min` prunes by
too: 4 * `cdf_error` + 2**-52 where the family's CDF has a measured error
bound, 1e-9 otherwise.  A dropped row is strictly above the result or equal
to an evaluated row of smaller theta, so the scan's (value, theta) is that
of evaluating every row.
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
    Unbiased,
)
from .errors import DomainError
from .families import (_PAST_TOP, DistributionFamily, _cdf_ends, _cdf_keys, _check_n,
                       _int64_ends, _prune_margin, prob_min, prob_range, resolve_family)

# runs with at most this many interior rows are evaluated whole; longer ones
# are cut into pieces of this many first
_LEAF_ROWS = 16
# the most rows a grid may have: a hundred times the 10**4-cell grids of the
# cross-checks; a finer step is rejected before any row is built
MAX_GRID_ROWS = 10**6


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
        if not isinstance(cells, int) or isinstance(cells, bool) or cells < 10:
            raise DomainError(f"cells must be an int >= 10, got {cells!r}")
        if not a < b:
            raise DomainError(f"need a < b, got a={a}, b={b}")
        return cls(step=(b - a) / cells, include_candidates=include_candidates)


def _margin(criterion: ErrorCriterion) -> tuple[int, int, int, int]:
    """(e, d, f, g) of the margin m = max(e / d, f * theta / g): eps_abs =
    e / d up to the crossover, eps_rel * theta beyond it, the wider where
    both apply; e = 0 for a relative criterion, f = 0 for an absolute one."""
    match criterion:
        case Absolute(eps=eps):
            return (*eps.as_integer_ratio(), 0, 1)
        case Relative(eps=eps):
            return (0, 1, *eps.as_integer_ratio())
        case Mixed(eps_abs=eps_abs, eps_rel=eps_rel):
            return (*eps_abs.as_integer_ratio(), *eps_rel.as_integer_ratio())
    raise DomainError(f"unknown criterion {criterion!r}")


def _edges(criterion: ErrorCriterion, t: np.ndarray, den: int, per_edge: int,
           per_q: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """theta - m and theta + m at the thetas t / den (integers over one
    positive denominator) as arrays (low, high) of integers over
    q = den * d * g; also q and a bound, per_edge * edge + per_q * q with
    edge >= |low|, |high|.  The arrays are int64 where the bound is below
    2**62, else Python ints, which never wrap.  The caller validates the
    thetas; a relative criterion's theta > 0 is a sign test here."""
    tmin, tmax = int(t.min()), int(t.max())
    # over q = den * d * g, theta is t * d * g and its margin m
    e, d, f, g = _margin(criterion)
    if not e and tmin <= 0:
        raise DomainError(f"relative coverage needs theta > 0, got {Fraction(tmin, den)}")
    q = den * d * g
    edge = max(abs(tmin), abs(tmax)) * (d * g + f * d) + e * g * den
    bound = per_edge * edge + per_q * q
    t = t.astype(np.int64 if bound < 2**62 else object)
    m = np.maximum(e * g * den, f * d * t)
    return t * (d * g) - m, t * (d * g) + m, q, bound


def _windows(
    fam: DistributionFamily,
    n: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    t: np.ndarray,
    den: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Accepted outcomes at the thetas t / den (integers over one positive
    denominator) as int64 arrays (lo, hi), hi = `_PAST_TOP` where the window
    runs through the top of the support; one that accepts nothing is lo ..
    lo - 1, never open.  The thetas are validated by their least and
    greatest, the estimator by its type."""
    kmin, kmax = fam.support_bound(n)
    rp = isinstance(estimator, RangePreserving)
    if not rp and not isinstance(estimator, Unbiased):
        raise DomainError(f"unknown estimator {estimator!r}")
    tmin, tmax = int(t.min()), int(t.max())
    lowest = fam.require_theta(Fraction(tmin, den))
    highest = lowest if tmax == tmin else fam.require_theta(Fraction(tmax, den))
    if rp and not (estimator.lower <= lowest <= highest <= estimator.upper):
        outside = lowest if lowest < estimator.lower else highest
        raise DomainError(
            f"theta={outside} outside the range-preserving interval "
            f"[{estimator.lower}, {estimator.upper}]"
        )
    (ln, ld), (un, ud) = ((estimator.lower.as_integer_ratio(), estimator.upper.as_integer_ratio())
                          if rp else ((0, 1), (0, 1)))
    # a bound on every integer below: edges, k * q and its key edge * n, with
    # k at most twice the top of the search
    low, high, q, bound = _edges(criterion, t, den, 4 * (n + max(ld, ud)),
                                 4 * (n * -(-un // ud) + abs(kmin) + ln + un + 8))
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
    first, stop = np.minimum(kq // q + 1, end)
    lo, hi = _int64_ends(first, stop - 1)
    hi[(stop == end) & (stop > first)] = _PAST_TOP
    return lo, hi


def _grid_windows(fam: DistributionFamily, n: int, criterion: ErrorCriterion,
                  estimator: EstimatorKind, t: np.ndarray,
                  den: int) -> tuple[np.ndarray, np.ndarray]:
    """The outcomes `_windows` accepts at the grid rows t / den, without a
    bisection and not clipped to the support: the k with k / n strictly
    inside (theta - m, theta + m) run from lo = floor(n (theta - m)) + 1 to
    hi = ceil(n (theta + m)) - 1.  A clamped estimate takes every k from the
    support's least where theta - m is below the lower clamp, and every k
    above the window, hi = `_PAST_TOP`, where theta + m is above the upper
    one.  The caller validates the thetas; the estimator is checked here."""
    low, high, q, _ = _edges(criterion, t, den, 2 * n, 1)
    lo, hi = n * low // q + 1, -(-n * high // q) - 1
    kmin, kmax = fam.support_bound(n)
    if lo.dtype == object:  # one beyond an edge of the support reads as farther out
        lo, hi = _int64_ends(*(np.clip(x, kmin - 1, None if kmax is None else kmax + 1)
                               for x in (lo, hi)))
    if isinstance(estimator, RangePreserving):
        (ln, ld), (un, ud) = estimator.lower.as_integer_ratio(), estimator.upper.as_integer_ratio()
        # low < lower * q and high > upper * q, against integer thresholds
        lo[low < -(-ln * q // ld)] = kmin
        hi[high > un * q // ud] = _PAST_TOP
    elif not isinstance(estimator, Unbiased):
        raise DomainError(f"unknown estimator {estimator!r}")
    return lo, hi


@dataclass(frozen=True)
class _Rows:
    """The grid rows (an + j * sn) / den, j < count, for integers an and sn > 0."""

    an: int
    sn: int
    den: int
    count: int

    def t(self, j: np.ndarray) -> np.ndarray:
        """The numerators of the rows j, in Python ints where int64 could wrap."""
        wide = abs(self.an) + self.count * self.sn >= 2**62
        return self.an + j.astype(object if wide else np.int64) * self.sn


def _run_starts(criterion: ErrorCriterion, estimator: EstimatorKind, n: int,
                rows: _Rows) -> np.ndarray:
    """Ascending grid rows, among them every row whose window in
    `_grid_windows` differs from the row before: row 0 and, as both ends do
    not decrease in theta, the first row with lo >= v for each v up to the
    last row's lo, the first with hi >= v likewise, and the first past each
    clamp, each one integer ceiling division; every row where these
    crossings outnumber the rows.  The caller validates the thetas."""
    an, sn, den, count = rows.an, rows.sn, rows.den, rows.count
    low, high, q, _ = _edges(criterion, rows.t(np.array([0, count - 1])), den, 2 * n, 1)
    (lo0, lo1), (hi0, hi1) = (n * low // q + 1).tolist(), (-(-n * high // q) - 1).tolist()
    if lo1 - lo0 + hi1 - hi0 >= count:
        return np.arange(count)
    e, d, f, g = _margin(criterion)
    rp = isinstance(estimator, RangePreserving)
    (ln, ld), (un, ud) = ((estimator.lower.as_integer_ratio(), estimator.upper.as_integer_ratio())
                          if rp else ((0, 1), (0, 1)))

    # lo >= v where n (theta - m) >= v - 1, hi >= v where n (theta + m) > v,
    # and a clamp ends where theta - m >= lower and where theta + m > upper.
    # Over q, as in `_edges`, r (theta - m) >= x holds where both
    # r (t d g - e g den) and r t d (g - f) are at least x q, and
    # r (theta + m) > x where either r (t d g + e g den) or r t d (g + f) is
    # at least x q + 1.  Each is c (an + j sn) >= y, which holds from row
    # j = ceil((y - c an) / (c sn)) on
    def first(xq, r, side, pick):
        # the first rows where r (theta + side * m) >= x (> x if side = 1),
        # at xq = x * q
        c, w, k = r * d * g, r * d * (g + side * f), side > 0
        return pick((xq + (k - side * r * e * g * den - c * an + c * sn - 1)) // (c * sn),
                    (xq + (k - w * an + w * sn - 1)) // (w * sn))

    # a bound on every integer of `first`, for int64 below 2**62
    top = max(abs(lo0), abs(lo1), abs(hi0), abs(hi1), abs(ln), abs(un)) + 1
    reach = max(n, ld, ud) * (e * g * den + d * (g + f) * (abs(an) + sn)) + top * q
    steps = np.arange(max(lo1 - lo0, hi1 - hi0), dtype=np.int64 if reach < 2**62 else object) * q
    js = [first(steps[:lo1 - lo0] + lo0 * q, n, -1, np.maximum),
          first(steps[:hi1 - hi0] + (hi0 + 1) * q, n, 1, np.minimum)]
    if rp:
        js.append([min(max(j, 0), count - 1)
                   for j in (first(ln * q, ld, -1, max), first(un * q, ud, 1, min))])
    return np.sort(np.concatenate(([0], *js)).astype(np.int64))


def _grid_runs(fam: DistributionFamily, n: int, criterion: ErrorCriterion,
               estimator: EstimatorKind, rows: _Rows) -> tuple[np.ndarray, ...]:
    """The maximal runs of grid rows with one window: arrays (s, e, lo, hi)
    of each run's first and last row and its window, the windows of
    `_grid_windows` at the rows `_run_starts` gives, neighbours with one
    window joined."""
    starts = _run_starts(criterion, estimator, n, rows)
    lo, hi = _grid_windows(fam, n, criterion, estimator, rows.t(starts), rows.den)
    new = np.append(True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1]))
    s = starts[new]
    return s, np.append(s[1:] - 1, rows.count - 1), lo[new], hi[new]


def grid_rows(a: Fraction, b: Fraction, step: Fraction) -> int:
    """The number of thetas a + j * step in [a, b], at most MAX_GRID_ROWS."""
    if (rows := (b - a) // step + 1) > MAX_GRID_ROWS:
        raise DomainError(f"grid step {step} gives {rows} rows on [{a}, {b}]; "
                          f"at most {MAX_GRID_ROWS} are allowed")
    return rows


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
    (lo,), (hi,) = _windows(fam, n, criterion, estimator,
                            np.array([theta.numerator]), theta.denominator)
    return prob_range(fam, n, int(lo), None if hi == _PAST_TOP else int(hi), theta)


def _scan_runs(fam: DistributionFamily, n: int, rows: _Rows, s: np.ndarray, e: np.ndarray,
               lo: np.ndarray, hi: np.ndarray,
               cand: tuple[np.ndarray, ...]) -> tuple[tuple[float, int], tuple[float, int]]:
    """The least float coverage of the grid rows and the first row that has
    it, by branch and bound over their maximal runs of one window (rows s to
    e, window lo .. hi), or some row strictly above the least value of the
    candidates; and that least value with the first candidate that has it,
    (inf, -1) for none.  `cand` holds the candidates' float thetas and
    windows, or nothing.  At most three `cdf_batch` calls: the candidates
    with the ends of the runs, the cuts of the long runs, the interior rows
    of what is left.  A row's float is made only when the row is read, and
    its window is its run's."""
    starts = s  # the runs' first rows; s and e are narrowed below
    margin = _prune_margin(fam, n, float(_floats(rows.t(e[-1:]), rows.den)[0]))
    # F(lo - 1) and F(hi) of each evaluated row, as prob_ranges reads them
    cdf = np.empty((2, rows.count))
    found = (math.inf, -1)

    def evaluate(js: np.ndarray, ahead: tuple[np.ndarray, ...] = ()) -> np.ndarray:
        # the rows js, after the points `ahead` (float thetas and windows) if
        # any, in one call; returns the values of those points
        nonlocal found
        if not len(js):
            return np.empty(0)
        run = np.searchsorted(starts, js, side="right") - 1
        read = _floats(rows.t(js), rows.den), lo[run], hi[run]
        if ahead:
            read = [np.concatenate(x) for x in zip(ahead, read)]
        c = _cdf_ends(fam, n, *read)
        got = np.maximum(c[1] - c[0], 0.0)
        m = len(got) - len(js)
        cdf[:, js] = c[:, m:]
        if (low := float(got[m:].min())) <= found[0]:
            found = min(found, (low, int(js[got[m:] == low].min())))
        return got[:m]

    def live(s: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the runs with interior rows left, their ends evaluated, whose bound
        # F(l; theta_e) - F(k - 1; theta_s) from those ends is within margin
        keep = e - s > 1
        keep[keep] = cdf[1, e[keep]] - cdf[0, s[keep]] <= min(least[0], found[0]) + margin
        return s[keep], e[keep]

    def every(s: np.ndarray, e: np.ndarray, stride: int) -> np.ndarray:
        # the rows s + stride, s + 2 * stride, ... before e of each run
        counts = (e - s - 1) // stride
        steps = np.arange(1, counts.sum() + 1) - np.repeat(np.cumsum(counts) - counts, counts)
        return np.repeat(s, counts) + stride * steps

    values = evaluate(np.union1d(s, e), cand)
    least = (float(values.min()), int(values.argmin())) if len(values) else (math.inf, -1)
    # a window that reads no CDF value, or F(k - 1) twice (an empty one),
    # gives every row of its run the start row's value bit for bit, at the
    # run's least theta
    ks, _, ask = _cdf_keys(fam, n, lo, hi)
    varies = ask.any(axis=0) & (ks[0] != ks[1])
    s, e = live(s[varies], e[varies])
    # a run of more than _LEAF_ROWS interior rows is cut at every
    # (_LEAF_ROWS + 1)-th row into pieces of at most _LEAF_ROWS, each bounded
    # by its ends again; then every interior row of the pieces left
    cuts = every(s, e, _LEAF_ROWS + 1)
    evaluate(cuts)
    s, e = live(np.sort(np.concatenate((s, cuts))), np.sort(np.concatenate((cuts, e))))
    evaluate(every(s, e, 1))
    return found, least


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

    Returns (value, theta); ties resolve to the smallest theta.  Grid rows
    and candidate points alike take their windows from one floor division
    per end, and each value read equals `indicator_coverage` at its theta.
    For a family without `cdf_batch` the least values come from one
    `prob_min` call for the candidates and one for the grid rows; for the
    others the candidates are read with the first rows of a branch and
    bound over the grid's runs, which reads only the rows where the minimum
    can be.  A grid of more than MAX_GRID_ROWS rows raises DomainError.
    """
    fam = resolve_family(family)
    _check_n(n)
    a = exact(a, name="a")
    b = exact(b, name="b")
    if not a < b:
        raise DomainError(f"need a < b, got a={a}, b={b}")
    fam.require_interval(a, b)
    if isinstance(estimator, RangePreserving) and (estimator.lower, estimator.upper) != (a, b):
        raise DomainError(f"range-preserving clamp [{estimator.lower}, {estimator.upper}] must "
                          f"equal the scanned interval [{a}, {b}]")
    if grid.step > (b - a) / 10:
        raise DomainError(f"grid step {grid.step} too coarse for [{a}, {b}]; need at most (b-a)/10")

    # the rows a + j * step over their own denominator, in their runs of one
    # window
    (an, ad), (sn, sd) = a.as_integer_ratio(), grid.step.as_integer_ratio()
    den = math.lcm(ad, sd)
    rows = _Rows(an * (den // ad), sn * (den // sd), den, grid_rows(a, b, grid.step))
    s, e, lo, hi = _grid_runs(fam, n, criterion, estimator, rows)
    # the candidates, over theirs, sorted by theta, in windows of the same
    # formula
    cset = candidate_set_for(n, criterion, estimator, a, b) if grid.include_candidates else None
    cand = (() if cset is None else
            (cset.floats, *_grid_windows(fam, n, criterion, estimator, cset.numerators, cset.den)))
    if fam.cdf_batch is not None:
        # CDF values bound the rows a run of one window holds
        (best, j), (least, i) = _scan_runs(fam, n, rows, s, e, lo, hi, cand)
    else:
        # log-pmf sums do not: every row is summed until it exceeds the least
        least, i = prob_min(fam, n, *cand) if cand else (math.inf, -1)
        best, j = prob_min(fam, n, _floats(rows.t(np.arange(rows.count)), den),
                           *(np.repeat(x, e - s + 1) for x in (lo, hi)))
    theta = a + j * grid.step
    if least <= best:
        tied = Fraction(int(cset.numerators[i]), cset.den)
        theta = tied if least < best else min(theta, tied)
        best = least
    return best, theta
