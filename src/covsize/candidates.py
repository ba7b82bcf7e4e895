"""Finite candidate sets that carry the worst-case coverage.

Coverage as a function of theta is piecewise: between consecutive points
where an integer window endpoint jumps (lattice points of the margin) or
where a clamped estimator switches regime (breakpoints), the window is
constant and the coverage is single peaked.  The infimum over the whole
interval is therefore attained on the finite set of endpoints, lattice
points, and breakpoints collected here.

Every (criterion, estimator) pair is one margin description: the margin is
absolute on [a, c] and relative on [c, b], where Absolute has c = b,
Relative has c = a and Mixed has c = eps_abs / eps_rel strictly inside.
The absolute side carries the plus and minus lattices, the relative side the
rel-upper and rel-lower lattices; a range-preserving estimator adds the
clamp breakpoints of each side and truncates that side's lattice windows.

Lattice families, tagged by provenance:
  plus-lattice   theta = k/n + eps        (lower window endpoint jumps)
  minus-lattice  theta = k/n - eps        (upper window endpoint jumps)
  rel-upper      theta = k/(n*(1+eps))    (upper window endpoint jumps)
  rel-lower      theta = k/(n*(1-eps))    (lower window endpoint jumps)

The strict cardinality bound counts one per offered endpoint or breakpoint,
whether or not it is kept, plus max(hi - lo, 0) / spacing + 1 per lattice on
the open window (lo, hi), which exceeds the number of lattice points strictly
inside that window.

All arithmetic is exact.  A point at n is one integer numerator over
n * scale (see `_Spec.coef`): `candidate_set_for` makes each lattice one
range of numerators and merges them as integers; a Fraction is made only
when a caller asks for the thetas.  `_block` cuts each lattice's range to a
window around one theta for many n at once, so a sample-size search can
reject a run of n on the few candidates near the worst theta of an earlier
n in one evaluation.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, repeat
from typing import NamedTuple, Optional

import numpy as np

from ._exact import exact
from .coverage import (
    ErrorCriterion,
    EstimatorKind,
    RangePreserving,
    Unbiased,
    WindowTable,
    margins,
    window_table,
)
from .errors import DomainError
from .families import _check_n

TAG_ENDPOINT = "endpoint"
TAG_BREAKPOINT = "breakpoint"
TAG_PLUS = "plus-lattice"
TAG_MINUS = "minus-lattice"
TAG_REL_UPPER = "rel-upper"
TAG_REL_LOWER = "rel-lower"

_last: tuple = (None, lambda: None)  # key and weak reference of the last set built
# the greatest cardinality bound built: 5x a search's largest set at n <= 10**6
MAX_CANDIDATES = 10**7


class CandidatePoint(NamedTuple):
    theta: Fraction
    tags: tuple[str, ...]


@dataclass(frozen=True)
class CandidateSet:
    """Sorted, deduplicated candidate points plus the rule's cardinality bound.

    `runs` holds the range of k of each of `spec.runs` at n (see `_Spec`).
    The points are the arrays `numerators` (over `den` = n * spec.scale,
    ascending) and each one's `run` index and `k`; `floats`, `thetas` and
    `points` are made from them on first access.
    """

    rule: str
    cardinality_bound: Fraction
    n: int
    den: int
    runs: tuple[range, ...]
    numerators: np.ndarray = field(repr=False, compare=False)
    run: np.ndarray = field(repr=False, compare=False)
    k: np.ndarray = field(repr=False, compare=False)
    spec: _Spec = field(repr=False, compare=False)

    @cached_property
    def floats(self) -> np.ndarray:
        """float(theta) of every point, one correctly rounded division each."""
        floats = _floats(self.numerators, self.den)
        floats.flags.writeable = False
        return floats

    @cached_property
    def thetas(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.numerators.tolist(), repeat(self.den)))

    @cached_property
    def tags(self) -> list[tuple[str, ...]]:
        """The sorted tags of the runs holding each point."""
        code = np.zeros(len(self.numerators), np.int64)
        for i, ((base, step), ks) in enumerate(zip(self.spec.coef[0].T.tolist(), self.runs)):
            if not ks:  # its coefficients may not fit the numerators' width
                continue
            x = self.numerators - self.n * base
            hit = ((x % step == 0) & (x // step >= ks.start) & (x // step < ks.stop)
                   if step else x == 0)
            code |= hit.astype(np.int64) << i
        names = {c: tuple(sorted({run[4] for i, run in enumerate(self.spec.runs) if c >> i & 1}))
                 for c in set(code.tolist())}
        return [names[c] for c in code.tolist()]

    @cached_property
    def points(self) -> tuple[CandidatePoint, ...]:
        return tuple(map(CandidatePoint._make, zip(self.thetas, self.tags)))

    def __len__(self) -> int:
        return len(self.numerators)


def _floats(numerators: np.ndarray, den, top: Optional[int] = None) -> np.ndarray:
    """numerators / den correctly rounded; den is an int or one per point,
    and `top`, when given, bounds every |numerator| and den."""
    x = numerators  # exact as float64 up to 2**53
    if top is None:
        top = max(-x.min(), x.max(), np.max(den)) if len(x) else 0
    if top > 2**53:
        x, den = x.astype(object), np.asarray(den, object)
    return np.asarray(x / den, dtype=float)


@dataclass(frozen=True, eq=False)
class _Spec:
    """The candidates of a (criterion, estimator) pair on [a, b] for every n,
    with the tables that a sweep or a witness block would otherwise rebuild.

    Its runs (base, step, den, ks, tag) do not depend on n: each holds the
    thetas (base + step * k / n) / den, one lattice each, or one endpoint or
    breakpoint with step 0; their denominators all divide `scale`, and a
    lattice's range ks is left empty.  Each run's rows (p, c, q) in `edges`
    give its least and greatest k at n as (p * n + c) // q (k = 0 for an
    endpoint or breakpoint).  The cardinality bound counts one per offered
    endpoint or breakpoint, kept or not, plus max(hi - lo, 0) / spacing + 1
    per lattice on the open window (lo, hi).  `windows` holds each run's
    window coefficients, its side of a Mixed crossover fixed.
    """

    rule: str
    runs: tuple[tuple[int, int, int, range, str], ...]
    edges: tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...]
    scale: int
    offered: int
    windows: WindowTable

    def frame(self, n: int) -> tuple[list[range], Fraction]:
        """(ranges of k, cardinality bound) of the whole set at n."""
        ranges, bound = [], (self.offered, 1)  # bound as numerator and denominator
        for (_, step, *_), ((p0, c0, q0), (p1, c1, q1)) in zip(self.runs, self.edges):
            kmin, kmax = (p0 * n + c0) // q0, (p1 * n + c1) // q1
            ranges.append(range(kmin, max(kmin, kmax + 1)))
            if step:
                q = q0 * q1
                bound = (bound[0] * q + bound[1] * (max(p1 * q0 - p0 * q1, 0) * n + q),
                         bound[1] * q)
        return ranges, Fraction(*bound)

    @cached_property
    def coef(self) -> tuple[np.ndarray, int]:
        """(coef, reach): column j holds run j's base and step over `scale`,
        so that the point (run, k) at n is theta = (n * base + step * k) /
        (n * scale), int64 when every entry fits, else Python ints; and a
        bound on |n * base|, |step * k| and their sum over n at every
        candidate in [a, b]."""
        coef = [(base * (self.scale // den), step * (self.scale // den))
                for base, step, den, *_ in self.runs]
        # a point's |scale * theta| is at most the largest of a point run's
        # (a and b are two), and |step * k| = |n * (scale * theta - base)|
        widest = max(abs(base) for base, step in coef if not step)
        reach = max(2 * abs(base) + widest if step else abs(base) for base, step in coef)
        coef = np.array(coef, np.int64 if max(map(abs, chain(*coef))) < 2**63 else object).T
        coef.flags.writeable = False  # shared by every set and block of the query
        return coef, reach

    @cached_property
    def tables(self) -> tuple[np.ndarray, int]:
        """(kbounds, top) of `_block`, made when first asked for (a search
        asks on its first sweep): the rows of `edges` and of a window (see
        `_block`), and a bound on their entries, from which each call picks
        int64 (the array as cached) or Python ints."""
        # kbounds[i, :, :, j]: the i-th of (1, tn * rd, td * rd, rn * td) times
        # run j's rows (p, c, q) of its least and greatest k, of the whole set
        # and then of the window near -+ radius / n for near tn / td and radius
        # rn / rd: offset + k * s / n is there at k = (p * n -+ x) / q for
        # p = (tn * den - base * td) * rd, x = rn * den * td and q = step * td * rd
        kbounds = np.zeros((4, 3, 4, len(self.runs)), object)
        for j, ((base, step, den, *_), (lo, hi)) in enumerate(zip(self.runs, self.edges)):
            kbounds[0, :, :2, j] = list(zip(lo, hi))
            if step:  # k from (p * n + q - 1 - x) // q to (p * n + x) // q
                kbounds[1:3, 0, 2:, j] = [[den], [-base]]
                kbounds[:, 1, 2, j] = -1, 0, step, -den
                kbounds[3, 1, 3, j] = den
                kbounds[2, 2, 2:, j] = step
            else:
                kbounds[0, 2, 2:, j] = 1
        top = max(map(abs, kbounds.flat))
        kbounds = kbounds.astype(np.int64 if top < 2**62 else object)
        kbounds.flags.writeable = False  # shared by every block of the query
        return kbounds.reshape(4, -1), top


def _numerator_coef(spec: _Spec, live, n_top: int) -> np.ndarray:
    """The rows (base, step) of `spec.coef` in the width of the numerators
    n * base + step * k of the points at every n <= n_top: int64 when the
    coefficients of the runs in `live` (those with points) fit and
    reach * n_top < 2**63, so that every numerator, product and k fits too,
    else Python ints, which never wrap.  This is the one rule both builders
    take their numerators' width from."""
    coef, reach = spec.coef
    if coef.dtype == object:  # a run without points reads (0, 0): its own may not fit
        coef = np.where(live, coef, 0)
        if max(map(abs, coef.flat)) < 2**63:
            coef = coef.astype(np.int64)
    return coef if coef.dtype == np.int64 and reach * n_top < 2**63 else coef.astype(object)


# typed: a float or a bool equals and hashes like the number it stands for,
# and must reach `exact` rather than that number's entry
@lru_cache(maxsize=1024, typed=True)
def _spec(criterion: ErrorCriterion, estimator: EstimatorKind, a: Fraction,
          b: Fraction) -> _Spec:
    """Validate a (criterion, estimator) pair on [a, b] and describe its
    candidates, once for every n; see `candidate_set_for`."""
    a = exact(a, name="a")
    b = exact(b, name="b")
    clamped = isinstance(estimator, RangePreserving)
    if clamped:
        if estimator.lower != a or estimator.upper != b:
            raise DomainError(
                f"range-preserving clamp [{estimator.lower}, {estimator.upper}] must "
                f"equal the parameter interval [{a}, {b}]"
            )
    elif not isinstance(estimator, Unbiased):
        raise DomainError(f"unknown criterion/estimator pair {criterion!r}, {estimator!r}")
    if not a < b:
        raise DomainError(f"need a < b, got a={a}, b={b}")
    ea, er, c = margins(criterion)
    if er is None and clamped and a <= 0:
        raise DomainError(f"range-preserving absolute rule needs a > 0, got a={a}")
    if ea is None and a <= 0:
        what = "range-preserving relative rule" if clamped else "relative criterion"
        raise DomainError(f"{what} needs a > 0, got a={a}")
    if c is not None and a < 0:
        raise DomainError(f"mixed criterion needs a >= 0, got a={a}")
    if c is not None and not a < c < b:
        raise DomainError(
            f"mixed crossover eps_abs/eps_rel = {c} must lie strictly inside "
            f"({a}, {b}); outside it one margin dominates everywhere, so use a "
            f"pure absolute or pure relative criterion instead"
        )
    name = "absolute" if er is None else "relative" if ea is None else "mixed"
    # margin eps_abs on [a, c] and eps_rel * theta on [c, b]
    c = b if er is None else a if ea is None else c

    # every offered endpoint and breakpoint counts in the bound, kept or not
    offered = [(a, TAG_ENDPOINT, True), (b, TAG_ENDPOINT, True)]
    if a < c < b:
        offered.append((c, TAG_BREAKPOINT, True))
    lattices = []
    if ea is not None:
        # clamped, the upper window endpoint (minus lattice) matters up to
        # b - eps and the lower one (plus lattice) from a + eps
        minus_hi, plus_lo = c, a
        if clamped:
            plus_lo, b_low = a + ea, b - ea
            offered += [(t, TAG_BREAKPOINT, a <= t <= c) for t in (plus_lo, b_low)]
            minus_hi = min(b_low, c)
        lattices += [(1, -ea, a, minus_hi, TAG_MINUS), (1, ea, plus_lo, c, TAG_PLUS)]
    if er is not None:
        upper_hi, lower_lo = b, c
        up, down = 1 / (1 + er), 1 / (1 - er)
        if clamped:
            a_low = a * down  # below it the clamp at a cannot miss low
            b_up = b * up     # above it the clamp at b cannot miss high
            offered += [(t, TAG_BREAKPOINT, c <= t <= b) for t in (a_low, b_up)]
            upper_hi, lower_lo = b_up, max(a_low, c)
        lattices += [(up, 0, c, upper_hi, TAG_REL_UPPER), (down, 0, lower_lo, b, TAG_REL_LOWER)]
    rule = f"{name}/{'range-preserving' if clamped else 'unbiased'}"
    runs = [(t.numerator, 0, t.denominator, range(1), tag) for t, tag, kept in offered if kept]
    edges = [((0, 0, 1), (0, 0, 1))] * len(runs)
    for s, offset, lo, hi, tag in lattices:
        (sn, sd), (on, od), (ln, ld), (hn, hd) = (f.as_integer_ratio()
                                                  for f in (s, offset, lo, hi))
        den = math.lcm(sd, od)
        base, step = on * (den // od), sn * (den // sd)
        runs.append((base, step, den, range(0), tag))
        # offset + k * s / n is t at k = (t * den - base) * n / step: k runs
        # strictly inside, from floor(that at lo) + 1 to ceil(that at hi) - 1
        q0, q1 = step * ld, step * hd
        edges.append(((ln * den - base * ld, q0, q0), (hn * den - base * hd, -1, q1)))
    scale = math.lcm(*(run[2] for run in runs))
    windows = window_table(criterion, estimator, runs,
                           [tag in (TAG_REL_UPPER, TAG_REL_LOWER) for *_, tag in lattices])
    windows.coef.flags.writeable = False  # shared by every call of the query
    return _Spec(rule, tuple(runs), tuple(edges), scale, len(offered), windows)


def candidate_set_for(
    n: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    a: Fraction,
    b: Fraction,
) -> CandidateSet:
    """Build the candidate set matching a (criterion, estimator) pair on [a, b].

    Relative needs a > 0, and so does range-preserving Absolute; Mixed needs
    a >= 0 and its crossover strictly inside (a, b).  A range-preserving
    clamp must equal [a, b], and the set's cardinality bound be at most
    MAX_CANDIDATES.  The set last built, held here only weakly and
    read-only, is returned again for the same query while anything holds it.
    """
    global _last
    _check_n(n)
    key = (n, criterion, estimator, exact(a, name="a"), exact(b, name="b"))
    last_key, last = _last
    if last_key == key and (cset := last()) is not None:
        return cset
    spec = _spec(*key[1:])
    ranges, bound = spec.frame(n)
    if bound > MAX_CANDIDATES:
        raise DomainError(f"the candidate set at n={n} has a cardinality bound of "
                          f"{float(bound):.3g}; at most {MAX_CANDIDATES} points are built")
    base, step = _numerator_coef(spec, list(map(bool, ranges)), n)
    run = np.repeat(np.arange(len(ranges)), list(map(len, ranges)))
    k = np.concatenate([np.arange(r.start, r.stop, dtype=base.dtype) for r in ranges])
    numerators, first = np.unique((n * base)[run] + step[run] * k, return_index=True)
    arrays = numerators, run[first], k[first]
    for x in arrays:
        x.flags.writeable = False
    cset = CandidateSet(spec.rule, bound, n, n * spec.scale, tuple(ranges), *arrays, spec)
    _last = key, weakref.ref(cset)
    return cset


@dataclass(frozen=True)
class CandidateBlock:
    """Candidates of the sample sizes n0, n0 + 1, ...

    Row j is the point k[j] of `spec.runs[run[j]]` (see `_Spec`) at sample size
    n[j]; its theta is numerators[j] / (n[j] * scale), as in a `CandidateSet`
    of that n, and floats[j] that theta correctly rounded.  The rows are
    sorted by n and then theta, without repeats; those of the i-th n are
    starts[i]:starts[i + 1].
    """

    spec: _Spec
    n: np.ndarray = field(repr=False, compare=False)
    run: np.ndarray = field(repr=False, compare=False)
    k: np.ndarray = field(repr=False, compare=False)
    numerators: np.ndarray = field(repr=False, compare=False)
    floats: np.ndarray = field(repr=False, compare=False)
    starts: np.ndarray = field(repr=False, compare=False)

    def thetas(self, rows: np.ndarray) -> list[Fraction]:
        return [Fraction(x, n * self.spec.scale)
                for x, n in zip(self.numerators[rows].tolist(), self.n[rows].tolist())]


def _block(spec: _Spec, n0: int, count: int, near: Fraction,
           radius: Fraction | int) -> CandidateBlock:
    """The points of `candidate_set_for` at each n = n0, ..., n0 + count - 1
    within radius / n of `near`, and all its endpoints and breakpoints (see
    `CandidateBlock`).  Each lattice's range of k at every n is a floor
    division of integers affine in n, for all n at once; no Fraction is made
    per n.  The caller passes a validated query and n0, count >= 1.
    """
    (rn, rd), (tn, td) = radius.as_integer_ratio(), near.as_integer_ratio()
    # run j's least k at n is the greater of two floors (p * n + c) // q, and
    # its greatest the lesser of two: one each of the whole set and of the
    # window (see `_Spec`)
    scalars = (1, tn * rd, td * rd, rn * td)
    kbounds, top = spec.tables
    dtype = np.int64 if top * sum(map(abs, scalars)) * (n0 + count + 1) < 2**62 else object
    p, c, q = np.dot(np.array(scalars, dtype), kbounds.astype(dtype, copy=False)).reshape(
        3, 4, -1, 1)
    ns = np.arange(n0, n0 + count + 1, dtype=np.int64)
    kmin, kmax, wmin, wmax = (ns[:-1] * p + c) // q
    kmin, kmax = np.maximum(kmin, wmin).T, np.minimum(kmax, wmax).T  # [n - n0, run]
    # the rows in order of n, then run, then k
    width = kmax - kmin + 1
    i, run, j = (np.arange(width.max(initial=0)) < width[..., None]).nonzero()
    n, k = ns[i], kmin[i, run] + j
    live = (width > 0).any(axis=0)
    base, step = _numerator_coef(spec, live, n0 + count - 1).take(run, axis=1)
    numerators = n * base + step * k.astype(base.dtype, copy=False)
    order = np.lexsort((numerators, n))  # n stays sorted
    run, k, numerators = run[order], k[order], numerators[order]
    new = np.empty(len(n), bool)
    new[:1] = True
    new[1:] = (numerators[1:] != numerators[:-1]) | (n[1:] != n[:-1])
    n, run, k, numerators = n[new], run[new], k[new], numerators[new]
    scale = spec.scale
    floats = _floats(numerators, (n if (n0 + count) * scale < 2**62 else n.astype(object)) * scale,
                     max(spec.coef[1] * (n0 + count - 1), (n0 + count) * scale))
    starts = n.searchsorted(ns)
    return CandidateBlock(spec, n, run, np.asarray(k, np.int64), numerators, floats, starts)
