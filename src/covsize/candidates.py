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

All arithmetic is exact.  `candidate_set_for` puts every point over one
common denominator, each lattice one range of integer numerators, and merges
them as integers; a Fraction is made only when a caller asks for the thetas.
`candidate_block` cuts each lattice's range to a window around one theta for
many n at once, so a sample-size search can reject a run of n on the few
candidates near the worst theta of an earlier n in one evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, repeat
from typing import Iterator, NamedTuple, Optional

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


class CandidatePoint(NamedTuple):
    theta: Fraction
    tags: tuple[str, ...]


@dataclass(frozen=True)
class CandidateSet:
    """Sorted, deduplicated candidate points plus the rule's cardinality bound.

    Each run (base, step, den, ks, tag) holds the thetas
    (base + step * k / n) / den for k in the range ks: one per lattice, one
    of length 1 and step 0 per endpoint or breakpoint.  The points are the
    arrays `numerators` (over `den`, ascending) and each one's `run` index
    and `k`; `floats`, `thetas` and `points` are made from them on first
    access.  A witness set holds only some of the points of the whole set at
    n, with the whole set's runs, rule and bound.  `spec` is the query the
    runs come from, in the same order (see `_Spec`).
    """

    rule: str
    cardinality_bound: Fraction
    n: int
    den: int
    runs: tuple[tuple[int, int, int, range, str], ...]
    numerators: np.ndarray = field(repr=False, compare=False)
    run: np.ndarray = field(repr=False, compare=False)
    k: np.ndarray = field(repr=False, compare=False)
    spec: _Spec = field(repr=False, compare=False)

    @cached_property
    def floats(self) -> np.ndarray:
        """float(theta) of every point, one correctly rounded division each."""
        return _floats(self.numerators, self.den)

    @cached_property
    def thetas(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.numerators.tolist(), repeat(self.den)))

    @cached_property
    def tags(self) -> list[tuple[str, ...]]:
        """The sorted tags of the runs holding each point, of the whole set."""
        code = np.zeros(len(self.numerators), np.int64)
        for i, (base, step, _, ks, _) in enumerate(self.runs):
            if step:
                x, s = self.numerators - base, step // self.n
                hit = (x % s == 0) & (x // s >= ks.start) & (x // s < ks.stop)
            else:
                hit = self.numerators == base
            code |= hit.astype(np.int64) << i
        names = {c: tuple(sorted({run[4] for i, run in enumerate(self.runs) if c >> i & 1}))
                 for c in set(code.tolist())}
        return [names[c] for c in code.tolist()]

    @cached_property
    def points(self) -> tuple[CandidatePoint, ...]:
        return tuple(map(CandidatePoint._make, zip(self.thetas, self.tags)))

    def __len__(self) -> int:
        return len(self.numerators)

    def __iter__(self) -> Iterator[CandidatePoint]:
        return iter(self.points)


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

    Its runs (see `CandidateSet`) do not depend on n and have their own
    denominators, which all divide `scale`; a lattice's range is left empty.
    Each run's rows (p, c, q) in `edges` give its least and greatest k at n
    as (p * n + c) // q (k = 0 for an endpoint or breakpoint).  The
    cardinality bound counts one per offered endpoint or breakpoint, kept or
    not, plus max(hi - lo, 0) / spacing + 1 per lattice on the open window
    (lo, hi).  `windows` holds each run's window coefficients, its side of a
    Mixed crossover fixed.
    """

    rule: str
    runs: tuple[tuple[int, int, int, range, str], ...]
    edges: tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...]
    scale: int
    offered: int
    windows: WindowTable

    def frame(self, n: int) -> tuple[int, list, Fraction, int]:
        """(den, runs, cardinality bound, top) of the whole set at n: every
        point over one common denominator, with 2 * top >= every numerator."""
        den = math.lcm(*(d // math.gcd(base, d) for base, _, d, *_ in self.runs),
                       *(d * n // math.gcd(step, d * n) for _, step, d, *_ in self.runs if step))
        runs, top, bound = [], 0, (self.offered, 1)  # bound as numerator and denominator
        for (base, step, d, _, tag), ((p0, c0, q0), (p1, c1, q1)) in zip(self.runs, self.edges):
            kmin, kmax = (p0 * n + c0) // q0, (p1 * n + c1) // q1
            base, step = base * (den // d), step * (den // d)
            runs.append((base, step, den, range(kmin, max(kmin, kmax + 1)), tag))
            if kmin <= kmax:
                top = max(top, abs(base), step // n * max(-kmin, kmax + 1))
            if step:
                q = q0 * q1
                bound = (bound[0] * q + bound[1] * (max(p1 * q0 - p0 * q1, 0) * n + q),
                         bound[1] * q)
        return den, runs, Fraction(*bound), top


    @cached_property
    def tables(self) -> tuple[np.ndarray, np.ndarray, int, int]:
        """(kbounds, coef, top, kratio) of `_block`, made when first asked for
        (a search asks on its first sweep): the rows of `edges` and of a
        window (see `_block`); each run's base and step over `scale`, so that
        n * scale * theta = n * base + step * k; a bound on their entries and
        |scale * theta| on [a, b]; and a bound on |k| / n at every candidate.
        From the bounds and its n each call picks int64 (the arrays as
        cached) or Python ints."""
        runs, scale = self.runs, self.scale
        # kbounds[i, :, :, j]: the i-th of (1, tn * rd, td * rd, rn * td) times
        # run j's rows (p, c, q) of its least and greatest k, of the whole set
        # and then of the window near -+ radius / n for near tn / td and radius
        # rn / rd: offset + k * s / n is there at k = (p * n -+ x) / q for
        # p = (tn * den - base * td) * rd, x = rn * den * td and q = step * td * rd
        kbounds = np.zeros((4, 3, 4, len(runs)), object)
        for j, ((base, step, den, *_), (lo, hi)) in enumerate(zip(runs, self.edges)):
            kbounds[0, :, :2, j] = list(zip(lo, hi))
            if step:  # k from (p * n + q - 1 - x) // q to (p * n + x) // q
                kbounds[1:3, 0, 2:, j] = [[den], [-base]]
                kbounds[:, 1, 2, j] = -1, 0, step, -den
                kbounds[3, 1, 3, j] = den
                kbounds[2, 2, 2:, j] = step
            else:
                kbounds[0, 2, 2:, j] = 1
        coef = np.array([(base * (scale // den), step * (scale // den))
                         for base, step, den, *_ in runs], object).T
        # a and b are runs: coef bounds |scale * theta| on [a, b]
        top = max(map(abs, chain(kbounds.flat, coef.flat)))
        # theta in [a, b] bounds |step * k / n| = |theta * den - base|
        kratio = max(-(-(top * den + abs(base) * scale) // (step * scale)) if step else 0
                     for base, step, den, *_ in runs)
        kbounds, coef = (x.astype(np.int64 if top < 2**62 else object) for x in (kbounds, coef))
        for x in (kbounds, coef):  # shared by every block of the query
            x.flags.writeable = False
        return kbounds.reshape(4, -1), coef, top, kratio


@lru_cache(maxsize=1024)
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
    # a single on the crossover takes the absolute side, as its margins agree there
    cn, cd = c.as_integer_ratio()
    relative = [er is not None and (ea is None or base * cd > cn * den)
                if not step else tag in (TAG_REL_UPPER, TAG_REL_LOWER)
                for base, step, den, _, tag in runs]
    windows = window_table(criterion, estimator, runs, relative)
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
    clamp must equal [a, b].
    """
    _check_n(n)
    spec = _spec(criterion, estimator, a, b)
    den, runs, bound, top = spec.frame(n)
    dtype = np.int64 if top < 2**62 else object  # else Python ints, which never wrap
    run = np.repeat(np.arange(len(runs)), [len(r[3]) for r in runs])
    k = np.concatenate([np.arange(r[3].start, r[3].stop, dtype=dtype) for r in runs])
    base, step = np.array([(r[0], r[1] // n) for r in runs], dtype)[run].T
    numerators, first = np.unique(base + step * k, return_index=True)
    return CandidateSet(spec.rule, bound, n, den, tuple(runs), numerators, run[first], k[first],
                        spec)


@dataclass(frozen=True)
class CandidateBlock:
    """Candidates of the sample sizes n0, n0 + 1, ...

    Row j is the point k[j] of `spec.runs[run[j]]` (see `_Spec`) at sample size
    n[j]; its theta is numerators[j] / (n[j] * scale), and floats[j] that
    theta correctly rounded.  The rows are sorted by n and then theta,
    without repeats; those of the i-th n are starts[i]:starts[i + 1].
    """

    spec: _Spec
    n0: int
    n: np.ndarray = field(repr=False, compare=False)
    run: np.ndarray = field(repr=False, compare=False)
    k: np.ndarray = field(repr=False, compare=False)
    numerators: np.ndarray = field(repr=False, compare=False)
    floats: np.ndarray = field(repr=False, compare=False)
    starts: np.ndarray = field(repr=False, compare=False)

    def thetas(self, rows: np.ndarray) -> list[Fraction]:
        return [Fraction(x, n * self.spec.scale)
                for x, n in zip(self.numerators[rows].tolist(), self.n[rows].tolist())]

    def candidate_set(self, i: int) -> CandidateSet:
        """The i-th n's rows as a `CandidateSet`, with the whole set's runs,
        rule and cardinality bound at that n."""
        n = self.n0 + i
        den, runs, bound, top = self.spec.frame(n)
        rows, dtype = slice(*self.starts[i:i + 2]), np.int64 if top < 2**62 else object
        x = self.numerators[rows].astype(object) // (n * self.spec.scale // den)
        return CandidateSet(self.spec.rule, bound, n, den, tuple(runs), x.astype(dtype),
                            self.run[rows], self.k[rows].astype(dtype), self.spec)


def candidate_block(
    n0: int,
    count: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    a: Fraction,
    b: Fraction,
    near: Fraction,
    radius: Fraction,
) -> CandidateBlock:
    """The points of `candidate_set_for` at each n = n0, ..., n0 + count - 1
    within radius / n of `near`, and all its endpoints and breakpoints (see
    `CandidateBlock`).  Each lattice's range of k at every n is a floor
    division of integers affine in n, for all n at once; no Fraction is made
    per n.
    """
    _check_n(n0)
    return _block(_spec(criterion, estimator, a, b), n0, count,
                  exact(near, name="near"), exact(radius, name="radius"))


def _block(spec: _Spec, n0: int, count: int, near: Fraction,
           radius: Fraction | int) -> CandidateBlock:
    """`candidate_block` of `spec`; only the floors of the window are made here."""
    (rn, rd), (tn, td) = radius.as_integer_ratio(), near.as_integer_ratio()
    # run j's least k at n is the greater of two floors (p * n + c) // q, and
    # its greatest the lesser of two: one each of the whole set and of the
    # window (see `_Spec`)
    scalars = (1, tn * rd, td * rd, rn * td)
    kbounds, coef, top, _ = spec.tables
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
    # theta times n * scale, exact, to sort by and for the thetas; |k * step|
    # is at most n * (|theta| * scale + |base|), below 2 * n * top
    top = 2 * top * (n0 + count)
    dtype = np.int64 if top < 2**62 else object
    base, step = coef.astype(dtype, copy=False).take(run, axis=1)
    numerators = n * base + step * k.astype(dtype, copy=False)
    order = np.lexsort((numerators, n))  # n stays sorted
    run, k, numerators = run[order], k[order], numerators[order]
    new = np.empty(len(n), bool)
    new[:1] = True
    new[1:] = (numerators[1:] != numerators[:-1]) | (n[1:] != n[:-1])
    n, run, k, numerators = n[new], run[new], k[new], numerators[new]
    scale = spec.scale
    floats = _floats(numerators, (n if (n0 + count) * scale < 2**62 else n.astype(object)) * scale,
                     max(top, (n0 + count) * scale))
    starts = n.searchsorted(ns)
    return CandidateBlock(spec, n0, n, run, np.asarray(k, np.int64), numerators, floats, starts)
