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
from typing import Iterator, NamedTuple

import numpy as np

from ._exact import exact
from .coverage import (
    ErrorCriterion,
    EstimatorKind,
    RangePreserving,
    Unbiased,
    margins,
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
    n, with the whole set's runs, rule and bound.
    """

    rule: str
    cardinality_bound: Fraction
    n: int
    den: int
    runs: tuple[tuple[int, int, int, range, str], ...]
    numerators: np.ndarray = field(repr=False, compare=False)
    run: np.ndarray = field(repr=False, compare=False)
    k: np.ndarray = field(repr=False, compare=False)

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


def _floats(numerators: np.ndarray, den) -> np.ndarray:
    """numerators / den correctly rounded; den is an int or one per point."""
    x = numerators  # exact as float64 up to 2**53
    if len(x) and max(-x.min(), x.max(), np.max(den)) > 2**53:
        x, den = x.astype(object), np.asarray(den, object)
    return np.asarray(x / den, dtype=float)


class _Spec(NamedTuple):
    """The candidates of a (criterion, estimator) pair on [a, b] for every n.

    Its runs (see `CandidateSet`) do not depend on n and have their own
    denominators, which all divide `scale`; a lattice's range is left empty.
    Each run's rows (p, c, q) in `edges` give floors f = (p * n + c) // q,
    and its k at n runs from f0 + 1 to -f1 - 1 (k = 0 for an endpoint or
    breakpoint).  The cardinality bound counts one per offered endpoint or
    breakpoint, kept or not, plus max(hi - lo, 0) / spacing + 1 per lattice
    on the open window (lo, hi), which is -f1 - f0 + 1 before the floors.
    """

    rule: str
    runs: tuple[tuple[int, int, int, range, str], ...]
    edges: tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...]
    scale: int
    offered: int

    def frame(self, n: int) -> tuple[int, list, Fraction, int]:
        """(den, runs, cardinality bound, top) of the whole set at n: every
        point over one common denominator, with 2 * top >= every numerator."""
        den = math.lcm(*(d // math.gcd(base, d) for base, _, d, *_ in self.runs),
                       *(d * n // math.gcd(step, d * n) for _, step, d, *_ in self.runs if step))
        runs, top, bound = [], 0, (self.offered, 1)  # bound as numerator and denominator
        for (base, step, d, _, tag), ((p0, c0, q0), (p1, c1, q1)) in zip(self.runs, self.edges):
            kmin, kmax = (p0 * n + c0) // q0 + 1, -((p1 * n + c1) // q1) - 1
            base, step = base * (den // d), step * (den // d)
            runs.append((base, step, den, range(kmin, max(kmin, kmax + 1)), tag))
            if kmin <= kmax:
                top = max(top, abs(base), step // n * max(-kmin, kmax + 1))
            if step:
                q = q0 * q1
                bound = (bound[0] * q + bound[1] * (max(-p1 * q0 - p0 * q1, 0) * n + q),
                         bound[1] * q)
        return den, runs, Fraction(*bound), top


@lru_cache(maxsize=64)
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
            offered += [(t, TAG_BREAKPOINT, a <= t <= c) for t in (a + ea, b - ea)]
            minus_hi, plus_lo = min(b - ea, c), a + ea
        lattices += [(Fraction(1), -ea, a, minus_hi, TAG_MINUS),
                     (Fraction(1), ea, plus_lo, c, TAG_PLUS)]
    if er is not None:
        upper_hi, lower_lo = b, c
        if clamped:
            a_low = a / (1 - er)  # below it the clamp at a cannot miss low
            b_up = b / (1 + er)   # above it the clamp at b cannot miss high
            offered += [(t, TAG_BREAKPOINT, c <= t <= b) for t in (a_low, b_up)]
            upper_hi, lower_lo = b_up, max(a_low, c)
        lattices += [(1 / (1 + er), Fraction(0), c, upper_hi, TAG_REL_UPPER),
                     (1 / (1 - er), Fraction(0), lower_lo, b, TAG_REL_LOWER)]
    rule = f"{name}/{'range-preserving' if clamped else 'unbiased'}"
    runs = [(t.numerator, 0, t.denominator, range(1), tag) for t, tag, kept in offered if kept]
    edges = [((0, -1, 1), (0, -1, 1))] * len(runs)
    for s, offset, lo, hi, tag in lattices:
        (sn, sd), (on, od), (ln, ld), (hn, hd) = (f.as_integer_ratio()
                                                  for f in (s, offset, lo, hi))
        den = math.lcm(sd, od)
        base, step = on * (den // od), sn * (den // sd)
        runs.append((base, step, den, range(0), tag))
        # offset + k * s / n is t at k = (t * den - base) * n / step
        edges.append(((ln * den - base * ld, 0, step * ld), (base * hd - hn * den, 0, step * hd)))
    scale = math.lcm(*(run[2] for run in runs))
    return _Spec(rule, tuple(runs), tuple(edges), scale, len(offered))


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
    return CandidateSet(spec.rule, bound, n, den, tuple(runs), numerators, run[first], k[first])


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
                            self.run[rows], self.k[rows].astype(dtype))


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
    spec = _spec(criterion, estimator, a, b)
    (rn, rd), (tn, td) = (exact(x, name=name).as_integer_ratio()
                          for x, name in ((radius, "radius"), (near, "near")))
    # run j's least k at n is max(f0 + 1, -f1) and its greatest min(-f2 - 1, f3)
    # for the floors f = (p * n + c) // q: f0 and f2 from the whole set, and
    # f1 and f3 from the window, where offset + k * s / n = near -+ radius / n
    # at k = (p * n -+ x) / q
    bounds = []
    for (base, step, den, *_), (whole_lo, whole_hi) in zip(spec.runs, spec.edges):
        p, x, q = (((tn * den - base * td) * rd, rn * den * td, step * td * rd) if step
                   else (0, 0, 1))
        bounds.append(whole_lo + (-p, x, q) + whole_hi + (p, x, q))
    ns = np.arange(n0, n0 + count, dtype=np.int64)
    top = max(map(abs, chain.from_iterable(bounds))) * (n0 + count + 1)
    p, c, q = np.array(bounds, np.int64 if top < 2**62 else object).reshape(-1, 4, 3).T[..., None]
    f = (ns * p + c) // q  # f[i, j]: the i-th floor of run j, one per n
    kmin, kmax = np.maximum(f[0] + 1, -f[1]).ravel(), np.minimum(-f[2] - 1, f[3]).ravel()
    counts = np.maximum(kmax - kmin + 1, 0).astype(np.int64)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    cell = np.repeat(np.arange(len(bounds) * count), counts)  # run * count + n - n0
    n, run = n0 + cell % count, cell // count
    k = np.repeat(kmin, counts) + (np.arange(first.size) - first)
    # theta times n * scale, exact, to sort by and for the thetas
    scale = spec.scale
    coef = [(base * (scale // den), step * (scale // den)) for base, step, den, *_ in spec.runs]
    top = max(abs(x) for c in coef for x in c) * (n0 + count) * (1 + int(np.max(np.abs(k))))
    dtype = np.int64 if top < 2**62 else object
    base, step = np.array(coef, dtype)[run].T
    numerators = n * base + step * k.astype(dtype)
    order = np.lexsort((numerators, n))
    n, run, k, numerators = n[order], run[order], k[order], numerators[order]
    new = np.ones(len(n), bool)
    new[1:] = (n[1:] != n[:-1]) | (numerators[1:] != numerators[:-1])
    n, run, k, numerators = n[new], run[new], k[new], numerators[new]
    floats = _floats(numerators, (n if (n0 + count) * scale < 2**62 else n.astype(object)) * scale)
    starts = np.append(np.searchsorted(n, ns), len(n))
    return CandidateBlock(spec, n0, n, run, k.astype(np.int64), numerators, floats, starts)
