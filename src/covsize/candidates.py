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

The strict cardinality bound is derived while the points are offered: one
per offered endpoint or breakpoint, whether or not it is kept, plus
max(hi - lo, 0) / spacing + 1 per lattice on the open window (lo, hi), which
exceeds the number of lattice points strictly inside that window.

All arithmetic is exact.  `_Collector.build` puts every offered point over
one common denominator, so each lattice is one range of integer numerators,
points are merged by tag and sorted as integers, and a Fraction is made only
for each emitted point.  Given a window, it clamps each lattice's range to
it, so a sample-size search can reject an n on the few candidates near the
previous n's worst theta at O(1) cost instead of O(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from ._exact import exact
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
from .families import _check_n

TAG_ENDPOINT = "endpoint"
TAG_BREAKPOINT = "breakpoint"
TAG_PLUS = "plus-lattice"
TAG_MINUS = "minus-lattice"
TAG_REL_UPPER = "rel-upper"
TAG_REL_LOWER = "rel-lower"


@dataclass(frozen=True)
class CandidatePoint:
    theta: Fraction
    tags: tuple[str, ...]


@dataclass(frozen=True)
class CandidateSet:
    """Sorted, deduplicated candidate points plus the rule's cardinality bound."""

    rule: str
    points: tuple[CandidatePoint, ...]
    cardinality_bound: Fraction

    @property
    def thetas(self) -> tuple[Fraction, ...]:
        return tuple(p.theta for p in self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[CandidatePoint]:
        return iter(self.points)


class _Collector:
    def __init__(self) -> None:
        self._singles: list[tuple[Fraction, str]] = []
        self._lattices: list[tuple[Fraction, Fraction, Fraction, Fraction, str]] = []
        self._bound = Fraction(0)

    def add(self, theta: Fraction, tag: str,
            lo: Optional[Fraction] = None, hi: Optional[Fraction] = None) -> None:
        """Offer one point; it is kept only inside [lo, hi] when those are given."""
        self._bound += 1
        if lo is None or lo <= theta <= hi:
            self._singles.append((theta, tag))

    def lattice(self, spacing: Fraction, offset: Fraction, lo: Fraction, hi: Fraction,
                tag: str) -> None:
        """Points offset + k * spacing, k integer, strictly inside (lo, hi)."""
        self._bound += max(hi - lo, 0) / spacing + 1
        self._lattices.append((spacing, offset, lo, hi, tag))

    def build(self, rule: str,
              window: Optional[tuple[Fraction, Fraction]] = None) -> CandidateSet:
        """The collected set, or with `window` = (lo, hi) only its lattice
        points inside [lo, hi] plus every kept endpoint and breakpoint; the
        rule and the cardinality bound stay those of the whole set."""
        den = math.lcm(*(t.denominator for t, _ in self._singles),
                       *(f.denominator for lattice in self._lattices for f in lattice[:2]))

        def over(f: Fraction) -> int:  # numerator of f over den
            return f.numerator * (den // f.denominator)

        singles = [(tag, over(t)) for t, tag in self._singles]
        runs: list[tuple[str, Iterable[int]]] = [(tag, (x,)) for tag, x in singles]

        def k_ratio(f: Fraction, step: int, base: int) -> tuple[int, int]:
            # (f - offset) / spacing as (numerator, positive denominator), where
            # step and base are spacing and offset over den
            return f.numerator * den - base * f.denominator, step * f.denominator

        for spacing, offset, lo, hi, tag in self._lattices:
            step, base = over(spacing), over(offset)
            (lo_num, lo_den), (hi_num, hi_den) = (k_ratio(f, step, base) for f in (lo, hi))
            kmin = lo_num // lo_den + 1
            kmax = -(-hi_num // hi_den) - 1  # below kmin when lo >= hi
            whole = range(base + kmin * step, base + (kmax + 1) * step, step)
            if window is not None:
                # a single on this lattice keeps its lattice tag, as in the whole set
                runs.append((tag, [x for _, x in singles if x in whole]))
                (lo_num, lo_den), (hi_num, hi_den) = (k_ratio(f, step, base) for f in window)
                kmin = max(kmin, -(-lo_num // lo_den))
                kmax = min(kmax, hi_num // hi_den)
                whole = range(base + kmin * step, base + (kmax + 1) * step, step)
            runs.append((tag, whole))
        # tags in sorted order, so each point's tuple comes out sorted
        tags: dict[int, tuple[str, ...]] = {}
        for tag, xs in sorted(runs, key=lambda run: run[0]):
            for x in xs:
                have = tags.get(x, ())
                if tag not in have:
                    tags[x] = have + (tag,)
        points = tuple(CandidatePoint(Fraction(x, den), tags[x]) for x in sorted(tags))
        return CandidateSet(rule=rule, points=points, cardinality_bound=self._bound)


def candidate_set_for(
    n: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    a: Fraction,
    b: Fraction,
    *,
    window: Optional[tuple[Fraction, Fraction]] = None,
) -> CandidateSet:
    """Build the candidate set matching a (criterion, estimator) pair on [a, b].

    Relative needs a > 0, and so does range-preserving Absolute; Mixed needs
    a >= 0 and its crossover strictly inside (a, b).  A range-preserving
    clamp must equal [a, b].  With `window` = (lo, hi), exact, only the
    lattice points in [lo, hi] are emitted, plus every endpoint and
    breakpoint, so a window of width O(1/n) costs O(1) instead of O(n).
    """
    _check_n(n)
    a = exact(a, name="a")
    b = exact(b, name="b")
    if window is not None:
        window = (exact(window[0], name="window"), exact(window[1], name="window"))
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
    # margin eps_abs on [a, c] and eps_rel * theta on [c, b]
    match criterion:
        case Absolute(eps=ea):
            name, er, c = "absolute", None, b
            if clamped and a <= 0:
                raise DomainError(f"range-preserving absolute rule needs a > 0, got a={a}")
        case Relative(eps=er):
            name, ea, c = "relative", None, a
            if a <= 0:
                what = "range-preserving relative rule" if clamped else "relative criterion"
                raise DomainError(f"{what} needs a > 0, got a={a}")
        case Mixed(eps_abs=ea, eps_rel=er):
            name, c = "mixed", criterion.crossover
            if a < 0:
                raise DomainError(f"mixed criterion needs a >= 0, got a={a}")
            if not a < c < b:
                raise DomainError(
                    f"mixed crossover eps_abs/eps_rel = {c} must lie strictly inside "
                    f"({a}, {b}); outside it one margin dominates everywhere, so use a "
                    f"pure absolute or pure relative criterion instead"
                )
        case _:
            raise DomainError(f"unknown criterion/estimator pair {criterion!r}, {estimator!r}")

    col = _Collector()
    col.add(a, TAG_ENDPOINT)
    col.add(b, TAG_ENDPOINT)
    if a < c < b:
        col.add(c, TAG_BREAKPOINT)
    if ea is not None:
        # clamped, the upper window endpoint (minus lattice) matters up to
        # b - eps and the lower one (plus lattice) from a + eps
        minus_hi, plus_lo = c, a
        if clamped:
            col.add(a + ea, TAG_BREAKPOINT, a, c)
            col.add(b - ea, TAG_BREAKPOINT, a, c)
            minus_hi, plus_lo = min(b - ea, c), a + ea
        col.lattice(Fraction(1, n), -ea, a, minus_hi, TAG_MINUS)
        col.lattice(Fraction(1, n), ea, plus_lo, c, TAG_PLUS)
    if er is not None:
        upper_hi, lower_lo = b, c
        if clamped:
            a_low = a / (1 - er)  # below it the clamp at a cannot miss low
            b_up = b / (1 + er)   # above it the clamp at b cannot miss high
            col.add(a_low, TAG_BREAKPOINT, c, b)
            col.add(b_up, TAG_BREAKPOINT, c, b)
            upper_hi, lower_lo = b_up, max(a_low, c)
        col.lattice(Fraction(1, n * (1 + er)), Fraction(0), c, upper_hi, TAG_REL_UPPER)
        col.lattice(Fraction(1, n * (1 - er)), Fraction(0), lower_lo, b, TAG_REL_LOWER)
    return col.build(f"{name}/{'range-preserving' if clamped else 'unbiased'}", window)
