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

All arithmetic is exact.  `_build` puts every point over one common
denominator, each lattice one range of integer numerators, and merges them as
integers; a Fraction is made only when a caller asks for the thetas.  Given a
window, it clamps each lattice's range to it, so a sample-size search can
reject an n on the few candidates near the previous n's worst theta in O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional

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


@dataclass(frozen=True)
class CandidatePoint:
    theta: Fraction
    tags: tuple[str, ...]


@dataclass(frozen=True)
class CandidateSet:
    """Sorted, deduplicated candidate points plus the rule's cardinality bound.

    Each run (base, step, den, ks, tag) holds the thetas (base + step * k) / den
    for k in the range ks: one per lattice, one of length 1 per endpoint or
    breakpoint.  The points are the arrays `numerators` (over `den`, ascending)
    and each one's `run` index and `k`; `floats`, `thetas` and `points` are
    made from them on first access.
    """

    rule: str
    cardinality_bound: Fraction
    den: int
    runs: tuple[tuple[int, int, int, range, str], ...]
    numerators: np.ndarray = field(repr=False, compare=False)
    run: np.ndarray = field(repr=False, compare=False)
    k: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def floats(self) -> np.ndarray:
        """float(theta) of every point, one correctly rounded division each."""
        x = self.numerators  # exact as float64 up to 2**53
        x = x if max(-x[0], x[-1], self.den) <= 2**53 else x.astype(object)
        return np.asarray(x / self.den, dtype=float)

    @cached_property
    def thetas(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.numerators.tolist())

    @cached_property
    def points(self) -> tuple[CandidatePoint, ...]:
        tags: dict[int, set[str]] = {}
        for base, step, _, ks, tag in self.runs:
            for k in ks:
                tags.setdefault(base + step * k, set()).add(tag)
        return tuple(CandidatePoint(t, tuple(sorted(tags[x])))
                     for t, x in zip(self.thetas, self.numerators.tolist()))

    def __len__(self) -> int:
        return len(self.numerators)

    def __iter__(self) -> Iterator[CandidatePoint]:
        return iter(self.points)


def _build(rule: str, offered: list[tuple[Fraction, str, bool]],
           lattices: list[tuple[Fraction, Fraction, Fraction, Fraction, str]],
           window: Optional[tuple[Fraction, Fraction]]) -> CandidateSet:
    """The set of the kept points among the offered (theta, tag, kept) and of
    the lattices (spacing, offset, lo, hi, tag), each the points offset + k *
    spacing, k integer, strictly inside (lo, hi); with `window` = (lo, hi)
    only the lattice points inside [lo, hi].  The rule and the cardinality
    bound stay those of the whole set."""
    singles = [(t, tag) for t, tag, kept in offered if kept]
    den = math.lcm(*(t.denominator for t, _ in singles),
                   *(f.denominator for lattice in lattices for f in lattice[:2]))

    def over(f: Fraction) -> int:  # numerator of f over den
        return f.numerator * (den // f.denominator)

    runs = [(over(t), 0, den, range(1), tag) for t, tag in singles]
    bound = (len(offered), 1)  # as numerator and denominator
    top = max(abs(run[0]) for run in runs)  # 2 * top >= every |base + step * k|

    def k_ratio(f: Fraction, step: int, base: int) -> tuple[int, int]:
        # (f - offset) / spacing as (numerator, positive denominator), where
        # step and base are spacing and offset over den
        return f.numerator * den - base * f.denominator, step * f.denominator

    for spacing, offset, lo, hi, tag in lattices:
        step, base = over(spacing), over(offset)
        (lo_num, lo_den), (hi_num, hi_den) = (k_ratio(f, step, base) for f in (lo, hi))
        kmin = lo_num // lo_den + 1
        kmax = -(-hi_num // hi_den) - 1  # below kmin when lo >= hi
        q = lo_den * hi_den  # bound += max(hi - lo, 0) / spacing + 1
        bound = (bound[0] * q + bound[1] * (max(hi_num * lo_den - lo_num * hi_den, 0) + q),
                 bound[1] * q)
        if window is not None:
            # a single on this lattice keeps its lattice tag, as in the whole set
            whole = range(base + kmin * step, base + (kmax + 1) * step, step)
            runs += [(x, 0, den, range(1), tag) for x, *_ in runs[:len(singles)] if x in whole]
            (lo_num, lo_den), (hi_num, hi_den) = (k_ratio(f, step, base) for f in window)
            kmin = max(kmin, -(-lo_num // lo_den))
            kmax = min(kmax, hi_num // hi_den)
        if kmin <= kmax:
            runs.append((base, step, den, range(kmin, kmax + 1), tag))
            top = max(top, abs(base), step * max(-kmin, kmax + 1))
    dtype = np.int64 if top < 2**62 else object  # else Python ints, which never wrap
    run = np.repeat(np.arange(len(runs)), [len(r[3]) for r in runs])
    k = np.concatenate([np.arange(r[3].start, r[3].stop, dtype=dtype) for r in runs])
    base, step = np.array([r[:2] for r in runs], dtype)[run].T
    numerators, first = np.unique(base + step * k, return_index=True)
    return CandidateSet(rule, Fraction(*bound), den, tuple(runs), numerators,
                        run[first], k[first])


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
        lattices += [(Fraction(1, n), -ea, a, minus_hi, TAG_MINUS),
                     (Fraction(1, n), ea, plus_lo, c, TAG_PLUS)]
    if er is not None:
        upper_hi, lower_lo = b, c
        if clamped:
            a_low = a / (1 - er)  # below it the clamp at a cannot miss low
            b_up = b / (1 + er)   # above it the clamp at b cannot miss high
            offered += [(t, TAG_BREAKPOINT, c <= t <= b) for t in (a_low, b_up)]
            upper_hi, lower_lo = b_up, max(a_low, c)
        lattices += [(Fraction(1, n * (1 + er)), Fraction(0), c, upper_hi, TAG_REL_UPPER),
                     (Fraction(1, n * (1 - er)), Fraction(0), lower_lo, b, TAG_REL_LOWER)]
    rule = f"{name}/{'range-preserving' if clamped else 'unbiased'}"
    return _build(rule, offered, lattices, window)
