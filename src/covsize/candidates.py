"""Finite candidate sets that carry the worst-case coverage.

Coverage as a function of theta is piecewise: between consecutive points
where an integer window endpoint jumps (lattice points of the margin) or
where a clamped estimator switches regime (breakpoints), the window is
constant and the coverage is single peaked.  The infimum over the whole
interval is therefore attained on the finite set of endpoints, lattice
points, and breakpoints collected here, and each builder also reports a
strict upper bound on how many points it can emit.

Lattice families, tagged by provenance:
  plus-lattice   theta = k/n + eps        (lower window endpoint jumps)
  minus-lattice  theta = k/n - eps        (upper window endpoint jumps)
  rel-upper      theta = k/(n*(1+eps))    (upper window endpoint jumps)
  rel-lower      theta = k/(n*(1-eps))    (lower window endpoint jumps)

All arithmetic is exact.  A builder records its endpoints, breakpoints and
lattices; `_Collector.build` then puts all of them over one common
denominator, so each lattice is one range of integer numerators, points are
merged by tag and sorted as integers, and a Fraction is made only for each
emitted point.  Lattice points lie strictly inside their stated open windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from ._exact import exact, ratio_str
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

    def add(self, theta: Fraction, tag: str) -> None:
        self._singles.append((theta, tag))

    def lattice(self, spacing: Fraction, offset: Fraction, lo: Fraction, hi: Fraction,
                tag: str) -> None:
        """Points offset + k * spacing, k integer, strictly inside (lo, hi)."""
        self._lattices.append((spacing, offset, lo, hi, tag))

    def build(self, rule: str, bound: Fraction) -> CandidateSet:
        den = math.lcm(*(t.denominator for t, _ in self._singles),
                       *(f.denominator for lattice in self._lattices for f in lattice[:2]))

        def over(f: Fraction) -> int:  # numerator of f over den
            return f.numerator * (den // f.denominator)

        runs: list[tuple[str, Iterable[int]]] = [(tag, (over(t),)) for t, tag in self._singles]
        for spacing, offset, lo, hi, tag in self._lattices:
            kmin = math.floor((lo - offset) / spacing) + 1
            kmax = math.ceil((hi - offset) / spacing) - 1  # below kmin when lo >= hi
            step, base = over(spacing), over(offset)
            runs.append((tag, range(base + kmin * step, base + (kmax + 1) * step, step)))
        # tags in sorted order, so each point's tuple comes out sorted
        tags: dict[int, tuple[str, ...]] = {}
        for tag, xs in sorted(runs, key=lambda run: run[0]):
            for x in xs:
                have = tags.get(x, ())
                if tag not in have:
                    tags[x] = have + (tag,)
        points = tuple(CandidatePoint(Fraction(x, den), tags[x]) for x in sorted(tags))
        return CandidateSet(rule=rule, points=points, cardinality_bound=bound)


def _check_args(n: int, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    _check_n(n)
    a = exact(a, name="a")
    b = exact(b, name="b")
    if not a < b:
        raise DomainError(f"need a < b, got a={a}, b={b}")
    return a, b


def _abs_lattices(col: _Collector, n: int, eps: Fraction, lo: Fraction, hi: Fraction) -> None:
    spacing = Fraction(1, n)
    col.lattice(spacing, eps, lo, hi, TAG_PLUS)
    col.lattice(spacing, -eps, lo, hi, TAG_MINUS)


def _rel_lattices(col: _Collector, n: int, eps: Fraction, lo_u: Fraction, hi_u: Fraction,
                  lo_l: Fraction, hi_l: Fraction) -> None:
    col.lattice(Fraction(1, n * (1 + eps)), Fraction(0), lo_u, hi_u, TAG_REL_UPPER)
    col.lattice(Fraction(1, n * (1 - eps)), Fraction(0), lo_l, hi_l, TAG_REL_LOWER)


# ---------------------------------------------------------------------------
# unbiased estimator

def candidates_abs(n: int, eps: Fraction, a: Fraction, b: Fraction) -> CandidateSet:
    """Worst-coverage candidates for |Y_n/n - theta| < eps on [a, b]."""
    a, b = _check_args(n, a, b)
    eps = Absolute(eps).eps
    col = _Collector()
    col.add(a, TAG_ENDPOINT)
    col.add(b, TAG_ENDPOINT)
    _abs_lattices(col, n, eps, a, b)
    bound = 2 * n * (b - a) + 4
    return col.build("absolute/unbiased", bound)


def candidates_rel(n: int, eps: Fraction, a: Fraction, b: Fraction) -> CandidateSet:
    """Worst-coverage candidates for |Y_n/n - theta| < eps*theta on [a, b], a > 0."""
    a, b = _check_args(n, a, b)
    eps = Relative(eps).eps
    if a <= 0:
        raise DomainError(f"relative criterion needs a > 0, got a={a}")
    col = _Collector()
    col.add(a, TAG_ENDPOINT)
    col.add(b, TAG_ENDPOINT)
    _rel_lattices(col, n, eps, a, b, a, b)
    bound = 2 * n * (b - a) + 4
    return col.build("relative/unbiased", bound)


def candidates_mixed(
    n: int, eps_abs: Fraction, eps_rel: Fraction, a: Fraction, b: Fraction
) -> CandidateSet:
    """Worst-coverage candidates for the either-margin criterion on [a, b].

    Requires a < eps_abs/eps_rel < b.  Below the crossover the margin is the
    absolute one, so both absolute lattices live on (a, c); above it the
    margin is relative, so both relative lattices live on (c, b).
    """
    a, b = _check_args(n, a, b)
    crit = Mixed(eps_abs, eps_rel)
    if a < 0:
        raise DomainError(f"mixed criterion needs a >= 0, got a={a}")
    c = crit.crossover
    if not a < c < b:
        raise DomainError(
            f"mixed crossover eps_abs/eps_rel = {c} must lie strictly inside "
            f"({a}, {b}); outside it one margin dominates everywhere, so use a "
            f"pure absolute or pure relative criterion instead"
        )
    col = _Collector()
    col.add(a, TAG_ENDPOINT)
    col.add(b, TAG_ENDPOINT)
    col.add(c, TAG_BREAKPOINT)
    _abs_lattices(col, n, crit.eps_abs, a, c)
    _rel_lattices(col, n, crit.eps_rel, c, b, c, b)
    bound = 2 * n * (b - a) + 7
    return col.build("mixed/unbiased", bound)


# ---------------------------------------------------------------------------
# range-preserving estimator

def _add_within(col: _Collector, theta: Fraction, lo: Fraction, hi: Fraction, tag: str) -> None:
    if lo <= theta <= hi:
        col.add(theta, tag)


def candidates_rp_abs(n: int, eps: Fraction, a: Fraction, b: Fraction) -> CandidateSet:
    """Candidates for the clamped estimator under the absolute margin, 0 < a."""
    a, b = _check_args(n, a, b)
    eps = Absolute(eps).eps
    if a <= 0:
        raise DomainError(f"range-preserving absolute rule needs a > 0, got a={a}")
    col = _Collector()
    col.add(a, TAG_ENDPOINT)
    col.add(b, TAG_ENDPOINT)
    _add_within(col, a + eps, a, b, TAG_BREAKPOINT)
    _add_within(col, b - eps, a, b, TAG_BREAKPOINT)
    spacing = Fraction(1, n)
    # the upper window endpoint matters up to b - eps, the lower one from a + eps
    col.lattice(spacing, -eps, a, b - eps, TAG_MINUS)
    col.lattice(spacing, eps, a + eps, b, TAG_PLUS)
    bound = 2 * n * (b - a - eps) + 6
    return col.build("absolute/range-preserving", max(bound, Fraction(6)))


def candidates_rp_rel(n: int, eps: Fraction, a: Fraction, b: Fraction) -> CandidateSet:
    """Candidates for the clamped estimator under the relative margin, 0 < a."""
    a, b = _check_args(n, a, b)
    eps = Relative(eps).eps
    if a <= 0:
        raise DomainError(f"range-preserving relative rule needs a > 0, got a={a}")
    a_low = a / (1 - eps)   # below it the clamp at a cannot miss low
    b_up = b / (1 + eps)    # above it the clamp at b cannot miss high
    col = _Collector()
    col.add(a, TAG_ENDPOINT)
    col.add(b, TAG_ENDPOINT)
    _add_within(col, a_low, a, b, TAG_BREAKPOINT)
    _add_within(col, b_up, a, b, TAG_BREAKPOINT)
    _rel_lattices(col, n, eps, a, b_up, a_low, b)
    # either lattice window can be empty on its own; floor each width at zero
    # (equals 2n(b-a) - n*eps*(a+b) + 6 whenever both are nonempty)
    zero = Fraction(0)
    bound = (
        n * (1 + eps) * max(b_up - a, zero)
        + n * (1 - eps) * max(b - a_low, zero)
        + 6
    )
    return col.build("relative/range-preserving", bound)


def candidates_rp_mixed(
    n: int, eps_abs: Fraction, eps_rel: Fraction, a: Fraction, b: Fraction
) -> CandidateSet:
    """Candidates for the clamped estimator under the either-margin criterion.

    Requires 0 <= a < eps_abs/eps_rel < b.  The absolute-margin structure is
    collected on [a, c] and the relative-margin structure on [c, b], each with
    the clamp breakpoints of the full interval [a, b].
    """
    a, b = _check_args(n, a, b)
    crit = Mixed(eps_abs, eps_rel)
    if a < 0:
        raise DomainError(f"mixed criterion needs a >= 0, got a={a}")
    c = crit.crossover
    if not a < c < b:
        raise DomainError(
            f"mixed crossover eps_abs/eps_rel = {c} must lie strictly inside "
            f"({a}, {b}); outside it one margin dominates everywhere, so use a "
            f"pure absolute or pure relative criterion instead"
        )
    ea, er = crit.eps_abs, crit.eps_rel
    col = _Collector()
    col.add(a, TAG_ENDPOINT)
    col.add(b, TAG_ENDPOINT)
    col.add(c, TAG_BREAKPOINT)
    # absolute side, theta in [a, c]
    _add_within(col, a + ea, a, c, TAG_BREAKPOINT)
    _add_within(col, b - ea, a, c, TAG_BREAKPOINT)
    spacing = Fraction(1, n)
    col.lattice(spacing, -ea, a, min(b - ea, c), TAG_MINUS)
    col.lattice(spacing, ea, a + ea, c, TAG_PLUS)
    # relative side, theta in [c, b]
    a_low = a / (1 - er)
    b_up = b / (1 + er)
    _add_within(col, a_low, c, b, TAG_BREAKPOINT)
    _add_within(col, b_up, c, b, TAG_BREAKPOINT)
    _rel_lattices(col, n, er, c, b_up, max(a_low, c), b)
    # per-window point counts; windows can be empty independently, so each
    # width is floored at zero before it enters the bound
    zero = Fraction(0)
    bound = (
        n * max(min(b - ea, c) - a, zero)
        + n * max(c - a - ea, zero)
        + n * (1 + er) * max(b_up - c, zero)
        + n * (1 - er) * max(b - max(a_low, c), zero)
        + 11
    )
    return col.build("mixed/range-preserving", bound)


# ---------------------------------------------------------------------------
# dispatch

def candidate_set_for(
    n: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    a: Fraction,
    b: Fraction,
) -> CandidateSet:
    """Build the candidate set matching a (criterion, estimator) pair on [a, b]."""
    _check_n(n)
    a = exact(a, name="a")
    b = exact(b, name="b")
    if isinstance(estimator, RangePreserving):
        if estimator.lower != a or estimator.upper != b:
            raise DomainError(
                f"range-preserving clamp [{estimator.lower}, {estimator.upper}] must "
                f"equal the parameter interval [{a}, {b}]"
            )
        match criterion:
            case Absolute(eps=eps):
                return candidates_rp_abs(n, eps, a, b)
            case Relative(eps=eps):
                return candidates_rp_rel(n, eps, a, b)
            case Mixed():
                return candidates_rp_mixed(n, criterion.eps_abs, criterion.eps_rel, a, b)
    elif isinstance(estimator, Unbiased):
        match criterion:
            case Absolute(eps=eps):
                return candidates_abs(n, eps, a, b)
            case Relative(eps=eps):
                return candidates_rel(n, eps, a, b)
            case Mixed():
                return candidates_mixed(n, criterion.eps_abs, criterion.eps_rel, a, b)
    raise DomainError(f"unknown criterion/estimator pair {criterion!r}, {estimator!r}")


def describe_point(point: CandidatePoint) -> str:
    return f"{ratio_str(point.theta)} [{'+'.join(point.tags)}]"
