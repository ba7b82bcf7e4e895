"""Coverage probabilities Pr{ estimate within margin of theta }.

The estimate of theta is theta_hat = Y_n / n (unbiased) or its clamp to the
interval [a, b] (range preserving).  A criterion fixes the margin: Absolute
uses |est - theta| < eps, Relative uses |est - theta| < eps * theta, Mixed
accepts when either margin is met, which at each theta is just the wider of
the two (they swap roles at theta = eps_abs / eps_rel).

Because Y_n is integer valued, each event {margin met} is a window of Y_n
values with closed-form endpoints.  The smallest integer strictly above x is
floor(x) + 1 and the largest strictly below is ceil(x) - 1, which gives the
window formulas below; they are evaluated in exact integer arithmetic on
numerators and denominators before any probability is touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from ._exact import exact
from .errors import DomainError
from .families import DistributionFamily, _check_n, _int64_ends, prob_range, resolve_family


# ---------------------------------------------------------------------------
# criteria

@dataclass(frozen=True)
class Absolute:
    """Margin |estimate - theta| < eps."""

    eps: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", exact(self.eps, name="eps"))
        if self.eps <= 0:
            raise DomainError(f"absolute margin must be positive, got {self.eps}")


@dataclass(frozen=True)
class Relative:
    """Margin |estimate - theta| < eps * theta; needs 0 < eps < 1 and theta > 0."""

    eps: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", exact(self.eps, name="eps"))
        if not (0 < self.eps < 1):
            raise DomainError(f"relative margin must lie in (0, 1), got {self.eps}")


@dataclass(frozen=True)
class Mixed:
    """Accept when the absolute or the relative margin is met.

    Pointwise this is a single margin of width max(eps_abs, eps_rel * theta):
    the absolute one up to the crossover theta = eps_abs / eps_rel, the
    relative one beyond it.
    """

    eps_abs: Fraction
    eps_rel: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps_abs", exact(self.eps_abs, name="eps_abs"))
        object.__setattr__(self, "eps_rel", exact(self.eps_rel, name="eps_rel"))
        if self.eps_abs <= 0:
            raise DomainError(f"absolute margin must be positive, got {self.eps_abs}")
        if not (0 < self.eps_rel < 1):
            raise DomainError(f"relative margin must lie in (0, 1), got {self.eps_rel}")

    @cached_property
    def crossover(self) -> Fraction:
        return self.eps_abs / self.eps_rel


ErrorCriterion = Union[Absolute, Relative, Mixed]


# ---------------------------------------------------------------------------
# estimators

@dataclass(frozen=True)
class Unbiased:
    """Plain estimator Y_n / n."""


@dataclass(frozen=True)
class RangePreserving:
    """Estimator clamped to [lower, upper], the interval theta is known to lie in."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", exact(self.lower, name="lower"))
        object.__setattr__(self, "upper", exact(self.upper, name="upper"))
        if not self.lower < self.upper:
            raise DomainError(
                f"range-preserving bounds must satisfy lower < upper, "
                f"got [{self.lower}, {self.upper}]"
            )


EstimatorKind = Union[Unbiased, RangePreserving]

UNBIASED = Unbiased()


# ---------------------------------------------------------------------------
# integer windows

def margins(criterion: ErrorCriterion) -> tuple[Optional[Fraction], ...]:
    """(eps_abs, eps_rel, c): eps_abs up to the crossover c, eps_rel * theta beyond."""
    match criterion:
        case Absolute(eps=eps):
            return eps, None, None
        case Relative(eps=eps):
            return None, eps, None
        case Mixed(eps_abs=ea, eps_rel=er):
            return ea, er, criterion.crossover
    raise DomainError(f"unknown criterion {criterion!r}")


class WindowTable(NamedTuple):
    """The integer window coefficients of some runs, each on one side of the
    crossover: column j of `coef` (int64 if `top`, a bound on its entries,
    is below 2**62) holds run j's (p_lo, p_hi, r, a_lo, a_hi, q_lo, q_hi).
    At its point (n, k), x_lo = n * p_lo + r + q_lo * k and
    x_hi = n * p_hi - 1 + q_hi * k give lo = x_lo // r and hi = x_hi // r,
    and a clamped estimate misses low only when x_lo >= r - n * a_lo // ad
    and high only when x_hi < n * a_hi // bd.  A call takes int64 unless
    top * 4 * (n + |k| + max(ad, bd)) may reach 2**62."""

    coef: np.ndarray
    top: int
    ad: int
    bd: int
    clamped: bool


def window_table(criterion: ErrorCriterion, estimator: EstimatorKind, runs: Sequence[tuple],
                 lattice_sides: Sequence[bool]) -> WindowTable:
    """The `WindowTable` of `runs`.  A run (base, step, den, ...) is the
    lattice of thetas (base + step * k / n) / den at sample size n: offset
    base / den, spacing step / (den * n); a single theta has step 0.  A run
    keeps one side of the crossover, so n * (theta -+ margin) is affine in n
    and k along it: each window end is one floor division of integers and
    each clamp flag one comparison.  A single theta takes the relative side
    when above the crossover (on it the margins agree); the lattices, in
    order, the sides in `lattice_sides` (True: relative).  No theta is
    checked here: `acceptance_windows` checks those from outside, and
    `candidates._spec` builds its runs inside an [a, b] it has validated."""
    ea, er, c = margins(criterion)
    sides = iter(lattice_sides)
    clamp = estimator if isinstance(estimator, RangePreserving) else None
    if clamp is None and not isinstance(estimator, Unbiased):
        raise DomainError(f"unknown estimator {estimator!r}")
    (an, ad), (bn, bd) = ((x.as_integer_ratio() for x in (clamp.lower, clamp.upper))
                          if clamp is not None else ((0, 1), (0, 1)))
    margin = tuple(m and m.as_integer_ratio() for m in (ea, er))  # by relative: 0, 1
    coef = []  # flat, one run after another
    for u, v, w, *_ in runs:
        rel = next(sides) if v else ea is None or (
            c is not None and u * c.denominator > c.numerator * w)
        # margin e/d (times theta if relative): with r = w * d the window ends
        # lo = floor(n * (theta - margin)) + 1 and hi = ceil(n * (theta + margin)) - 1
        # are x // r for x = r * n * (theta - margin) + r and r * n * (theta + margin) - 1;
        # the clamped estimate misses low only when theta - margin >= a (the
        # clamp at a is itself a miss), and misses high only when
        # theta + margin <= b; an inactive side cannot miss
        (e, d), (s0, s1) = margin[rel], ((u, v) if rel else (w, 0))
        coef += (d * u - e * s0, d * u + e * s0, w * d, -w * d * an, w * d * bn,
                 d * v - e * s1, d * v + e * s1)
    top = max(map(abs, coef), default=0)
    coef = np.array(coef, np.int64 if top < 2**62 else object).reshape(-1, 7).T
    return WindowTable(coef, top, ad, bd, clamp is not None)


def windows_at(table: WindowTable, n: Union[int, np.ndarray], run: np.ndarray, k: np.ndarray,
               nk: Optional[int] = None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The windows (lo, hi, open_lo, open_hi), as `acceptance_windows` gives
    them, at the points (run, k) of the table's runs, n one int or one per
    point; `nk`, when given, bounds n + |k| at every point."""
    k = np.asarray(k)
    if nk is None:
        nk = int(np.max(n, initial=1)) + int(np.abs(k).max(initial=0))
    # else Python ints, which never wrap
    dtype = np.int64 if table.top * 4 * (nk + max(table.ad, table.bd)) < 2**62 else object
    n, k = np.asarray(n, dtype), np.asarray(k, dtype)
    p_lo, p_hi, r, a_lo, a_hi, q_lo, q_hi = table.coef.astype(dtype, copy=False).take(run, axis=1)
    x_lo, x_hi = n * p_lo + r + q_lo * k, n * p_hi - 1 + q_hi * k
    lo, hi = x_lo // r, x_hi // r
    if dtype is object:
        lo, hi = _int64_ends(lo, hi)
    if not table.clamped:
        return lo, hi, lo != lo, lo != lo
    return (lo, hi, np.asarray(x_lo < r - n * a_lo // table.ad, bool),
            np.asarray(x_hi >= n * a_hi // table.bd, bool))


def acceptance_windows(
    n: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    thetas: Sequence[Fraction],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Acceptance windows at the thetas (exact numbers), for one sample size n.

    Returns int64 arrays lo, hi and boolean masks open_lo, open_hi; an open
    side (a clamped side that cannot miss) runs through that end of the
    support.  Each theta is a run of one in a `window_table`.  This is where
    thetas from outside are checked: a relative one must be positive, a
    clamped one inside the clamp.  A candidate set reads its windows from the
    table cached with its query instead (`candidates._Spec`, by `windows_at`).
    """
    thetas = [exact(t, name="theta") for t in thetas]
    _check_n(n)
    runs = [(t.numerator, 0, t.denominator) for t in thetas]
    table = window_table(criterion, estimator, runs, ())
    for theta in thetas:
        if isinstance(criterion, Relative) and theta <= 0:
            raise DomainError(f"relative coverage needs theta > 0, got {theta}")
        if table.clamped and not estimator.lower <= theta <= estimator.upper:
            raise DomainError(f"theta={theta} outside the range-preserving "
                              f"interval [{estimator.lower}, {estimator.upper}]")
    return windows_at(table, n, np.arange(len(thetas)), np.zeros(len(thetas), np.int64))


def acceptance_window(
    n: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    theta: Fraction,
) -> tuple[Optional[int], Optional[int]]:
    """Integer window of Y_n values whose estimate meets the margin at theta.

    Returns (lo, hi).  None on a side means the window runs through that end
    of the support: a clamped side that cannot miss.  (None, None) means
    every outcome is accepted.  The window is purely arithmetic, so it needs
    no distribution family.
    """
    (lo,), (hi,), (open_lo,), (open_hi,) = acceptance_windows(n, criterion, estimator, [theta])
    return (None if open_lo else int(lo), None if open_hi else int(hi))


# ---------------------------------------------------------------------------
# coverage

def coverage(
    family: DistributionFamily | str,
    n: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    theta: Fraction,
) -> float:
    """Pr{ the estimate lands within the criterion's margin of theta }.

    Uses the closed-form integer windows; the miss inequalities are strict on
    the coverage side, so lattice hits count as misses.
    """
    fam = resolve_family(family)
    theta = fam.require_theta(theta)
    (lo,), (hi,), (open_lo,), (open_hi,) = acceptance_windows(n, criterion, estimator, [theta])
    if open_lo:
        lo, _ = fam.support_bound(n)
    return prob_range(fam, n, int(lo), None if open_hi else int(hi), theta)
