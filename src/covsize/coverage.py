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
from typing import Optional, Sequence, Union

import numpy as np

from ._exact import exact
from .errors import DomainError
from .families import DistributionFamily, _check_n, prob_range, resolve_family


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

    @property
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

def acceptance_windows(
    n: int,
    criterion: ErrorCriterion,
    estimator: EstimatorKind,
    thetas: Sequence[Fraction],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Acceptance windows of many exact thetas at one n, in integer arithmetic.

    Returns int64 arrays lo, hi and boolean masks open_lo, open_hi; an open
    side (a clamped side that cannot miss) runs through that end of the
    support.  For theta = p/q and margin e/d (times theta if relative) the
    edges are x/(q*d) with x = p*d -+ e*s, s = q (absolute) or p (relative).
    """
    _check_n(n)
    # margins as (numerator, denominator); the mixed margin is the absolute
    # one up to the crossover cn/cd and the relative one beyond it
    cn, cd = 0, 1
    match criterion:
        case Absolute(eps=eps):
            abs_m, rel_m = (eps.numerator, eps.denominator), None
        case Relative(eps=eps):
            abs_m, rel_m = None, (eps.numerator, eps.denominator)
        case Mixed(eps_abs=ea, eps_rel=er):
            abs_m, rel_m = (ea.numerator, ea.denominator), (er.numerator, er.denominator)
            cn, cd = criterion.crossover.numerator, criterion.crossover.denominator
        case _:
            raise DomainError(f"unknown criterion {criterion!r}")
    match estimator:
        case Unbiased():
            clamp = None
        case RangePreserving(lower=lower, upper=upper):
            clamp = (lower.numerator, lower.denominator, upper.numerator, upper.denominator)
        case _:
            raise DomainError(f"unknown estimator {estimator!r}")
    rows = []
    for theta in thetas:
        p, q = theta.numerator, theta.denominator
        relative = abs_m is None or (rel_m is not None and p * cd > cn * q)
        if relative:
            if p <= 0:
                raise DomainError(f"relative coverage needs theta > 0, got {theta}")
            (e, d), s = rel_m, p
        else:
            (e, d), s = abs_m, q
        x_lo, x_hi, den = p * d - e * s, p * d + e * s, q * d
        open_lo = open_hi = False
        if clamp is not None:
            an, ad, bn, bd = clamp
            if not (an * q <= p * ad and p * bd <= bn * q):
                raise DomainError(
                    f"theta={theta} outside the range-preserving interval "
                    f"[{estimator.lower}, {estimator.upper}]"
                )
            # the clamped estimate misses low only when theta - margin >= a
            # (so the clamp at a is itself a miss), and misses high only when
            # theta + margin <= b; an inactive side cannot miss
            open_lo = x_lo * ad < an * den
            open_hi = x_hi * bd > bn * den
        rows.append((n * x_lo // den + 1, -(-n * x_hi // den) - 1, open_lo, open_hi))
    lo, hi, open_lo, open_hi = tuple(zip(*rows)) or ((), (), (), ())
    return (np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64),
            np.array(open_lo, dtype=bool), np.array(open_hi, dtype=bool))


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
    theta = exact(theta, name="theta")
    lo, hi, open_lo, open_hi = acceptance_windows(n, criterion, estimator, (theta,))
    return (None if open_lo[0] else int(lo[0]), None if open_hi[0] else int(hi[0]))


def bounds_abs(n: int, eps: Fraction, theta: Fraction) -> tuple[int, int]:
    """Window [g, h] of Y_n values with |Y_n/n - theta| < eps (exact)."""
    return acceptance_window(n, Absolute(eps), UNBIASED, theta)


def bounds_rel(n: int, eps: Fraction, theta: Fraction) -> tuple[int, int]:
    """Window [g, h] of Y_n values with |Y_n/n - theta| < eps * theta (exact)."""
    return acceptance_window(n, Relative(eps), UNBIASED, theta)


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
    lo, hi = acceptance_window(n, criterion, estimator, theta)
    if lo is None and hi is None:
        return 1.0
    if lo is None:
        lo, _ = fam.support_bound(n)
    return prob_range(fam, n, lo, hi, theta)
