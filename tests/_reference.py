"""Independent reference computations used only by the tests.

Everything here recomputes probabilities from first principles: binomial
masses as exact rationals via comb, Poisson masses through high-precision
Decimal arithmetic, and coverage by directly classifying every outcome.
Nothing in this module touches the package's log-gamma numerics, window
formulas, or candidate machinery, so agreement is evidence, not tautology.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

from covsize import Absolute, Mixed, RangePreserving, Relative


def binom_pmf(n: int, k: int, theta: Fraction) -> Fraction:
    if k < 0 or k > n:
        return Fraction(0)
    return math.comb(n, k) * theta**k * (1 - theta) ** (n - k)


def binom_range(n: int, lo: int, hi: int, theta: Fraction) -> Fraction:
    lo = max(lo, 0)
    hi = min(hi, n)
    total = Fraction(0)
    for k in range(lo, hi + 1):
        total += binom_pmf(n, k, theta)
    return total


def poisson_pmf_dec(lam: Fraction, k: int, prec: int = 50) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = prec
        lam_d = Decimal(lam.numerator) / Decimal(lam.denominator)
        return (-lam_d).exp() * lam_d**k / Decimal(math.factorial(k))


def margin_at(criterion, theta: Fraction) -> Fraction:
    if isinstance(criterion, Absolute):
        return criterion.eps
    if isinstance(criterion, Relative):
        return criterion.eps * theta
    if isinstance(criterion, Mixed):
        return max(criterion.eps_abs, criterion.eps_rel * theta)
    raise TypeError(f"unknown criterion {criterion!r}")


def estimate_of(k: int, n: int, estimator) -> Fraction:
    value = Fraction(k, n)
    if isinstance(estimator, RangePreserving):
        if value < estimator.lower:
            return estimator.lower
        if value > estimator.upper:
            return estimator.upper
    return value


def bernoulli_coverage(n: int, criterion, estimator, theta: Fraction) -> Fraction:
    """Exact rational coverage for the Bernoulli family by full enumeration.

    With theta = p/q every mass is comb(n, k) p^k (q-p)^(n-k) / q^n, so the
    numerators are summed as integers and divided once, which keeps n in the
    thousands fast.
    """
    m = margin_at(criterion, theta)
    p, q = theta.numerator, theta.denominator
    total = 0
    for k in range(n + 1):
        if abs(estimate_of(k, n, estimator) - theta) < m:
            total += math.comb(n, k) * p**k * (q - p) ** (n - k)
    return Fraction(total, q**n)
