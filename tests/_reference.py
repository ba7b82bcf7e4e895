"""Independent reference computations used only by the tests.

Everything here recomputes probabilities from first principles: binomial
masses as exact rationals via comb, Poisson masses through high-precision
Decimal arithmetic, and coverage by directly classifying every outcome.
Nothing in this module touches the package's log-gamma numerics, window
formulas, or candidate machinery, so agreement is evidence, not tautology.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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


def poisson_cdf_dec(lam: Fraction, k: int, prec: int = 50) -> Decimal:
    """Pr{Y <= k} for Y ~ Poisson(lam) in Decimal: `poisson_pmf_dec` at the
    first term, then each next term from the ratio of neighbouring masses,
    summed away from the mode until a term is below 10**-prec: F(k) below
    the mean, 1 - Pr{Y > k} from it on."""
    with localcontext() as ctx:
        ctx.prec = prec
        lam_d = Decimal(lam.numerator) / Decimal(lam.denominator)
        tiny = Decimal(10) ** -prec
        upper = k >= lam
        j = k + 1 if upper else k
        term = total = poisson_pmf_dec(lam, j, prec)
        while term > tiny and (upper or j > 0):
            if upper:
                j += 1
                term = term * lam_d / j
            else:
                term = term * j / lam_d
                j -= 1
            total += term
        return 1 - total if upper else total


def cdf_draws(rng, family: str, low: float, top: float, count: int):
    """`count` draws (n, theta, k) of a built-in family's CDF arguments in
    the band its error is tabulated by: low < n <= top for the Bernoulli,
    low < n * theta <= top (the mean, as the float product) for the Poisson.
    They cover theta anywhere, near 0 and 1 and at grid rows, and k anywhere,
    at window ends, in both far tails (F far below 1e-15 or within it of 1)
    and at the ends of the range `cdf_batch` is asked for."""
    draws = []
    while len(draws) < count:
        if family == "bernoulli":
            n = rng.randint(int(low) + 1, int(top))
            theta = (rng.random(), 10.0 ** -rng.uniform(1, 16), 1.0 - 10.0 ** -rng.uniform(1, 16),
                     float(rng.randint(0, 1)), rng.randint(0, 40) / 40)[rng.randrange(5)]
            mean, sd, last = n * theta, math.sqrt(n * theta * (1.0 - theta)), n - 1
            margin = rng.uniform(0.0, 1.0)
        else:
            n = rng.randint(1, 256)
            mean = (low + (top - low) * rng.random(), top,
                    max(low, 1e-12) * (top / max(low, 1e-12)) ** rng.random())[rng.randrange(3)]
            theta = mean / n
            while n * theta > top:
                theta = math.nextafter(theta, 0.0)
            mean = n * theta
            if not low < mean <= top:
                continue
            sd, last = math.sqrt(mean), math.ceil(mean + 40.0 * math.sqrt(mean)) + 40
            margin = theta * rng.uniform(0.0, 0.9) if rng.random() < 0.5 else rng.uniform(0.0, 2.0)
        k = (rng.randint(0, last),
             math.floor(n * (theta - margin)),  # lo - 1 of a window
             math.ceil(n * (theta + margin)) - 1,  # hi of a window
             round(mean + rng.choice((-1, 1)) * rng.uniform(5.0, 40.0) * sd),
             (0, last)[rng.randrange(2)])[rng.randrange(5)]
        draws.append((n, theta, min(max(k, 0), last)))
    return draws


def cdf_error_of(family: str, n: int, theta: float, k: int, got: float) -> float:
    """|got - Pr{Y_n <= k | theta}|, with theta the exact value of its float:
    `binom_range` in Fractions for the Bernoulli, `poisson_cdf_dec` at the
    exact mean n * theta for the Poisson."""
    if family == "bernoulli":
        return float(abs(Fraction(got) - binom_range(n, 0, k, Fraction(theta))))
    return float(abs(Decimal(got) - poisson_cdf_dec(n * Fraction(theta), k)))


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


def reference_window(n: int, criterion, estimator, theta: Fraction):
    """(lo, hi, open_lo, open_hi) of the acceptance window at theta, from the
    definitions in Fractions: lo is the least k with k/n > theta - margin and
    hi the greatest k with k/n < theta + margin, each found by bisection on
    k; a clamped side is open when no clamped estimate can miss on it, that
    is when theta - margin < lower (or theta + margin > upper)."""
    m = margin_at(criterion, theta)
    span = n * (math.ceil(abs(theta) + m) + 1)
    ks = range(-span, span + 1)
    lo = ks[bisect_left(ks, True, key=lambda k: Fraction(k, n) > theta - m)]
    hi = ks[bisect_left(ks, True, key=lambda k: Fraction(k, n) >= theta + m) - 1]
    if not isinstance(estimator, RangePreserving):
        return lo, hi, False, False
    return lo, hi, theta - m < estimator.lower, theta + m > estimator.upper


# an open side's end, past every support: hi = PAST_TOP above, lo = -PAST_TOP below
PAST_TOP = 2**63 - 1


def reference_ends(n: int, criterion, estimator, theta: Fraction):
    """`reference_window` as (lo, hi), an open side as its end past every
    support, the form the windows of the package take."""
    lo, hi, open_lo, open_hi = reference_window(n, criterion, estimator, theta)
    return (-PAST_TOP if open_lo else lo, PAST_TOP if open_hi else hi)


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


def _lattice_points(spacing: Fraction, offset: Fraction, lo: Fraction, hi: Fraction):
    """offset + k * spacing for every integer k with the point strictly inside (lo, hi)."""
    k = math.floor((lo - offset) / spacing) - 1
    points = []
    while offset + k * spacing < hi:
        theta = offset + k * spacing
        if lo < theta:
            points.append(theta)
        k += 1
    return points


def reference_candidates(kind: str, *args):
    """Candidate points (theta, sorted tags) and cardinality bound of a builder call.

    `kind` is one of abs, rel, mixed, rp_abs, rp_rel, rp_mixed with the
    builders' arguments (n, eps, a, b) or (n, eps_abs, eps_rel, a, b).  Each
    lattice is walked k by k in Fractions from its definition:
      plus-lattice   theta = k/n + eps
      minus-lattice  theta = k/n - eps
      rel-upper      theta = k/(n*(1+eps))
      rel-lower      theta = k/(n*(1-eps))
    Endpoints, clamp breakpoints and lattices live on the windows each
    criterion/estimator pair prescribes; tags of coinciding points merge.
    """
    tags: dict[Fraction, set[str]] = {}

    def add(theta, tag):
        tags.setdefault(theta, set()).add(tag)

    def add_within(theta, lo, hi):
        if lo <= theta <= hi:
            add(theta, "breakpoint")

    def lattice(spacing, offset, lo, hi, tag):
        for theta in _lattice_points(spacing, offset, lo, hi):
            add(theta, tag)

    def abs_lattices(n, eps, lo_minus, hi_minus, lo_plus, hi_plus):
        lattice(Fraction(1, n), eps, lo_plus, hi_plus, "plus-lattice")
        lattice(Fraction(1, n), -eps, lo_minus, hi_minus, "minus-lattice")

    def rel_lattices(n, eps, lo_upper, hi_upper, lo_lower, hi_lower):
        lattice(1 / (n * (1 + eps)), Fraction(0), lo_upper, hi_upper, "rel-upper")
        lattice(1 / (n * (1 - eps)), Fraction(0), lo_lower, hi_lower, "rel-lower")

    n, a, b = args[0], args[-2], args[-1]
    add(a, "endpoint")
    add(b, "endpoint")
    zero = Fraction(0)
    if kind == "abs":
        eps = args[1]
        abs_lattices(n, eps, a, b, a, b)
        bound = 2 * n * (b - a) + 4
    elif kind == "rel":
        eps = args[1]
        rel_lattices(n, eps, a, b, a, b)
        bound = 2 * n * (b - a) + 4
    elif kind == "rp_abs":
        eps = args[1]
        add_within(a + eps, a, b)
        add_within(b - eps, a, b)
        abs_lattices(n, eps, a, b - eps, a + eps, b)
        bound = max(2 * n * (b - a - eps) + 6, Fraction(6))
    elif kind == "rp_rel":
        eps = args[1]
        a_low, b_up = a / (1 - eps), b / (1 + eps)
        add_within(a_low, a, b)
        add_within(b_up, a, b)
        rel_lattices(n, eps, a, b_up, a_low, b)
        bound = (n * (1 + eps) * max(b_up - a, zero)
                 + n * (1 - eps) * max(b - a_low, zero) + 6)
    elif kind == "mixed":
        ea, er = args[1], args[2]
        c = ea / er
        add(c, "breakpoint")
        abs_lattices(n, ea, a, c, a, c)
        rel_lattices(n, er, c, b, c, b)
        bound = 2 * n * (b - a) + 7
    elif kind == "rp_mixed":
        ea, er = args[1], args[2]
        c = ea / er
        a_low, b_up = a / (1 - er), b / (1 + er)
        add(c, "breakpoint")
        add_within(a + ea, a, c)
        add_within(b - ea, a, c)
        abs_lattices(n, ea, a, min(b - ea, c), a + ea, c)
        add_within(a_low, c, b)
        add_within(b_up, c, b)
        rel_lattices(n, er, c, b_up, max(a_low, c), b)
        bound = (n * max(min(b - ea, c) - a, zero) + n * max(c - a - ea, zero)
                 + n * (1 + er) * max(b_up - c, zero)
                 + n * (1 - er) * max(b - max(a_low, c), zero) + 11)
    else:
        raise ValueError(f"unknown builder kind {kind!r}")
    return [(theta, tuple(sorted(tags[theta]))) for theta in sorted(tags)], bound
