"""Integer-valued distribution families for sums of i.i.d. observations.

A family describes the law of Y_n = X_1 + ... + X_n where each X_i has mean
theta.  The two built-in families are Bernoulli (Y_n is binomial(n, theta))
and Poisson (Y_n is Poisson(n * theta)).  Custom families can be registered
through the same interface as long as Y_n stays integer valued.

A family gives its log-space pmf and, optionally, a batched CDF.  Every
range probability comes from `prob_ranges`, which serves both kinds: with a
`cdf_batch` (the built-in families use the library CDFs `bdtr` / `pdtr`) a
row is a difference of two CDF values, evaluated for many thetas in one
call; without one it is a compensated sum of the pmf term by term, at most
1.0.  The minimization theory elsewhere in the package relies on
theta -> Pr{k <= Y_n <= l | theta} having at most one interior peak on the
parameter interval.  That holds for the built-in families; `peak_count` is
provided as an empirical diagnostic for custom ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
from scipy import special as _sps

from ._exact import exact
from .errors import DomainError


@dataclass(frozen=True)
class ParamSpace:
    """Interval of admissible mean parameters theta."""

    lower: Fraction
    upper: Optional[Fraction]  # None when unbounded above
    include_lower: bool
    include_upper: bool

    def admits(self, theta: Fraction) -> bool:
        if theta < self.lower or (theta == self.lower and not self.include_lower):
            return False
        if self.upper is not None:
            if theta > self.upper or (theta == self.upper and not self.include_upper):
                return False
        return True

    def describe(self) -> str:
        lo = "[" if self.include_lower else "("
        hi = "]" if self.include_upper else ")"
        upper = "inf" if self.upper is None else str(self.upper)
        return f"{lo}{self.lower}, {upper}{hi}"


@dataclass(frozen=True)
class DistributionFamily:
    """A registered family of integer-valued sums.

    `support_bound(n)` returns (k_min, k_max) for Y_n, with k_max None when
    the support is unbounded above.  `log_pmf(n, theta, k)` takes theta as a
    float and must be finite or -inf.  Families with unbounded support must
    provide `tail_cutoff(n, theta)`, also with a float theta: an integer
    beyond which the upper tail mass is below 1e-15.

    `cdf_batch(n, thetas, ks)`, Pr{Y_n <= k} elementwise, is optional.
    `prob_ranges` serves both kinds of family: with it, one vectorized call;
    without it, a log-pmf sum per theta.  It is never asked for k < k_min
    (read as 0) nor for k >= k_max of a bounded support (read as 1), so it
    need not handle them: the built-in ones give NaN below the support and
    above its top.  There is no batched log-pmf:
    `log_pmf_batch=` is not accepted.  A search evaluates many n at once, so
    `support_bound` and `cdf_batch` must also take an int array n with one n
    per theta, as the built-in families' do.
    """

    name: str
    param_space: ParamSpace
    support_bound: Callable[[int], tuple[int, Optional[int]]]
    log_pmf: Callable[[int, float, int], float]
    cdf_batch: Optional[Callable[[int, np.ndarray, np.ndarray], np.ndarray]] = None
    tail_cutoff: Optional[Callable[[int, float], int]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise DomainError("family name must be nonempty")

    def require_theta(self, theta: Fraction) -> Fraction:
        theta = exact(theta, name="theta")
        if not self.param_space.admits(theta):
            raise DomainError(
                f"theta={theta} outside parameter space {self.param_space.describe()} "
                f"of family '{self.name}'"
            )
        return theta

    def require_interval(self, a: Fraction, b: Fraction) -> None:
        """Raise DomainError unless both exact endpoints lie in the parameter space."""
        for endpoint, label in ((a, "a"), (b, "b")):
            if not self.param_space.admits(endpoint):
                raise DomainError(
                    f"interval endpoint {label}={endpoint} outside parameter space "
                    f"{self.param_space.describe()} of family '{self.name}'"
                )


def _check_n(n: int, name: str = "n") -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"{name} must be a positive integer, got {n!r}")
    return n


def _check_int(value: int, name: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")


# ---------------------------------------------------------------------------
# Bernoulli: Y_n ~ binomial(n, theta)

def _bernoulli_log_pmf(n: int, theta: float, k: int) -> float:
    if theta <= 0.0:
        return 0.0 if k == 0 else -math.inf
    if theta >= 1.0:
        return 0.0 if k == n else -math.inf
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(theta)
        + (n - k) * math.log1p(-theta)
    )


def _bernoulli_cdf_batch(n: int, theta: np.ndarray, k: np.ndarray) -> np.ndarray:
    return _sps.bdtr(k, n, theta)


BERNOULLI = DistributionFamily(
    name="bernoulli",
    param_space=ParamSpace(Fraction(0), Fraction(1), True, True),
    support_bound=lambda n: (0, n),
    log_pmf=_bernoulli_log_pmf,
    cdf_batch=_bernoulli_cdf_batch,
)


# ---------------------------------------------------------------------------
# Poisson: Y_n ~ Poisson(n * theta)

def _poisson_log_pmf(n: int, theta: float, k: int) -> float:
    lam = n * theta
    if lam <= 0.0:
        return 0.0 if k == 0 else -math.inf
    return k * math.log(lam) - lam - math.lgamma(k + 1)


def _poisson_cdf_batch(n: int, theta: np.ndarray, k: np.ndarray) -> np.ndarray:
    return _sps.pdtr(k, n * theta)


def _poisson_tail_cutoff(n: int, theta: float) -> int:
    # Chernoff: mass beyond lam + 40*sqrt(lam) + 40 is far below 1e-15
    lam = float(n * theta)
    return int(math.ceil(lam + 40.0 * math.sqrt(lam))) + 40


POISSON = DistributionFamily(
    name="poisson",
    param_space=ParamSpace(Fraction(0), None, False, False),
    support_bound=lambda n: (0, None),
    log_pmf=_poisson_log_pmf,
    cdf_batch=_poisson_cdf_batch,
    tail_cutoff=_poisson_tail_cutoff,
)


# ---------------------------------------------------------------------------
# registry

_REGISTRY: dict[str, DistributionFamily] = {
    BERNOULLI.name: BERNOULLI,
    POISSON.name: POISSON,
}


def get_family(name: str) -> DistributionFamily:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise DomainError(f"unknown family '{name}' (known: {known})") from None


def register_family(family: DistributionFamily) -> DistributionFamily:
    """Register a custom family under its name, replacing any previous entry."""
    kmin, kmax = family.support_bound(1)
    if kmax is None and family.tail_cutoff is None:
        raise DomainError(
            f"family '{family.name}' has unbounded support and must provide tail_cutoff"
        )
    _REGISTRY[family.name] = family
    return family


def available_families() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def resolve_family(family: DistributionFamily | str) -> DistributionFamily:
    if isinstance(family, str):
        return get_family(family)
    return family


# ---------------------------------------------------------------------------
# probability operations

def pmf(family: DistributionFamily | str, n: int, theta: Fraction, k: int) -> float:
    """Pr{Y_n = k | theta}; 0.0 outside the support."""
    fam = resolve_family(family)
    n = _check_n(n)
    theta = fam.require_theta(theta)
    _check_int(k, "k")
    kmin, kmax = fam.support_bound(n)
    if k < kmin or (kmax is not None and k > kmax):
        return 0.0
    return math.exp(fam.log_pmf(n, float(theta), k))


# the upper k of an open window: beyond the top of any support
_PAST_TOP = np.iinfo(np.int64).max


def prob_ranges(
    fam: DistributionFamily,
    n: int | np.ndarray,
    thetas: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    open_top: np.ndarray,
) -> np.ndarray:
    """Pr{lo <= Y_n <= hi | theta} per float theta, n one int or one per row.

    Rows flagged in `open_top` have no upper limit; windows are clipped to
    the support, an empty one gives 0.0.  With `cdf_batch` all rows come
    from one call, asked only for the CDF values inside the support that a
    row reads.  Otherwise each row is a compensated sum of the pmf at its n,
    an open top of unbounded support cut at `tail_cutoff`: exactly 1.0 over
    the whole support and never above it.  Callers validate n and theta.
    """
    kmin, kmax = fam.support_bound(n)
    if fam.cdf_batch is None:
        lo = np.maximum(lo, kmin)
        if kmax is not None:
            hi = np.minimum(hi, kmax)
        out = []
        # each row with its own n
        rows = (np.broadcast_to(x, thetas.shape).tolist() for x in (n, kmin, kmax))
        for n, kmin, kmax, theta, k, l, top in zip(*rows, thetas.tolist(), lo.tolist(),
                                                   hi.tolist(), open_top.tolist()):
            if top:
                l = kmax if kmax is not None else max(fam.tail_cutoff(n, theta), k)
            terms = (math.exp(fam.log_pmf(n, theta, j)) for j in range(k, l + 1))
            out.append(1.0 if k == kmin and (top or l == kmax) else min(math.fsum(terms), 1.0))
        return np.array(out, dtype=np.float64)
    # F(k) is 0 below the support and 1 from its top on, and cdf_batch is
    # asked for no other k: an open top reads F past any top, an empty
    # window F(lo - 1) twice
    below = lo - 1
    ks = np.array((below, np.where(open_top, _PAST_TOP, np.maximum(hi, below))))
    known = ks >= kmin
    cdf = known.astype(np.float64)
    ask = known & (ks < (_PAST_TOP if kmax is None else kmax))
    both = np.array((n, n))[ask] if np.ndim(n) else n
    cdf[ask] = fam.cdf_batch(both, np.array((thetas, thetas))[ask], ks[ask])
    # a difference of two CDFs in [0, 1] is at most 1; only a negative can need clipping
    return np.maximum(cdf[1] - cdf[0], 0.0)


def prob_range(
    family: DistributionFamily | str,
    n: int,
    k: int,
    l: Optional[int],
    theta: Fraction,
) -> float:
    """Pr{k <= Y_n <= l | theta}; l=None means no upper limit.

    Returns 0.0 when the window is empty.  The window is clipped to the
    support.  This is one row of `prob_ranges`, bit-equal to it for both
    kinds of family; with `cdf_batch` it makes the same float operations on
    the same CDF values directly, which costs less than a batch of one.
    """
    fam = resolve_family(family)
    n = _check_n(n)
    theta = fam.require_theta(theta)
    _check_int(k, "k")
    if l is not None:
        _check_int(l, "l")
    tf = float(theta)
    if fam.cdf_batch is None:
        top = l is None
        row = np.array([k]), np.array([k if top else l]), np.array([top])
        return float(prob_ranges(fam, n, np.array([tf]), *row)[0])
    kmin, kmax = fam.support_bound(n)
    if l is not None and (l if kmax is None else min(l, kmax)) < max(k, kmin):
        return 0.0
    # F at k - 1 and l, asked for as in `prob_ranges`
    ks, top = (k - 1, _PAST_TOP if l is None else l), _PAST_TOP if kmax is None else kmax
    ask = [x for x in ks if kmin <= x < top]
    cdf = iter(fam.cdf_batch(n, np.full(len(ask), tf), np.array(ask)).tolist() if ask else ())
    lower, upper = (next(cdf) if kmin <= x < top else float(x >= kmin) for x in ks)
    return max(upper - lower, 0.0)


# ---------------------------------------------------------------------------
# shape diagnostic

def peak_count(values: "list[float] | np.ndarray", tol: float = 1e-10) -> int:
    """Number of strict interior peaks in a sequence, ignoring wiggles below tol.

    Used to spot-check the single-peak assumption on theta grids.
    """
    peaks = 0
    direction = 0  # +1 rising, -1 falling
    ref = None
    for v in values:
        v = float(v)
        if ref is None:
            ref = v
            continue
        if v > ref + tol:
            direction = 1
            ref = v
        elif v < ref - tol:
            if direction == 1:
                peaks += 1
            direction = -1
            ref = v
        else:
            ref = max(ref, v) if direction >= 0 else min(ref, v)
    return peaks
