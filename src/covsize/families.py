"""Integer-valued distribution families for sums of i.i.d. observations.

A family describes the law of Y_n = X_1 + ... + X_n where each X_i has mean
theta.  The two built-in families are Bernoulli (Y_n is binomial(n, theta))
and Poisson (Y_n is Poisson(n * theta)).  Custom families can be registered
through the same interface as long as Y_n stays integer valued.

Range probabilities of the built-in families are differences of the library
CDFs `bdtr` / `pdtr`, evaluated for many thetas at once; a family without a
`cdf_batch` sums its log-space pmf with compensated summation.  The minimization
theory elsewhere in the package relies on theta -> Pr{k <= Y_n <= l | theta}
having at most one interior peak on the parameter interval.  That holds for
the built-in families; `peak_count` is provided as an empirical diagnostic
for custom ones.
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

# windows at least this wide are summed through the vectorized log-pmf
_BATCH_MIN_WIDTH = 65


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
    provide `tail_cutoff(n, theta)`, an integer beyond which the upper tail
    mass is below 1e-15.

    `cdf_batch(n, thetas, ks)`, Pr{Y_n <= k} elementwise, is optional; a
    family that has it gets every range probability from `prob_ranges`, one
    vectorized call per n, instead of a log-pmf sum per theta.
    """

    name: str
    param_space: ParamSpace
    support_bound: Callable[[int], tuple[int, Optional[int]]]
    log_pmf: Callable[[int, float, int], float]
    log_pmf_batch: Optional[Callable[[int, float, np.ndarray], np.ndarray]] = None
    cdf_batch: Optional[Callable[[int, np.ndarray, np.ndarray], np.ndarray]] = None
    tail_cutoff: Optional[Callable[[int, Fraction], int]] = None

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


def _check_n(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    return n


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


def _bernoulli_log_pmf_batch(n: int, theta: float, ks: np.ndarray) -> np.ndarray:
    if theta <= 0.0:
        return np.where(ks == 0, 0.0, -np.inf)
    if theta >= 1.0:
        return np.where(ks == n, 0.0, -np.inf)
    kf = ks.astype(np.float64)
    return (
        _sps.gammaln(n + 1)
        - _sps.gammaln(kf + 1)
        - _sps.gammaln(n - kf + 1)
        + kf * math.log(theta)
        + (n - kf) * math.log1p(-theta)
    )


def _bernoulli_cdf_batch(n: int, theta: np.ndarray, k: np.ndarray) -> np.ndarray:
    kk = np.minimum(k, n).astype(np.float64)
    out = _sps.bdtr(np.maximum(kk, 0.0), n, theta)
    return np.where(kk < 0, 0.0, out)


BERNOULLI = DistributionFamily(
    name="bernoulli",
    param_space=ParamSpace(Fraction(0), Fraction(1), True, True),
    support_bound=lambda n: (0, n),
    log_pmf=_bernoulli_log_pmf,
    log_pmf_batch=_bernoulli_log_pmf_batch,
    cdf_batch=_bernoulli_cdf_batch,
)


# ---------------------------------------------------------------------------
# Poisson: Y_n ~ Poisson(n * theta)

def _poisson_log_pmf(n: int, theta: float, k: int) -> float:
    lam = n * theta
    if lam <= 0.0:
        return 0.0 if k == 0 else -math.inf
    return k * math.log(lam) - lam - math.lgamma(k + 1)


def _poisson_log_pmf_batch(n: int, theta: float, ks: np.ndarray) -> np.ndarray:
    lam = n * theta
    kf = ks.astype(np.float64)
    return kf * math.log(lam) - lam - _sps.gammaln(kf + 1)


def _poisson_cdf_batch(n: int, theta: np.ndarray, k: np.ndarray) -> np.ndarray:
    lam = n * theta
    out = _sps.pdtr(np.maximum(k, 0).astype(np.float64), lam)
    return np.where(k < 0, 0.0, out)


def _poisson_tail_cutoff(n: int, theta: Fraction) -> int:
    # Chernoff: mass beyond lam + 40*sqrt(lam) + 40 is far below 1e-15
    lam = float(n * theta)
    return int(math.ceil(lam + 40.0 * math.sqrt(lam))) + 40


POISSON = DistributionFamily(
    name="poisson",
    param_space=ParamSpace(Fraction(0), None, False, False),
    support_bound=lambda n: (0, None),
    log_pmf=_poisson_log_pmf,
    log_pmf_batch=_poisson_log_pmf_batch,
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
    if not isinstance(k, int) or isinstance(k, bool):
        raise DomainError(f"k must be an integer, got {k!r}")
    kmin, kmax = fam.support_bound(n)
    if k < kmin or (kmax is not None and k > kmax):
        return 0.0
    return math.exp(fam.log_pmf(n, float(theta), k))


def window_sum(fam: DistributionFamily, n: int, theta: Fraction, lo: int, hi: int) -> float:
    """Sum of pmf over the inclusive integer window [lo, hi], compensated."""
    if lo > hi:
        return 0.0
    tf = float(theta)
    width = hi - lo + 1
    if width >= _BATCH_MIN_WIDTH and fam.log_pmf_batch is not None:
        logs = fam.log_pmf_batch(n, tf, np.arange(lo, hi + 1, dtype=np.int64))
        return float(math.fsum(np.exp(logs)))
    return math.fsum(math.exp(fam.log_pmf(n, tf, k)) for k in range(lo, hi + 1))


def prob_ranges(
    fam: DistributionFamily,
    n: int,
    thetas: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    open_top: np.ndarray,
) -> np.ndarray:
    """Pr{lo <= Y_n <= hi | theta} per float theta, from one `cdf_batch` call.

    Rows flagged in `open_top` have no upper limit; windows are clipped to
    the support, an empty one gives 0.0.  Callers validate n and theta.
    """
    kmin, kmax = fam.support_bound(n)
    lo = np.maximum(lo, kmin)
    if kmax is not None:
        hi = np.minimum(hi, kmax)
    m = len(thetas)
    cdf = fam.cdf_batch(n, np.concatenate((thetas, thetas)), np.concatenate((lo - 1, hi)))
    # a difference of two CDFs in [0, 1] is at most 1; only a negative can need clipping
    out = np.maximum(np.where(open_top, 1.0, cdf[m:]) - cdf[:m], 0.0)
    out[~open_top & (hi < lo)] = 0.0
    return out


def scalar_prob_range(
    fam: DistributionFamily, n: int, k: int, l: Optional[int], theta: Fraction
) -> float:
    """`prob_range` by log-pmf summation, without argument checks."""
    if l is not None and k > l:
        return 0.0
    kmin, kmax = fam.support_bound(n)
    lo = max(k, kmin)
    if l is not None:
        hi = l if kmax is None else min(l, kmax)
    elif kmax is not None:
        hi = kmax
    else:
        hi = max(fam.tail_cutoff(n, theta), lo)
    return window_sum(fam, n, theta, lo, hi)


def prob_range(
    family: DistributionFamily | str,
    n: int,
    k: int,
    l: Optional[int],
    theta: Fraction,
) -> float:
    """Pr{k <= Y_n <= l | theta}; l=None means no upper limit.

    Returns 0.0 when the window is empty.  The window is clipped to the
    support.  With `cdf_batch` this is one row of `prob_ranges`, the same
    float operations on the same CDF values, so the two are bit-equal;
    otherwise the pmf is summed, the upper tail of unbounded support
    truncated where the residual mass is below 1e-15.
    """
    fam = resolve_family(family)
    n = _check_n(n)
    theta = fam.require_theta(theta)
    if fam.cdf_batch is None:
        return scalar_prob_range(fam, n, k, l, theta)
    kmin, kmax = fam.support_bound(n)
    lo = max(k, kmin)
    hi = lo if l is None else l if kmax is None else min(l, kmax)
    if l is not None and hi < lo:
        return 0.0
    tf = float(theta)
    lower, upper = fam.cdf_batch(n, np.array([tf, tf]), np.array([lo - 1, hi])).tolist()
    return max((1.0 if l is None else upper) - lower, 0.0)


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
