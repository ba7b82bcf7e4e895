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
1.0.  `prob_min` gives the least of many rows and the first row that has
it, for both kinds, bit-equal to `prob_ranges`' without evaluating every
row where it can: with `cdf_batch`, the sorted rows of a large full sweep
go through a branch and bound on CDF values, whose bound holds because
F(k; theta) does not increase in theta.  `cdf_error` bounds the float error
of the built-in CDFs, from measurements, and `_prune_margin` turns it into
the one margin by which both that branch and bound and the grid oracle's
drop rows.  The minimization theory elsewhere in the package
relies on theta -> Pr{k <= Y_n <= l | theta} having at most one interior
peak on the parameter interval.  That holds for the built-in families;
`peak_count` is provided as an empirical diagnostic for custom ones.
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
    float and must be finite or -inf: a NaN raises DomainError where it is
    summed.  Families with unbounded support must provide `tail_cutoff(n,
    theta)`, also with a float theta: an integer beyond which the upper tail
    mass is below 1e-15.

    `cdf_batch(n, thetas, ks)`, Pr{Y_n <= k} elementwise, is optional.
    `prob_ranges` serves both kinds of family: with it, one vectorized call;
    without it, a log-pmf sum per theta, whose least value over a candidate
    set `prob_min` finds by branch and bound from n * theta, the mean (more
    work, never another answer, when the mass lies elsewhere).  It is never
    asked for k < k_min (read as 0) nor for k >= k_max of a bounded support
    (read as 1), so it need not handle them: the built-in ones give NaN below
    the support and above its top.  A family promises that Pr{Y_n <= k |
    theta} does not increase in theta for fixed n and k: a theorem for the
    binomial and the Poisson, on which `prob_min` and the grid oracle rely
    to skip rows.
    There is no batched log-pmf: `log_pmf_batch=` is not accepted.  A search
    evaluates many n at once, so `support_bound` and `cdf_batch` must also
    take an int array n with one n per theta, as the built-in families' do.
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


def _int64_ends(*ends: np.ndarray) -> list[np.ndarray]:
    """Integer window ends as int64 arrays; a Python-int end that leaves no
    room in int64 for lo - 1 or that reads as an open side, +-`_PAST_TOP`,
    raises DomainError."""
    for end in (f(x) for x in ends if x.dtype == object and x.size for f in (np.min, np.max)):
        if not -_PAST_TOP < end < _PAST_TOP:
            raise DomainError(f"window end {end} does not fit in int64: n * theta is too large")
    return [np.asarray(x, np.int64) for x in ends]


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


# bounds on |cdf_batch - F| for the built-in CDFs, as (top, error): the
# Bernoulli's for n <= top, the Poisson's for a mean n * theta <= top.  Each
# is 10 times the largest error scripts/measure_cdf_error.py finds in the
# band (seed 20261020, 2000 draws per band), rounded up: the errors have a
# long tail, and bdtr's grow with n (3.3e-15 at n <= 64, 1.1e-13 at n <= 256)
_BDTR_ERROR = ((16, 9e-15), (64, 4e-14), (256, 2e-12))
_PDTR_ERROR = ((16, 8e-15), (64, 8e-15), (256, 7e-15), (1024, 2e-14), (4096, 2e-14))


def cdf_error(fam: DistributionFamily, n: int, theta: float) -> Optional[float]:
    """A bound on |fam.cdf_batch(n, t, k) - Pr{Y_n <= k | t}|, for every k
    it is asked for and every float t <= theta, with t read exactly: from
    the table of measured errors for the built-in `cdf_batch` functions
    themselves, by n for the Bernoulli and by the mean n * theta for the
    Poisson.  None past the measured range and for any other `cdf_batch`,
    a wrapped built-in one too."""
    if fam.cdf_batch is _bernoulli_cdf_batch:
        size, bands = n, _BDTR_ERROR
    elif fam.cdf_batch is _poisson_cdf_batch:
        size, bands = n * theta, _PDTR_ERROR
    else:
        return None
    return next((error for top, error in bands if size <= top), None)


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
    if not isinstance(family, DistributionFamily):
        raise DomainError(f"family must be a name or a DistributionFamily, got {family!r}")
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


# the upper k of an open window, beyond the top of any support; its negative
# is the lower k of a window open below (lo - 1 is then the least int64)
_PAST_TOP = np.iinfo(np.int64).max
_TWO_ONES = np.ones((2, 1), np.int64)  # lo - _TWO_ONES: lo - 1 in both of two rows


def prob_ranges(fam: DistributionFamily, n: int | np.ndarray, thetas: np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> np.ndarray:
    """Pr{lo <= Y_n <= hi | theta} per float theta, n one int or one per row.

    An open side is an end past every support, hi = `_PAST_TOP` above and
    lo = -`_PAST_TOP` below; windows are clipped to the support, an empty
    one gives 0.0.  With `cdf_batch` a row is
    F(hi) - F(lo - 1) from `_cdf_ends`, clipped at 0.  Otherwise each row is
    a compensated sum of the pmf at its n, any top of an unbounded support
    cut at `tail_cutoff`: exactly 1.0 over the whole support and never above
    it.  A NaN CDF value or summed pmf term raises DomainError.  Callers
    validate n and theta.
    """
    if fam.cdf_batch is None:
        rows = list(_log_pmf_rows(fam, n, thetas, lo, hi))
        out = np.array([1.0 if whole else min(math.fsum(
            math.exp(fam.log_pmf(n, theta, j)) for j in range(k, l + 1)), 1.0)
            for n, theta, k, l, whole in rows], dtype=np.float64)
        if np.isnan(out).any():
            n, theta, k, l, _ = rows[np.isnan(out).argmax()]
            raise _nan_error(fam, n, theta, next(
                j for j in range(k, l + 1) if math.isnan(fam.log_pmf(n, theta, j))))
        return out
    c = _cdf_ends(fam, n, thetas, lo, hi)
    # a difference of two CDFs in [0, 1] is at most 1; only a negative can need clipping
    return np.maximum(c[1] - c[0], 0.0)


def _cdf_keys(fam: DistributionFamily, n: int | np.ndarray, lo: np.ndarray,
              hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ks (2, N) at which a row of `prob_ranges` reads F: lo - 1 and hi,
    an open side's past the support; an empty window reads F(lo - 1) twice.
    Also the masks of the ks at or above the support's least k and of those
    `cdf_batch` is asked for: F is 0 below the support, 1 from its top on,
    and asked for nowhere else."""
    kmin, kmax = fam.support_bound(n)
    ks = lo - _TWO_ONES
    np.maximum(ks[1], hi, out=ks[1])
    known = ks >= kmin
    return ks, known, known & (ks < (_PAST_TOP if kmax is None else kmax))


def _cdf_ends(fam: DistributionFamily, n: int | np.ndarray, thetas: np.ndarray, lo: np.ndarray,
              hi: np.ndarray, upper: Optional[np.ndarray] = None) -> np.ndarray:
    """F(lo - 1) and F(hi) per row, (2, N), as `prob_ranges` reads them from
    `cdf_batch`, in one call made only when some value is asked; F(hi) at
    the thetas `upper` when given.  A NaN raises DomainError."""
    ks, known, ask = _cdf_keys(fam, n, lo, hi)
    upper = thetas if upper is None else upper
    cdf = known.astype(np.float64)
    asked = ks[ask]
    if len(asked):
        both = np.array((n, n))[ask] if np.ndim(n) else n
        got = fam.cdf_batch(both, np.array((thetas, upper))[ask], asked)
        cdf[ask] = got
        if np.isnan(got).any():
            i = np.isnan(cdf).any(axis=0).argmax()
            r = np.isnan(cdf[:, i]).argmax()
            raise _nan_error(fam, np.broadcast_to(n, thetas.shape)[i], (thetas, upper)[r][i],
                             ks[r, i])
    return cdf


# the prune margin of a family whose CDF has no stated error (a custom or a
# wrapped `cdf_batch`, or n past the measured table): twice the 5e-10
# cross-check tolerance.  The built-in CDFs take 4 * cdf_error + 2**-52
# (`_prune_margin`), 1.6e-13 for the Bernoulli at n <= 64
_PRUNE_MARGIN = 1e-9


def _prune_margin(fam: DistributionFamily, n: int, theta: float) -> float:
    """How far the bound F(l; theta_e) - F(k - 1; theta_s) of a block of rows
    (a run of the grid oracle, a block of `_bounded_min`) must exceed the
    best value for the block to be dropped, at rows of float
    theta up to `theta`: 4 * cdf_error + 2**-52, rounded up, where the
    family's CDF has a stated error, else `_PRUNE_MARGIN`.  A row of a block
    is at least its bound less 4 * error: F(l) and F(k - 1) at the row are
    each off by at most error, and so are the values that bound them, F not
    increasing in theta.  Rounding the row's difference, the bound's and
    best + margin costs at most 2**-52 more, so a block whose bound is above
    best + margin, as rounded, has every row strictly above best."""
    error = cdf_error(fam, n, theta)
    return _PRUNE_MARGIN if error is None else math.nextafter(4.0 * error + 2.0**-52, 1.0)


def prob_min(fam: DistributionFamily, n: int | np.ndarray, thetas: np.ndarray, lo: np.ndarray,
             hi: np.ndarray) -> tuple[float, int]:
    """`min` of `prob_ranges(...)` and the first row that attains it, bit for
    bit; (inf, -1) for no rows.  With `cdf_batch`, at least _BOUND_ROWS rows
    of one n, ascending in theta, whose window ends do not decrease (a full
    sweep's: one comparison of neighbours per array checks it) take
    `_bounded_min`, a branch and bound on CDF values; any other rows, one
    `prob_ranges` call.  Without `cdf_batch`, a branch and bound on pmf sums:
    a row sums its pmf outward from the mean of Y_n, c = clamp(floor(n theta),
    k, l), always the larger neighbour next.  Once the fsum of its terms so
    far exceeds the least whole row (asked once a naive sum exceeds it by an
    ulp per term of the row), so does its value, the terms being >= 0 and
    rounding monotone, and it is dropped.  A whole row's fsum is correctly
    rounded in any order: `prob_ranges`' value.  Rows are visited in ascending
    (distance from c to the nearer end + 1/2) * pmf(c), about that distance in
    standard deviations, which changes the work, never the answer.
    """
    if fam.cdf_batch is not None:
        if (np.ndim(n) == 0 and len(thetas) >= _BOUND_ROWS and (thetas[1:] >= thetas[:-1]).all()
                and (lo[1:] >= lo[:-1]).all() and (hi[1:] >= hi[:-1]).all()):
            return _bounded_min(fam, n, thetas, lo, hi)
        values = prob_ranges(fam, n, thetas, lo, hi)
        if not len(values):
            return math.inf, -1
        i = int(values.argmin())  # the first of equal values
        return float(values[i]), i
    log_pmf, exp, fsum = fam.log_pmf, math.exp, math.fsum

    def pmf(n: int, theta: float, j: int) -> float:
        p = exp(log_pmf(n, theta, j))
        if p != p:
            raise _nan_error(fam, n, theta, j)
        return p

    best, best_row, queue = math.inf, -1, []
    for i, (n, theta, k, l, whole) in enumerate(_log_pmf_rows(fam, n, thetas, lo, hi)):
        if whole or l < k:  # exactly 1.0 or 0.0; on equal values the first row wins
            best, best_row = min((best, best_row), (float(whole), i))
        else:
            c = min(max(int(n * theta), k), l)
            p = pmf(n, theta, c)
            queue.append(((min(c - k, l - c) + 0.5) * p, i, n, theta, k, l, c, p))
    for _, i, n, theta, k, l, c, p in sorted(queue):
        terms, s, left, right = [p], p, c, c
        # the next term below and above, -1.0 past the window's end
        pl = pmf(n, theta, c - 1) if c > k else -1.0
        pr = pmf(n, theta, c + 1) if c < l else -1.0
        limit = best * (1.0 + (l - k + 1) * 2.0 ** -52)
        while not (s > limit and min(fsum(terms), 1.0) > best):
            if pl < 0.0 and pr < 0.0:  # summed to both ends
                best, best_row = min((best, best_row), (min(fsum(terms), 1.0), i))
                break
            if pl >= pr:
                terms.append(pl)
                s += pl
                left -= 1
                pl = pmf(n, theta, left - 1) if left > k else -1.0
            else:
                terms.append(pr)
                s += pr
                right += 1
                pr = pmf(n, theta, right + 1) if right < l else -1.0
    return best, best_row


# `prob_min` bounds blocks of rows when one n has at least this many; below,
# one `prob_ranges` call is faster.  Measured crossovers: about 500 rows
# (Bernoulli relative 1/5), 700 (Poisson relative 1/4) and 1000 (Poisson
# absolute 1/2); a set whose rows all lie within the bounds' slack of the
# minimum (Bernoulli absolute 1/10 on [0, 1] at n >= 500) never gains and
# costs 1.1 to 1.4 times one call
_BOUND_ROWS = 1024
# a block of at most _LEAF_ROWS interior rows is evaluated whole; the first
# blocks hold 2 * _LEAF_ROWS rows, and a longer live block is cut in _PIECES
_LEAF_ROWS, _PIECES = 16, 4


def _bounded_min(fam: DistributionFamily, n: int, thetas: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> tuple[float, int]:
    """`prob_min` with `cdf_batch` for rows of one n, ascending in theta,
    whose window ends do not decrease, by branch and bound (Moore 1966).

    A row i of a block of rows s..e has lo_i <= lo_e, hi_i >= hi_s and
    theta_s <= theta_i <= theta_e.  F(k; theta) does not decrease in k and
    does not increase in theta, so the row's value is at least
    F(hi_s; theta_e) - F(lo_e - 1; theta_s), each F read as `_cdf_keys`
    reads it.  The rows are cut into blocks of 2 * _LEAF_ROWS rows.  Each
    level evaluates the rows where the blocks meet and bounds the blocks, in
    one `cdf_batch` call; drops a block whose bound exceeds the least value
    so far by more than `_prune_margin`; evaluates every interior row of a
    block left with at most _LEAF_ROWS of them, and cuts the others into
    _PIECES.  A level that drops no row is followed by every row left: the
    bounds cannot tell those rows apart.  A dropped row is strictly above an
    evaluated value, so the least value and its first row are those of
    `prob_ranges` over every row, bit for bit: each row evaluated is
    evaluated as there, the CDF elementwise.  A NaN raises DomainError where
    it is read, as in `prob_ranges`; a dropped row is not read.
    """
    margin = _prune_margin(fam, n, float(thetas[-1]))
    size = len(thetas) - 1
    blocks = size // (2 * _LEAF_ROWS)
    rows = np.arange(blocks + 1) * size // blocks
    best, s, e = (math.inf, -1), rows[:-1], rows[1:]
    while True:
        # the values of the rows and the bounds of the blocks s..e, in one call
        c = _cdf_ends(fam, n, *(np.concatenate(x) for x in (
            (thetas[rows], thetas[s]), (lo[rows], lo[e]), (hi[rows], hi[s]),
            (thetas[rows], thetas[e]))))
        d = c[1] - c[0]
        got = np.maximum(d[:len(rows)], 0.0)
        if len(got) and (low := float(got.min())) <= best[0]:
            best = min(best, (low, int(rows[got == low].min())))
        before = (e - s - 1).sum()
        keep = (e - s > 1) & (d[len(rows):] <= best[0] + margin)
        s, e = s[keep], e[keep]
        if not len(s):
            return best
        leaf = (e - s <= _LEAF_ROWS + 1) | ((e - s - 1).sum() == before)
        counts = e[leaf] - s[leaf] - 1
        rows = np.arange(counts.sum()) + np.repeat(s[leaf] + 1 - np.cumsum(counts) + counts,
                                                   counts)
        s, e = s[~leaf, None], e[~leaf, None]
        cuts = s + (e - s) * np.arange(1, _PIECES) // _PIECES
        rows = np.concatenate((rows, cuts.ravel()))
        s, e = np.hstack((s, cuts)).ravel(), np.hstack((cuts, e)).ravel()


def _log_pmf_rows(fam: DistributionFamily, n, thetas, lo, hi):
    """(n, theta, k, l, whole) per row, as Python scalars, for a family
    without `cdf_batch`: the window [k, l] clipped to the support, and any
    top of an unbounded support cut at `tail_cutoff` (at k if that is below
    k); `whole` if the clipped window, before that cut, is all of it."""
    kmin, kmax = fam.support_bound(n)
    top = _PAST_TOP if kmax is None else kmax
    lo, hi = np.maximum(lo, kmin), np.minimum(hi, top)
    # each row with its own n
    rows = (np.broadcast_to(x, thetas.shape).tolist() for x in (n, kmin, top))
    for n, kmin, top, theta, k, l in zip(*rows, thetas.tolist(), lo.tolist(), hi.tolist()):
        whole = k == kmin and l == top
        if kmax is None:
            l = min(l, max(fam.tail_cutoff(n, theta), k))
        yield n, theta, k, l, whole


def _nan_error(fam: DistributionFamily, n: int, theta: float, k: int) -> DomainError:
    return DomainError(f"family '{fam.name}' gave a NaN probability at n={n}, "
                       f"theta={float(theta)!r}, k={k}")


def prob_range(
    family: DistributionFamily | str,
    n: int,
    k: int,
    l: Optional[int],
    theta: Fraction,
) -> float:
    """Pr{k <= Y_n <= l | theta}; l=None means no upper limit.

    Returns 0.0 when the window is empty.  The window is clipped to the
    support; on an unbounded one, an end past int64 above `tail_cutoff`
    reads as 2**63 - 2.  Any other end past int64, or a theta past float
    range, raises DomainError.  One row of `prob_ranges`, after validation.
    """
    fam = resolve_family(family)
    n = _check_n(n)
    theta = fam.require_theta(theta)
    _check_int(k, "k")
    if l is not None:
        _check_int(l, "l")
    try:
        t = float(theta)
    except OverflowError:
        raise DomainError(f"theta={theta} does not fit in a float") from None
    kmin, kmax = fam.support_bound(n)
    ends = []
    for name, x in (("k", k), ("l", l)):
        if x is None:  # no upper limit: past the top of any support
            ends.append(_PAST_TOP)
            continue
        end = max(x, kmin - 1)
        if kmax is not None:
            end = min(end, kmax + 1)
        elif end >= _PAST_TOP and end > fam.tail_cutoff(n, t):
            end = _PAST_TOP - 1
        if not -_PAST_TOP < end < _PAST_TOP:
            raise DomainError(f"{name}={x} does not fit in int64")
        ends.append(end)
    return float(prob_ranges(fam, n, np.array([t]), *np.array(ends, np.int64).reshape(2, 1))[0])


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
