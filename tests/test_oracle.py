"""Brute-force oracle: indicator coverage and dense grid scans."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsize import (
    Absolute,
    DomainError,
    GridSpec,
    Mixed,
    RangePreserving,
    Relative,
    UNBIASED,
    candidate_set_for,
    coverage,
    grid_min_coverage,
    indicator_coverage,
    min_coverage,
)
from covsize import oracle
from covsize.families import BERNOULLI, POISSON
from tests._reference import bernoulli_coverage, estimate_of, margin_at, poisson_pmf_dec
from tests.test_acceptance import PAIRS, random_instance

F = Fraction


def test_indicator_fixed_values():
    # n=4, margin 1/4 at theta=1/2: k=1 and k=3 miss by exactly the margin
    # and the strict inequality excludes them, so only k=2 is accepted
    assert indicator_coverage(
        "bernoulli", 4, Absolute(F(1, 4)), UNBIASED, F(1, 2)
    ) == pytest.approx(6 / 16, abs=0)
    # empty acceptance: no k with |k/2 - 1/4| < 1/4
    assert indicator_coverage("bernoulli", 2, Absolute(F(1, 4)), UNBIASED, F(1, 4)) == 0.0
    # relative margin too tight for any estimate near theta=1/5
    assert indicator_coverage("bernoulli", 2, Relative(F(1, 10)), UNBIASED, F(1, 5)) == 0.0


def test_indicator_window_is_contiguous_and_strict():
    # at theta=39/64 with margin 1/16 on n=8 the accepted estimates sit in
    # (35/64, 43/64), i.e. k in (4.375, 5.375): exactly k=5
    val = indicator_coverage("bernoulli", 8, Absolute(F(1, 16)), UNBIASED, F(39, 64))
    from tests._reference import binom_pmf

    assert val == pytest.approx(float(binom_pmf(8, 5, F(39, 64))), abs=1e-15)
    # nudging theta so 5/8 lands exactly on the margin boundary empties nothing
    # more, but at theta=9/16 the window (1/2, 5/8) strictly excludes both
    # k=4 and k=5, leaving no accepted outcome at all
    assert indicator_coverage(
        "bernoulli", 8, Absolute(F(1, 16)), UNBIASED, F(9, 16)
    ) == 0.0


@settings(max_examples=150)
@given(
    n=st.integers(min_value=1, max_value=35),
    num=st.integers(min_value=0, max_value=40),
    eps_num=st.integers(min_value=1, max_value=20),
    kind=st.sampled_from(["abs", "rel", "mixed"]),
    rp=st.booleans(),
)
def test_indicator_agrees_with_window_formula(n, num, eps_num, kind, rp):
    theta = F(num, 40)
    if kind == "abs":
        crit = Absolute(F(eps_num, 24))
    elif kind == "rel":
        theta = F(max(num, 1), 40)  # relative margins are undefined at zero
        crit = Relative(F(eps_num, 21))
    else:
        crit = Mixed(F(eps_num, 40), F(eps_num, 21))
    est = RangePreserving(F(0), F(1)) if rp else UNBIASED
    lhs = coverage("bernoulli", n, crit, est, theta)
    rhs = indicator_coverage("bernoulli", n, crit, est, theta)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def accepted_outcomes(family, n, crit, est, theta):
    """The outcomes k <= top whose estimate meets the margin, one at a time;
    top is n for Bernoulli and many standard deviations above n*theta for
    Poisson."""
    m = margin_at(crit, theta)
    if family == "bernoulli":
        top = n
    else:
        lam = n * theta
        top = math.ceil(lam + 40 * math.sqrt(lam) + 60)
    return [k for k in range(top + 1) if abs(estimate_of(k, n, est) - theta) < m], top


def brute_force(family, n, crit, est, theta):
    """Accepted outcomes and their coverage, classifying k one at a time.

    Bernoulli walks the whole support; Poisson walks k up to a cutoff many
    standard deviations above n*theta, so a window that is still open there
    runs through the top of the support.
    """
    accepted, top = accepted_outcomes(family, n, crit, est, theta)
    if family == "bernoulli":
        value = float(bernoulli_coverage(n, crit, est, theta))
    else:
        value = float(sum(poisson_pmf_dec(n * theta, k) for k in accepted))
    return accepted, top, value


def indicator_window(monkeypatch, family, n, crit, est, theta):
    """indicator_coverage's value and the outcomes of the window it summed."""
    windows = []
    real = oracle.prob_range

    def recording(fam, n_, lo, hi, theta_):
        windows.append((lo, hi))
        return real(fam, n_, lo, hi, theta_)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "prob_range", recording)
        value = indicator_coverage(family, n, crit, est, theta)
    assert len(windows) <= 1
    return value, windows


def assert_matches_brute_force(monkeypatch, family, n, crit, est, theta):
    accepted, top, expected = brute_force(family, n, crit, est, theta)
    value, windows = indicator_window(monkeypatch, family, n, crit, est, theta)
    if windows:
        lo, hi = windows[0]
        summed = list(range(lo, top + 1 if hi is None else hi + 1))
    else:
        summed = []
    assert summed == accepted, (family, n, crit, est, theta)
    if not accepted:
        assert value == 0.0
    assert value == pytest.approx(expected, rel=1e-12, abs=1e-14)
    return accepted, top, value


RP_BERNOULLI = RangePreserving(F(1, 5), F(4, 5))
RP_POISSON = RangePreserving(F(2), F(5))

# (family, n, criterion, estimator, theta, what the window should look like)
WINDOW_CASES = [
    # n = 4, theta = 5/8: |k/4 - 5/8| < 1/16 has no solution
    ("bernoulli", 4, Absolute(F(1, 16)), UNBIASED, F(5, 8), "empty"),
    ("poisson", 3, Relative(F(1, 20)), UNBIASED, F(1, 2), "empty"),
    ("bernoulli", 7, Absolute(F(1)), UNBIASED, F(3, 7), "whole"),
    ("bernoulli", 9, Mixed(F(3, 5), F(1, 2)), UNBIASED, F(1, 2), "whole"),
    # theta + eps above 1: the window runs to k = n
    ("bernoulli", 12, Absolute(F(1, 4)), UNBIASED, F(9, 10), "open"),
    # the upper clamp holds every large k at 4/5 or 5, inside the margin
    ("bernoulli", 15, Absolute(F(1, 10)), RP_BERNOULLI, F(3, 4), "open"),
    ("poisson", 6, Absolute(F(1, 2)), RP_POISSON, F(19, 4), "open"),
    ("poisson", 6, Relative(F(1, 5)), RP_POISSON, F(5), "open"),
    # the lower clamp lifts every small k to 1/5 or 2, inside the margin
    ("bernoulli", 15, Absolute(F(1, 10)), RP_BERNOULLI, F(1, 4), "from-bottom"),
    ("poisson", 6, Absolute(F(1, 2)), RP_POISSON, F(9, 4), "from-bottom"),
    ("poisson", 6, Relative(F(1, 5)), RP_POISSON, F(2), "from-bottom"),
    # both clamps inside the margin: every outcome is accepted
    ("bernoulli", 11, Absolute(F(7, 10)), RP_BERNOULLI, F(1, 2), "whole"),
]


@pytest.mark.parametrize("family,n,crit,est,theta,shape", WINDOW_CASES)
def test_indicator_window_shapes_match_brute_force(monkeypatch, family, n, crit, est,
                                                   theta, shape):
    accepted, top, value = assert_matches_brute_force(monkeypatch, family, n, crit, est,
                                                      theta)
    if shape == "empty":
        assert accepted == [] and value == 0.0
    elif shape == "whole":
        assert accepted == list(range(top + 1))
        assert value == pytest.approx(1.0, abs=1e-15)
    elif shape == "open":
        assert accepted[0] > 0 and accepted[-1] == top
    else:
        assert accepted[0] == 0 and accepted[-1] < top


def boundary_thetas(n, crit, a, b):
    """Every theta in [a, b] where an outcome k sits exactly on a margin edge:
    k/n +- eps for an absolute margin, k/(n(1 +- eps)) for a relative one."""
    points = set()
    for k in range(-2, 2 * n * math.ceil(b + 1) + 3):
        if isinstance(crit, (Absolute, Mixed)):
            eps = crit.eps if isinstance(crit, Absolute) else crit.eps_abs
            points |= {F(k, n) + eps, F(k, n) - eps}
        if isinstance(crit, (Relative, Mixed)):
            eps = crit.eps if isinstance(crit, Relative) else crit.eps_rel
            points |= {F(k, n) / (1 + eps), F(k, n) / (1 - eps)}
    if isinstance(crit, Mixed):
        c = crit.eps_abs / crit.eps_rel
        points |= {c, c - F(1, 10**9), c + F(1, 10**9)}
    return sorted(t for t in points if a <= t <= b)


@pytest.mark.parametrize("family,n,crit,est,a,b", [
    ("bernoulli", 10, Absolute(F(1, 10)), UNBIASED, F(0), F(1)),
    ("bernoulli", 13, Absolute(F(2, 9)), RangePreserving(F(1, 10), F(9, 10)), F(1, 10),
     F(9, 10)),
    ("bernoulli", 12, Relative(F(1, 4)), UNBIASED, F(1, 20), F(1)),
    ("bernoulli", 11, Relative(F(1, 3)), RangePreserving(F(1, 6), F(5, 6)), F(1, 6),
     F(5, 6)),
    # crossover c = eps_abs / eps_rel = 2/5
    ("bernoulli", 14, Mixed(F(1, 10), F(1, 4)), UNBIASED, F(1, 20), F(19, 20)),
    ("bernoulli", 9, Mixed(F(1, 10), F(1, 4)), RangePreserving(F(1, 10), F(9, 10)),
     F(1, 10), F(9, 10)),
    ("poisson", 4, Absolute(F(1, 2)), UNBIASED, F(1, 2), F(5)),
    ("poisson", 5, Relative(F(1, 4)), RangePreserving(F(1), F(4)), F(1), F(4)),
    # crossover c = 3
    ("poisson", 3, Mixed(F(3, 4), F(1, 4)), UNBIASED, F(1), F(6)),
    ("poisson", 4, Mixed(F(3, 4), F(1, 4)), RangePreserving(F(1), F(6)), F(1), F(6)),
])
def test_indicator_matches_brute_force_on_every_margin_edge(monkeypatch, family, n, crit,
                                                            est, a, b):
    # exactly on an edge the strict inequality rejects the outcome; the
    # bisection must land on the same side as the k-by-k classification
    thetas = boundary_thetas(n, crit, a, b)
    assert len(thetas) >= n // 2
    for theta in thetas:
        assert_matches_brute_force(monkeypatch, family, n, crit, est, theta)


def test_grid_spec_validation():
    with pytest.raises(DomainError, match="positive"):
        GridSpec(step=F(0))
    with pytest.raises(DomainError, match="float"):
        GridSpec(step=0.1)
    with pytest.raises(DomainError, match="cells"):
        GridSpec.divide(F(0), F(1), cells=5)
    with pytest.raises(DomainError):
        GridSpec.divide(F(1), F(0))
    spec = GridSpec.divide(F(0), F(1))
    assert spec.step == F(1, 10_000)
    assert spec.include_candidates


def test_grid_min_validation():
    spec = GridSpec(step=F(1, 100))
    with pytest.raises(DomainError, match="too coarse"):
        grid_min_coverage(
            "bernoulli", 5, Absolute(F(1, 4)), UNBIASED, F(0), F(1, 50), spec
        )
    with pytest.raises(DomainError, match="a < b"):
        grid_min_coverage(
            "bernoulli", 5, Absolute(F(1, 4)), UNBIASED, F(1), F(0), spec
        )
    with pytest.raises(DomainError, match="parameter space"):
        grid_min_coverage(
            "bernoulli", 5, Absolute(F(1, 4)), UNBIASED, F(1, 2), F(3, 2), spec
        )
    with pytest.raises(DomainError, match="clamp"):
        grid_min_coverage(
            "bernoulli",
            5,
            Absolute(F(1, 4)),
            RangePreserving(F(0), F(1)),
            F(1, 4),
            F(1),
            spec,
        )


def test_grid_tie_breaks_toward_smallest_theta():
    value, theta = grid_min_coverage(
        "bernoulli",
        2,
        Absolute(F(1, 4)),
        UNBIASED,
        F(0),
        F(1),
        GridSpec.divide(F(0), F(1)),
    )
    assert value == 0.0
    assert theta == F(1, 4)  # 3/4 attains the same value


def test_grid_with_candidates_matches_candidate_minimum():
    crit = Mixed(F(1, 6), F(1, 3))
    report = min_coverage("bernoulli", 17, crit, UNBIASED, F(1, 8), F(7, 8))
    value, theta = grid_min_coverage(
        "bernoulli",
        17,
        crit,
        UNBIASED,
        F(1, 8),
        F(7, 8),
        GridSpec.divide(F(1, 8), F(7, 8)),
    )
    assert value == report.min_coverage
    assert theta == report.argmin_theta


def test_grid_without_candidates_stays_close():
    crit = Absolute(F(1, 12))
    report = min_coverage("bernoulli", 23, crit, UNBIASED, F(1, 10), F(9, 10))
    value, _ = grid_min_coverage(
        "bernoulli",
        23,
        crit,
        UNBIASED,
        F(1, 10),
        F(9, 10),
        GridSpec.divide(F(1, 10), F(9, 10), include_candidates=False),
    )
    # the scan can only overshoot the true minimum: coverage jumps at the
    # lattice points, the infimum is attained exactly at a candidate, and a
    # pure grid straddles it.  Only merging the candidates closes the gap,
    # which is why the paired test above demands exact agreement.
    assert value >= report.min_coverage
    assert value - report.min_coverage < 1e-4


def test_lattice_aligned_grid_goes_through_exact_path():
    """Every fifth grid row lands exactly on a window threshold.

    Rows where n*theta +- n*eps is an integer are where float thresholds and
    exact thresholds can disagree; the scan must recompute those rows
    exactly, so a full scalar recomputation reproduces every value bit for
    bit.
    """
    n, crit = 10, Absolute(F(1, 10))
    spec = GridSpec(step=F(1, 20), include_candidates=False)
    value, theta = grid_min_coverage(
        "bernoulli", n, crit, UNBIASED, F(0), F(1), spec
    )
    scalar = {
        F(j, 20): indicator_coverage("bernoulli", n, crit, UNBIASED, F(j, 20))
        for j in range(21)
    }
    assert value == min(scalar.values())
    assert theta == min(t for t, v in scalar.items() if v == value)


def test_vector_and_scalar_paths_agree():
    plain = dataclasses.replace(BERNOULLI, cdf_batch=None)
    crit = Relative(F(1, 5))
    spec = GridSpec.divide(F(1, 4), F(3, 4), cells=500, include_candidates=False)
    fast = grid_min_coverage("bernoulli", 19, crit, UNBIASED, F(1, 4), F(3, 4), spec)
    slow = grid_min_coverage(plain, 19, crit, UNBIASED, F(1, 4), F(3, 4), spec)
    assert fast[0] == pytest.approx(slow[0], abs=1e-9)
    assert fast[1] == slow[1]


def test_grid_scan_range_preserving_degenerate():
    est = RangePreserving(F(2, 5), F(3, 5))
    value, theta = grid_min_coverage(
        "bernoulli",
        7,
        Absolute(F(1, 2)),
        est,
        F(2, 5),
        F(3, 5),
        GridSpec.divide(F(2, 5), F(3, 5), cells=200),
    )
    assert value == 1.0
    assert theta == F(2, 5)


# the three frozen reference sample sizes of the acceptance suite, and the
# large-n absolute query (eps = 1/100 on [0, 1]), all at delta = 1/20
GOLDEN_SCALE = [
    ("bernoulli", Absolute(F(1, 10)), F(0), F(1), 101),
    ("bernoulli", Relative(F(1, 5)), F(1, 10), F(9, 10), 901),
    ("poisson", Absolute(F(1, 2)), F(1), F(10), 156),
    ("bernoulli", Absolute(F(1, 100)), F(0), F(1), 9651),
]


@pytest.mark.slow
@pytest.mark.parametrize("family,crit,a,b,n_min", GOLDEN_SCALE)
def test_grid_certifies_the_decisions_at_golden_scale(family, crit, a, b, n_min):
    threshold = float(1 - F(1, 20))
    grid = GridSpec.divide(a, b, cells=10_000, include_candidates=True)
    for n, passes in ((n_min - 1, False), (n_min, True)):
        report = min_coverage(family, n, crit, UNBIASED, a, b)
        value, theta = grid_min_coverage(family, n, crit, UNBIASED, a, b, grid)
        assert abs(value - report.min_coverage) <= 5e-10, n
        assert theta == report.argmin_theta, n
        assert (value > threshold) is passes, n
        assert (report.min_coverage > threshold) is passes, n


def per_row_scan(fam, n, crit, est, a, b, grid):
    """grid_min_coverage as a row-by-row scan: the vectorized rows where the
    grid takes them, then every flagged row and every candidate through its
    own indicator_coverage call.  Also returns the exactly evaluated grid
    rows, the candidates, and the indicator_coverage values of both."""
    rows = math.floor((b - a) / grid.step) + 1
    thetas = [a + j * grid.step for j in range(rows)]
    if fam.cdf_batch is not None and rows >= oracle._VECTOR_MIN_ROWS:
        tf = float(a) + float(grid.step) * np.arange(rows, dtype=np.float64)
        values, flagged = oracle._vector_rows(fam, n, crit, est, tf, float(a), float(b))
        values, flagged = values.tolist(), flagged.tolist()
    else:
        values, flagged = [None] * rows, [True] * rows
    exact = [t for t, f in zip(thetas, flagged) if f]
    cands = candidate_set_for(n, crit, est, a, b).thetas if grid.include_candidates else ()
    per_row = [indicator_coverage(fam, n, crit, est, t) for t in (*exact, *cands)]
    flagged_values = iter(per_row)
    values = [next(flagged_values) if f else v for v, f in zip(values, flagged)]
    points = list(zip(values, thetas)) + list(zip(per_row[len(exact):], cands))
    best = min(v for v, _ in points)
    return best, min(t for v, t in points if v == best), exact, cands, per_row


PLAIN_BERNOULLI = dataclasses.replace(BERNOULLI, cdf_batch=None)
PLAIN_POISSON = dataclasses.replace(POISSON, cdf_batch=None)


def batch_cases():
    """(family, n, criterion, estimator, a, b, cells) for both families, the
    log-pmf-only clones and all six pairs, on grids of 12 (all rows exact)
    and 60 cells, plus a case with narrow margins and one whose grid rows
    put outcomes exactly on a margin edge."""
    rng = random.Random(20261018)
    cases = []
    for fam in (BERNOULLI, POISSON, PLAIN_BERNOULLI, PLAIN_POISSON):
        for pair in PAIRS:
            for cells in (12, 60):
                n, crit, est, a, b = random_instance(rng, pair, fam.name)
                cases.append((fam, n, crit, est, a, b, cells))
        # margins narrower than 1/(2n): most rows accept no outcome at all
        for cells in (12, 60):
            if fam.name == "bernoulli":
                cases.append((fam, 4, Absolute(F(1, 16)), UNBIASED, F(0), F(1), cells))
            else:
                cases.append((fam, 3, Relative(F(1, 20)), UNBIASED, F(1, 2), F(3), cells))
        # n(theta +- eps) is an integer on every sixth (tenth) row
        if fam.name == "bernoulli":
            cases.append((fam, 10, Absolute(F(1, 10)), UNBIASED, F(0), F(1), 60))
        else:
            cases.append((fam, 4, Absolute(F(1, 2)), UNBIASED, F(1, 2), F(5), 60))
    return cases


def over_one_denominator(thetas):
    """The thetas as integer numerators over their least common denominator."""
    den = math.lcm(*(t.denominator for t in thetas))
    return np.array([t.numerator * (den // t.denominator) for t in thetas]), den


def test_batched_exact_rows_equal_per_row_indicator_coverage(monkeypatch):
    calls = {"prob_range": 0, "prob_ranges": 0}
    for name in calls:
        real = getattr(oracle, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(oracle, name, counting)
    shapes = {"empty": 0, "open": 0, "closed": 0, "on an edge": 0}
    for fam, n, crit, est, a, b, cells in batch_cases():
        grid = GridSpec.divide(a, b, cells=cells)
        expected, theta, rows, cands, per_row = per_row_scan(fam, n, crit, est, a, b, grid)
        exact = rows + list(cands)
        for name in calls:
            calls[name] = 0
        assert grid_min_coverage(fam, n, crit, est, a, b, grid) == (expected, theta), (
            fam.name, n, crit, est, a, b, cells)
        vectorized = fam.cdf_batch is not None and cells == 60
        # one batch for the vectorized rows, and one for the flagged (or,
        # without them, all) rows and the candidates together
        assert calls["prob_range"] == 0
        assert calls["prob_ranges"] == 1 + vectorized
        if vectorized:
            # vectorized rows whose thresholds hit an integer, which
            # _near_int flags for the exact path
            shapes["on an edge"] += sum(
                (n * (t - margin_at(crit, t))).denominator == 1
                or (n * (t + margin_at(crit, t))).denominator == 1 for t in rows)
        # the batch is value for value the scalar path
        t, den = over_one_denominator(exact)
        assert oracle._exact_values(fam, n, crit, est, t, den).tolist() == per_row
        _, _, open_top, full = oracle._windows(fam, n, crit, est, t, den)
        for top, nonempty in zip(open_top.tolist(), full.tolist()):
            shapes["empty" if not nonempty else "open" if top else "closed"] += 1
    assert min(shapes.values()) > 0, shapes


def clamp_edges(crit, est, a, b):
    """Every theta in [a, b] where a clamped estimate (lower or upper) sits
    exactly on a margin edge."""
    points = set()
    for v in (est.lower, est.upper):
        if isinstance(crit, (Absolute, Mixed)):
            eps = crit.eps if isinstance(crit, Absolute) else crit.eps_abs
            points |= {v + eps, v - eps}
        if isinstance(crit, (Relative, Mixed)):
            eps = crit.eps if isinstance(crit, Relative) else crit.eps_rel
            points |= {v / (1 + eps), v / (1 - eps)}
    return sorted(t for t in points if a <= t <= b)


@settings(max_examples=150)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    family=st.sampled_from(["bernoulli", "poisson"]),
    pair=st.sampled_from(PAIRS),
    where=st.sampled_from(["anywhere", "outcome edge", "clamp edge"]),
    pick=st.integers(min_value=0, max_value=10**6),
    den=st.integers(min_value=1, max_value=10**6),
)
def test_integer_keyed_window_matches_the_brute_force_event(seed, family, pair, where,
                                                            pick, den):
    # criterion-1-style draws; theta is any rational in [a, b], or a point
    # where an outcome or a clamped estimate sits exactly on a margin edge
    n, crit, est, a, b = random_instance(random.Random(seed), pair, family)
    edges = []
    if where == "outcome edge":
        edges = boundary_thetas(n, crit, a, b)
    elif where == "clamp edge" and isinstance(est, RangePreserving):
        edges = clamp_edges(crit, est, a, b)
    if edges:
        theta = edges[pick % len(edges)]
    else:
        theta = a + F(pick % (den + 1), den) * (b - a)
    # a fresh MonkeyPatch per example: prob_range is restored after each one
    assert_matches_brute_force(pytest.MonkeyPatch(), family, n, crit, est, theta)


def batch_edge_cases():
    """(label, family, n, criterion, estimator, thetas) for the batched
    windows: grids whose integer products pass 2**62, every clamp edge of
    clamped instances, mixed crossovers, and Poisson's open support."""
    # over one denominator near 2**46 the numerators fit in int64 but their
    # products with n and the margin's denominator do not; a = (2**40 + 15) /
    # (2**41 + 3) and a step over another ~2**40 denominator need one near 2**85
    den = 2**46 + 3
    a, step = F(2**40 + 15, 2**41 + 3), F(2**38 + 7, 2**40 + 9)
    grids = [[F(den // 3 + j * (den // 97), den) for j in range(11)],
             [a + j * step / 50 for j in range(11)]]
    cases = [("past 2**62", "bernoulli", 4001, crit, est, grid) for grid in grids
             for crit, est in ((Absolute(F(1, 97)), UNBIASED),
                               (Mixed(F(1, 97), F(1, 7)), RangePreserving(F(1, 20), F(19, 20))))]
    rng = random.Random(20261019)
    for family in ("bernoulli", "poisson"):
        for pair in PAIRS:
            edges = []
            while pair[1] == "range-preserving" and not edges:
                n, crit, est, a, b = random_instance(rng, pair, family)
                edges = clamp_edges(crit, est, a, b)
            if edges:
                cases.append(("clamp edges", family, n, crit, est, edges))
    # crossovers c = eps_abs / eps_rel inside [a, b], and beside them
    for family, n, crit, est in (
            ("bernoulli", 14, Mixed(F(1, 10), F(1, 4)), UNBIASED),
            ("bernoulli", 9, Mixed(F(1, 10), F(1, 4)), RangePreserving(F(1, 10), F(9, 10))),
            ("poisson", 3, Mixed(F(3, 4), F(1, 4)), UNBIASED),
            ("poisson", 4, Mixed(F(3, 4), F(1, 4)), RangePreserving(F(1), F(6)))):
        c = crit.eps_abs / crit.eps_rel
        cases.append(("crossover", family, n, crit, est,
                      [c, c - F(1, 10**9), c + F(1, 10**9), c - F(1, n), c + F(1, n)]))
    # Poisson has no top: unclamped windows close, clamped ones may stay open
    for crit in (Absolute(F(1, 2)), Relative(F(1, 4)), Mixed(F(3, 4), F(1, 4))):
        for est in (UNBIASED, RangePreserving(F(1, 2), F(8))):
            cases.append(("open support", "poisson", 6, crit, est,
                          [F(1, 2) + F(j, 8) for j in range(61)]))
    return cases


@pytest.mark.parametrize("label,family,n,crit,est,thetas", batch_edge_cases())
def test_batched_windows_equal_indicator_and_brute_force(label, family, n, crit, est, thetas):
    fam = BERNOULLI if family == "bernoulli" else POISSON
    t, den = over_one_denominator(thetas)
    if label == "past 2**62":
        assert int(max(t)) * n * 97 > 2**62
    lo, hi, open_top, full = oracle._windows(fam, n, crit, est, t, den)
    values = oracle._exact_values(fam, n, crit, est, t, den).tolist()
    assert values == [indicator_coverage(fam, n, crit, est, theta) for theta in thetas]
    for j, theta in enumerate(thetas):
        accepted, top = accepted_outcomes(family, n, crit, est, theta)
        window = list(range(lo[j], (top if open_top[j] else hi[j]) + 1)) if full[j] else []
        assert window == accepted, (label, theta)
    if label == "open support":
        assert open_top[full].any() == isinstance(est, RangePreserving)
