"""Brute-force oracle: indicator coverage and dense grid scans."""

import dataclasses
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as _sps

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
    get_family,
    grid_min_coverage,
    indicator_coverage,
    min_coverage,
)
from covsize import families, oracle
from covsize.candidates import _floats
from covsize.families import BERNOULLI, POISSON, DistributionFamily, cdf_error, prob_ranges
from tests._reference import (PAST_TOP, bernoulli_coverage, estimate_of, margin_at,
                              poisson_pmf_dec)
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
    # a float or a bool is not a cell count, even one equal to an int >= 10
    for cells in (10.0, 1e4, True, F(10), "10"):
        with pytest.raises(DomainError, match="cells must be an int"):
            GridSpec.divide(F(0), F(1), cells=cells)
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
    # without candidates, whose builder rejects it first, the grid rows'
    # own sign test finds the relative theta 0
    with pytest.raises(DomainError, match="relative coverage needs theta > 0, got 0"):
        grid_min_coverage("bernoulli", 5, Relative(F(1, 4)), UNBIASED, F(0), F(1),
                          GridSpec(step=F(1, 100), include_candidates=False))
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

    Rows where n*theta +- n*eps is an integer are where the strict margin
    excludes an outcome; the scan's integer windows must exclude it too, so a
    full scalar recomputation reproduces every value bit for bit.
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


def grid_over_one_denominator(a, step, rows):
    """The grid rows a + j * step, j < rows, as integer numerators over the
    least common denominator of a and step."""
    den = math.lcm(a.denominator, step.denominator)
    first, gap = a.numerator * (den // a.denominator), step.numerator * (den // step.denominator)
    return np.array([first + j * gap for j in range(rows)]), den


def exact_values(fam, n, crit, est, t, den):
    """The coverage at each theta t / den from the bisection's windows and
    correctly rounded floats, in one `prob_ranges` call."""
    return prob_ranges(fam, n, _floats(t, den), *oracle._windows(fam, n, crit, est, t, den))


def per_row_scan(fam, n, crit, est, a, b, grid):
    """grid_min_coverage as a full row-by-row scan: every grid row through
    `exact_values` and every candidate through its own indicator_coverage
    call.  Also returns the candidates and their values."""
    rows = math.floor((b - a) / grid.step) + 1
    values = exact_values(fam, n, crit, est,
                          *grid_over_one_denominator(a, grid.step, rows)).tolist()
    cands = candidate_set_for(n, crit, est, a, b).thetas if grid.include_candidates else ()
    cand_values = [indicator_coverage(fam, n, crit, est, t) for t in cands]
    best = min(values + cand_values)
    # the first grid row and every candidate at the least value
    tied = [a + values.index(best) * grid.step] if best in values else []
    tied += [t for v, t in zip(cand_values, cands) if v == best]
    return best, min(tied), cands, cand_values


PLAIN_BERNOULLI = dataclasses.replace(BERNOULLI, cdf_batch=None)
PLAIN_POISSON = dataclasses.replace(POISSON, cdf_batch=None)


def batch_cases():
    """(family, n, criterion, estimator, a, b, cells) for both families, the
    log-pmf-only clones and all six pairs, on grids of 12 and 60 cells, plus
    a case with narrow margins and one whose grid rows put outcomes exactly
    on a margin edge."""
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
    # the number of thetas in each call
    calls = {"prob_range": [], "prob_min": [], "_cdf_ends": []}
    for name in calls:
        real = getattr(oracle, name)

        def counting(fam, n, thetas, *args, _real=real, _name=name):
            calls[_name].append(np.size(thetas))
            return _real(fam, n, thetas, *args)

        monkeypatch.setattr(oracle, name, counting)
    shapes = {"empty": 0, "open": 0, "closed": 0, "on an edge": 0}
    for fam, n, crit, est, a, b, cells in batch_cases():
        grid = GridSpec.divide(a, b, cells=cells)
        expected, theta, cands, cand_values = per_row_scan(fam, n, crit, est, a, b, grid)
        rows = [a + j * grid.step for j in range(cells + 1)]
        for name in calls:
            calls[name].clear()
        assert grid_min_coverage(fam, n, crit, est, a, b, grid) == (expected, theta), (
            fam.name, n, crit, est, a, b, cells)
        vectorized = fam.cdf_batch is not None
        # without cdf_batch, one prob_min batch for the candidates, empty
        # windows included, and one for every grid row; with it, no prob_min
        # call: the candidates join the first CDF batch of the branch and
        # bound over the grid rows, the ends of runs
        assert calls["prob_range"] == []
        assert calls["prob_min"] == ([] if vectorized else [len(cands), len(rows)])
        assert bool(calls["_cdf_ends"]) is vectorized
        if vectorized:
            assert calls["_cdf_ends"][0] > len(cands)
        # grid rows whose n * (theta -+ m) is an integer, where the strict
        # margin excludes an outcome
        shapes["on an edge"] += sum(
            (n * (t - margin_at(crit, t))).denominator == 1
            or (n * (t + margin_at(crit, t))).denominator == 1 for t in rows)
        # the candidates' batch is value for value the scalar path
        t, den = over_one_denominator(list(cands))
        assert exact_values(fam, n, crit, est, t, den).tolist() == cand_values
        t, den = over_one_denominator(rows + list(cands))
        lo, hi = oracle._windows(fam, n, crit, est, t, den)
        for top, empty in zip((hi == PAST_TOP).tolist(), (hi < lo).tolist()):
            shapes["empty" if empty else "open" if top else "closed"] += 1
    assert min(shapes.values()) > 0, shapes


def test_a_log_pmf_grid_is_the_per_row_scan_with_fewer_log_pmf_calls():
    calls = [0]

    def log_pmf(n, theta, k):
        calls[0] += 1
        return BERNOULLI.log_pmf(n, theta, k)

    clone = dataclasses.replace(BERNOULLI, name="counting", cdf_batch=None, log_pmf=log_pmf)
    n, crit = 60, Relative(F(1, 5))
    for include in (False, True):
        grid = GridSpec.divide(F(1, 10), F(9, 10), cells=400, include_candidates=include)
        calls[0] = 0
        expected = per_row_scan(clone, n, crit, UNBIASED, F(1, 10), F(9, 10), grid)[:2]
        full = calls[0]
        calls[0] = 0
        assert grid_min_coverage(clone, n, crit, UNBIASED, F(1, 10), F(9, 10), grid) == expected
        assert calls[0] < full / 2, (calls[0], full)


@pytest.mark.parametrize("family, n, crit, a, b", [
    ("poisson", 10, Relative(F(1, 5)), F(10**30), F(2 * 10**30)),  # read as 0.0 before
    ("bernoulli", 10**20, Absolute(F(1, 10)), F(0), F(1)),
])
def test_a_grid_row_end_past_int64_is_a_domain_error(family, n, crit, a, b):
    grid = GridSpec.divide(a, b, cells=10, include_candidates=False)
    with pytest.raises(DomainError, match="does not fit in int64"):
        grid_min_coverage(family, n, crit, UNBIASED, a, b, grid)


def _mixture_cdf(n, theta, k):
    return 0.5 * _sps.bdtr(k, n, theta) + 0.5 * _sps.bdtr(k, n, np.minimum(theta + 0.2, 1.0))


def _staircase_cdf(n, theta, k):
    return _sps.bdtr(k, n, np.ceil(theta * 8.0) / 8.0)


def _log_pmf_of(cdf):
    """log Pr{Y_n = k} as a difference of two values of a CDF on 0..n."""
    def log_pmf(n, theta, k):
        def at(j):
            return cdf(n, np.array([theta]), np.array([j]))[0] if j >= 0 else 0.0
        p = at(k) - at(k - 1)
        return math.log(p) if p > 0.0 else -math.inf
    return log_pmf


def _cdf_only(name, cdf):
    return DistributionFamily(name=name, param_space=BERNOULLI.param_space,
                              support_bound=BERNOULLI.support_bound,
                              log_pmf=_log_pmf_of(cdf), cdf_batch=cdf)


# two families given by their CDFs alone, both stochastically increasing, as
# the grid oracle needs.  F(k; theta) = (bdtr(k, n, theta) + bdtr(k, n,
# min(theta + 1/5, 1))) / 2 has two peaks, so a run of rows with one window
# can have its least coverage inside; the binomial at ceil(8 theta) / 8 is
# flat between steps, so rows tie with the least value, and its first row
# sits inside a run where a step does
TWO_PEAKED = _cdf_only("two-peaked", _mixture_cdf)
STAIRCASE = _cdf_only("staircase", _staircase_cdf)


# two-peaked instances whose least grid row lies inside its run, found by a
# scan of random ones: (n, criterion, estimator, a, b)
TWO_PEAKED_INSIDE = [
    (9, Absolute(F(1, 8)), UNBIASED, F(31, 40), F(7, 8)),
    (8, Mixed(F(21, 128), F(7, 40)), RangePreserving(F(3, 8), F(39, 40)), F(3, 8), F(39, 40)),
]


# grids whose runs have one coverage on every row: (n, criterion, estimator,
# a, b), the grid's least value and theta at 10^4 cells without candidates,
# and the most CDF values the scan may ask for
CONSTANT_RUNS = [
    # every clamped estimate is within 3/5 of theta: every window is the
    # whole support, and no CDF value is read
    ((11, Absolute(F(7, 10)), RangePreserving(F(1, 5), F(4, 5)), F(1, 5), F(4, 5)),
     (1.0, F(1, 5)), 0),
    # the windows are empty but for theta near 5/6, where they hold k = 5:
    # two values for each of a few dozen rows at most
    ((6, Absolute(F(1, 40)), UNBIASED, F(31, 40), F(9, 10)), (0.0, F(31, 40)), 48),
]


def pruning_cases():
    """(family, n, criterion, estimator, a, b, cells, include_candidates):
    criterion-1-style instances of both families and all six pairs on grids
    of 16, 60 and 10^4 cells, with and without the candidates, one grid of
    each family at the fewest cells, 10, the two CDF-only families at
    n = 2..12 without the candidates, and the grids of CONSTANT_RUNS."""
    rng = random.Random(20261019)
    cases = []
    for fam in (BERNOULLI, POISSON):
        for pair in PAIRS:
            for cells in (16, 60, 10_000):
                for include in (True, False):
                    n, crit, est, a, b = random_instance(rng, pair, fam.name)
                    cases.append((fam, n, crit, est, a, b, cells, include))
    for fam in (TWO_PEAKED, STAIRCASE):
        instances = [(n, *random_instance(rng, pair, "bernoulli")[1:])
                     for n in range(2, 13) for pair in PAIRS]
        if fam is TWO_PEAKED:
            instances += TWO_PEAKED_INSIDE
        for instance in instances:
            for cells in (60, 1000, 10_000):
                cases.append((fam, *instance, cells, False))
    for instance, _, _ in CONSTANT_RUNS:
        cases.append((BERNOULLI, *instance, 10_000, False))
    for fam in (BERNOULLI, POISSON):
        cases.append((fam, *random_instance(rng, PAIRS[0], fam.name), 10, True))
    return cases


def test_pruned_grid_scan_equals_the_full_scan_bit_for_bit():
    inside = {TWO_PEAKED.name: 0, STAIRCASE.name: 0}
    for fam, n, crit, est, a, b, cells, include in pruning_cases():
        grid = GridSpec.divide(a, b, cells=cells, include_candidates=include)
        expected = per_row_scan(fam, n, crit, est, a, b, grid)[:2]
        assert grid_min_coverage(fam, n, crit, est, a, b, grid) == expected, (
            fam.name, n, crit, est, a, b, cells, include)
        if fam.name in inside:
            # the first least row lies strictly inside its run of one window
            window = oracle._grid_windows(fam, n, crit, est,
                                          *grid_over_one_denominator(a, grid.step, cells + 1))
            j = round((expected[1] - a) / grid.step)
            inside[fam.name] += 0 < j < cells and all(w[j - 1] == w[j] == w[j + 1]
                                                      for w in window)
    # minima that only a valid bound, dropping only what is strictly above
    # the least value, keeps
    assert min(inside.values()) > 0, inside


def test_pruned_grid_scan_asks_for_a_fraction_of_the_cdf_values():
    asked = [0]

    def counting(cdf):
        def cdf_batch(n, thetas, ks):
            asked[0] += np.size(ks)
            return cdf(n, thetas, ks)
        return cdf_batch

    fams = {fam.name: dataclasses.replace(fam, cdf_batch=counting(fam.cdf_batch))
            for fam in (BERNOULLI, POISSON)}
    rng = random.Random(20260801)  # criterion 1's instances
    full = pruned = 0
    for family, count in (("bernoulli", 4), ("poisson", 2)):
        for pair in PAIRS:
            for _ in range(count):
                n, crit, est, a, b = random_instance(rng, pair, family)
                grid = GridSpec.divide(a, b, cells=10_000, include_candidates=True)
                asked[0] = 0
                expected = per_row_scan(fams[family], n, crit, est, a, b, grid)[:2]
                full += asked[0]
                asked[0] = 0
                assert grid_min_coverage(fams[family], n, crit, est, a, b, grid) == expected
                pruned += asked[0]
    assert pruned <= 0.4 * full, (pruned, full)


def counting_cdf(fam, counts):
    """`fam` whose cdf_batch adds its calls and the values asked to `counts`."""
    def cdf_batch(n, thetas, ks):
        counts["calls"] += 1
        counts["values"] += np.size(ks)
        return fam.cdf_batch(n, thetas, ks)
    return dataclasses.replace(fam, cdf_batch=cdf_batch)


def test_pruned_grid_scan_makes_one_cdf_call_per_level():
    counts = {"calls": 0, "values": 0}
    fams = {fam.name: counting_cdf(fam, counts) for fam in (BERNOULLI, POISSON)}
    rng = random.Random(20260801)  # criterion 1's instances
    most = 0
    for family, count in (("bernoulli", 4), ("poisson", 2)):
        for pair in PAIRS:
            for _ in range(count):
                n, crit, est, a, b = random_instance(rng, pair, family)
                grid = GridSpec.divide(a, b, cells=10_000, include_candidates=True)
                counts["calls"] = 0
                grid_min_coverage(fams[family], n, crit, est, a, b, grid)
                most = max(most, counts["calls"])
    # the candidates' rows with the ends of the runs, then the cuts of the
    # long runs and the leaves
    assert most <= 3, most


# criterion-1 instances whose grid minimum lies in [1 - 1e-9, 1), among the
# fixed instances of the certify benchmark: (family, n, criterion, estimator,
# a, b)
NEAR_ONE = [
    ("bernoulli", 37, Absolute(F(11, 20)), UNBIASED, F(17, 40), F(7, 8)),
    ("bernoulli", 23, Relative(F(3, 4)), UNBIASED, F(4, 5), F(19, 20)),
    ("poisson", 35, Mixed(F(11271, 2560), F(13, 40)), UNBIASED, F(12), F(57, 4)),
]


@pytest.mark.parametrize("instance", NEAR_ONE)
def test_a_grid_minimum_just_below_one_is_found_from_few_rows(instance, monkeypatch):
    family, n, crit, est, a, b = instance
    grid = GridSpec.divide(a, b, cells=10_000)
    expected = per_row_scan(get_family(family), n, crit, est, a, b, grid)[:2]
    assert 1 - 1e-9 <= expected[0] < 1
    # counted below the built-in cdf_batch, which a wrapper would replace,
    # taking the prune margin of a family without a stated CDF error
    asked = [0]

    def counting(cdf):
        def counted(k, *args):
            asked[0] += np.size(k)
            return cdf(k, *args)
        return counted

    monkeypatch.setattr(families, "_sps", SimpleNamespace(bdtr=counting(_sps.bdtr),
                                                          pdtr=counting(_sps.pdtr)))
    assert grid_min_coverage(family, n, crit, est, a, b, grid) == expected
    # a tenth of the two values a row of the full scan reads
    assert asked[0] < 2 * 10_000 / 10, asked[0]


def test_the_prune_margin_covers_the_stated_cdf_error():
    wrapped = dataclasses.replace(BERNOULLI, cdf_batch=lambda n, t, k: BERNOULLI.cdf_batch(n, t, k))
    for fam, n, theta in ((BERNOULLI, 2, 1.0), (BERNOULLI, 64, 0.5), (BERNOULLI, 256, 1.0),
                          (POISSON, 1, 1e-9), (POISSON, 60, 20.0), (POISSON, 1, 4096.0)):
        error = cdf_error(fam, n, theta)
        assert error is not None, (fam.name, n, theta)
        assert 4 * F(error) + F(1, 2**52) <= oracle._prune_margin(fam, n, theta) < 1e-11
    # past the table, and for any cdf_batch but the built-in ones themselves
    for fam, n, theta in ((BERNOULLI, 257, 0.5), (POISSON, 60, 4097 / 60),
                          (wrapped, 37, 0.5), (TWO_PEAKED, 9, 0.5), (STAIRCASE, 9, 0.5)):
        assert cdf_error(fam, n, theta) is None
        assert oracle._prune_margin(fam, n, theta) == 1e-9


@pytest.mark.parametrize("instance, expected, most", CONSTANT_RUNS)
def test_runs_of_constant_coverage_are_read_at_their_ends_only(instance, expected, most):
    counts = {"calls": 0, "values": 0}
    a, b = instance[-2:]
    grid = GridSpec.divide(a, b, cells=10_000, include_candidates=False)
    assert grid_min_coverage(counting_cdf(BERNOULLI, counts), *instance, grid) == expected
    assert per_row_scan(BERNOULLI, *instance, grid)[:2] == expected
    assert counts["values"] <= most, counts


@pytest.mark.parametrize("where", ["inside", "end"])
def test_a_nan_on_the_scan_path_raises_domain_error(where):
    # the rows the scan reads in a clean pass, as runs of one window: a NaN at
    # one of them, inside its run or at its start, is read the same way
    n, crit, est, a, b = TWO_PEAKED_INSIDE[0]
    grid = GridSpec.divide(a, b, cells=10_000, include_candidates=False)
    read = set()

    def recording(n_, thetas, ks):
        read.update(np.asarray(thetas).tolist())
        return _mixture_cdf(n_, thetas, ks)

    grid_min_coverage(_cdf_only("recording", recording), n, crit, est, a, b, grid)
    t, den = grid_over_one_denominator(a, grid.step, 10_001)
    tf = t / den
    lo, hi = oracle._grid_windows(TWO_PEAKED, n, crit, est, t, den)
    same = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    inside = np.append(False, same) & np.append(same, False)
    start = ~np.append(False, same) & np.append(same, False)
    j = next(j for j in (inside if where == "inside" else start).nonzero()[0]
             if tf[j] in read and lo[j] > 0)
    theta = float(tf[j])
    nan_at = _cdf_only("nan-at-row", lambda n_, thetas, ks: np.where(
        thetas == theta, np.nan, _mixture_cdf(n_, thetas, ks)))
    with pytest.raises(DomainError, match=rf"'nan-at-row' gave a NaN probability at n={n}, "
                                          rf"theta={theta!r}, k={lo[j] - 1}\b"):
        grid_min_coverage(nan_at, n, crit, est, a, b, grid)


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
    clamped instances, mixed crossovers, Poisson's open support, and margins
    so narrow that most windows accept nothing."""
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
    # margins narrower than 1/(2n)
    cases += [("narrow", "bernoulli", 4, Absolute(F(1, 16)), UNBIASED,
               [F(j, 24) for j in range(25)]),
              ("narrow", "poisson", 3, Relative(F(1, 20)), UNBIASED,
               [F(1, 2) + F(j, 8) for j in range(21)])]
    return cases


@pytest.mark.parametrize("label,family,n,crit,est,thetas", batch_edge_cases())
def test_batched_windows_equal_indicator_and_brute_force(label, family, n, crit, est, thetas):
    fam = BERNOULLI if family == "bernoulli" else POISSON
    t, den = over_one_denominator(thetas)
    if label == "past 2**62":
        assert int(max(t)) * n * 97 > 2**62
    lo, hi = oracle._windows(fam, n, crit, est, t, den)
    open_top = hi == PAST_TOP
    values = exact_values(fam, n, crit, est, t, den).tolist()
    assert values == [indicator_coverage(fam, n, crit, est, theta) for theta in thetas]
    for j, theta in enumerate(thetas):
        accepted, top = accepted_outcomes(family, n, crit, est, theta)
        window = list(range(lo[j], (top if open_top[j] else hi[j]) + 1))
        assert window == accepted, (label, theta)
        # a window that accepts nothing is lo .. lo - 1, never open
        assert bool(accepted) or (hi[j] == lo[j] - 1 and not open_top[j]), (label, theta)
    if label == "open support":
        assert open_top.any() == isinstance(est, RangePreserving)
    if label == "narrow":
        assert (hi < lo).any()


@pytest.mark.parametrize("estimator", ["x", object(), None])
def test_the_oracle_rejects_an_unknown_estimator(estimator):
    # as coverage and min_coverage do, rather than read it as unbiased
    crit = Absolute(F(1, 10))
    with pytest.raises(DomainError, match="unknown estimator"):
        indicator_coverage("bernoulli", 10, crit, estimator, F(1, 2))
    for include in (False, True):
        with pytest.raises(DomainError, match="unknown estimator"):
            grid_min_coverage("bernoulli", 10, crit, estimator, F(0), F(1),
                              GridSpec(F(1, 100), include_candidates=include))


def test_a_window_past_the_top_of_the_support_is_empty_and_closed():
    # every accepted outcome lies above a support cut at n / 2: the bisection
    # stops at the support's end with nothing accepted
    half = dataclasses.replace(BERNOULLI, name="half", support_bound=lambda n: (0, n // 2))
    t, den = over_one_denominator([F(9, 10), F(1)])
    lo, hi = oracle._windows(half, 10, Absolute(F(1, 10)), UNBIASED, t, den)
    assert lo.tolist() == [6, 6] and hi.tolist() == [5, 5]


# ---------------------------------------------------------------------------
# the grid's integer windows against the bisection

def accepted_ranges(fam, n, lo, hi):
    """Each window clipped to the support: (least, greatest) accepted k, the
    greatest None for a top without end (hi = PAST_TOP), or None for a
    window that accepts nothing."""
    kmin, kmax = fam.support_bound(n)
    out = []
    for k, l in zip(lo.tolist(), hi.tolist()):
        k, l = max(k, kmin), kmax if l == PAST_TOP else l if kmax is None else min(l, kmax)
        out.append(None if l is not None and l < k else (k, l))
    return out


# a grid whose integers pass 2**62: n * (theta + m) over the rows' common
# denominator, near 2**81, with the margin's
BIG_DENOMINATOR = (4001, Absolute(F(1, 97)), UNBIASED,
                   F(2**40 + 15, 2**41 + 3), F(2**38 + 7, 2**40 + 9) / 5000)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    family=st.sampled_from(["bernoulli", "poisson"]),
    pair=st.sampled_from(PAIRS),
    where=st.sampled_from(["criterion 1", "outcome edges", "clamp edges", "space ends",
                           "python ints"]),
    cells=st.sampled_from([10, 14, 97, 1000]),
)
def test_grid_windows_equal_the_bisection_row_by_row(seed, family, pair, where, cells):
    # criterion-1-style draws on a grid of [a, b]; every theta where an
    # outcome or a clamped estimate sits exactly on a margin edge; a grid
    # from an end of the parameter space; or a grid in Python ints
    n, crit, est, a, b = random_instance(random.Random(seed), pair, family)
    thetas = [a + j * (b - a) / cells for j in range(cells + 1)]
    if where == "outcome edges":
        thetas = boundary_thetas(n, crit, a, b) + [a, b]
    elif where == "clamp edges" and isinstance(est, RangePreserving):
        thetas = clamp_edges(crit, est, a, b) + [a, b]
    elif where == "space ends":
        # Bernoulli's 0 and 1 where the criterion allows theta = 0, else a
        # theta just above 0
        a = F(0) if family == "bernoulli" and isinstance(crit, Absolute) else F(1, 10**6)
        b = F(1) if family == "bernoulli" else b
        est = RangePreserving(a, b) if isinstance(est, RangePreserving) else est
        thetas = [a + j * (b - a) / cells for j in range(cells + 1)]
    elif where == "python ints":
        n, crit, est, a, step = BIG_DENOMINATOR
        family, thetas = "bernoulli", [a + j * step for j in range(cells + 1)]
    fam = BERNOULLI if family == "bernoulli" else POISSON
    t, den = over_one_denominator(sorted(set(thetas)))
    if where == "python ints":
        assert t.dtype == object and int(t.max()) * n * 97 > 2**62
    got = oracle._grid_windows(fam, n, crit, est, t, den)
    assert accepted_ranges(fam, n, *got) == accepted_ranges(
        fam, n, *oracle._windows(fam, n, crit, est, t, den)), (where, n, crit, est)


def fixed_grid_cases():
    """(label, family, n, criterion, estimator, thetas)"""
    def grid(a, b, cells, js=None):
        step = (b - a) / cells
        return [a + j * step for j in (range(cells + 1) if js is None else js)]

    cases = [
        # n divides the cells: n * (theta -+ eps) is an integer on every
        # tenth row, and negative below eps
        ("lattice-aligned", BERNOULLI, 10, Absolute(F(1, 10)), UNBIASED, grid(F(0), F(1), 1000)),
        ("lattice-aligned", BERNOULLI, 40, Mixed(F(1, 20), F(1, 4)), UNBIASED,
         grid(F(0), F(1), 10_000)),
        ("lattice-aligned", POISSON, 8, Relative(F(1, 4)), UNBIASED,
         grid(F(1, 2), F(5, 2), 1600)),
        # a = 0: every threshold below eps is negative; the ends are the
        # parameter bounds 0 and 1
        ("a = 0", BERNOULLI, 37, Absolute(F(3, 20)), UNBIASED, grid(F(0), F(1), 10_000)),
        ("a = 0", BERNOULLI, 7, Mixed(F(1, 8), F(1, 2)), UNBIASED, grid(F(0), F(1), 999)),
        ("poisson", POISSON, 23, Absolute(F(5, 8)), UNBIASED, grid(F(1, 2), F(20), 10_000)),
        ("poisson", POISSON, 6, Mixed(F(3, 4), F(1, 4)), RangePreserving(F(1, 2), F(8)),
         grid(F(1, 2), F(8), 10_000)),
        # a step of 1e-11 across theta = 1/2 and theta = 2, where n (theta -+ eps)
        # is an integer: the windows change at the middle row
        ("tiny step", BERNOULLI, 10, Absolute(F(1, 10)), UNBIASED,
         grid(F(1, 2), F(1, 2) + F(1, 10**11), 1, range(-2000, 2001))),
        ("tiny step", POISSON, 4, Relative(F(1, 4)), UNBIASED,
         grid(F(2), F(2) + F(1, 10**11), 1, range(-2000, 2001))),
    ]
    # every clamp edge of range-preserving instances, the rows 3e-10 apart
    # on either side of it, and a 10^4-cell grid
    rng = random.Random(20261020)
    for family in (BERNOULLI, POISSON):
        for pair in PAIRS[3:]:
            n, crit, est, a, b = random_instance(rng, pair, family.name)
            near = [e + d * F(3, 10**10) * max(1, abs(e))
                    for e in clamp_edges(crit, est, a, b) + [a, b] for d in range(-5, 6)]
            thetas = [t for t in near if a <= t <= b] + grid(a, b, 10_000)
            cases.append(("clamp edges", family, n, crit, est, thetas))
    # criterion-1 instances on their 10^4-cell grids
    for family in (BERNOULLI, POISSON):
        for pair in PAIRS:
            n, crit, est, a, b = random_instance(rng, pair, family.name)
            cases.append(("criterion 1", family, n, crit, est, grid(a, b, 10_000)))
    # the candidate points, which grid_min_coverage reads in the floor
    # division's windows and indicator_coverage in the bisection's:
    # criterion-1 instances, and the goldens at n_min - 1 and n_min
    rng = random.Random(20261021)
    instances = [(family, *random_instance(rng, pair, family.name))
                 for family in (BERNOULLI, POISSON) for pair in PAIRS for _ in range(20)]
    for family, crit, a, b, n_min in GOLDEN_SCALE:
        instances += [(get_family(family), n, crit, UNBIASED, a, b) for n in (n_min - 1, n_min)]
    for family, n, crit, est, a, b in instances:
        cset = candidate_set_for(n, crit, est, a, b)
        thetas = [F(int(x), cset.den) for x in cset.numerators]
        cases.append(("candidates", family, n, crit, est, thetas))
    return cases


@pytest.mark.parametrize("label,fam,n,crit,est,thetas", fixed_grid_cases())
def test_grid_windows_equal_the_bisection_on_fixed_grids(label, fam, n, crit, est, thetas):
    t, den = over_one_denominator(sorted(set(thetas)))
    got = accepted_ranges(fam, n, *oracle._grid_windows(fam, n, crit, est, t, den))
    assert got == accepted_ranges(fam, n, *oracle._windows(fam, n, crit, est, t, den))
    if label == "tiny step":
        # the rows straddle an outcome edge: the windows below the middle row
        # differ from those above it
        assert got[0] != got[-1]


def test_grid_values_equal_indicator_coverage_at_their_theta():
    # criterion-1-style grids of 11, 14, 97 and 1000 cells, with and
    # without the candidates: each grid row is evaluated at the float of the
    # theta it reports, in its exact window
    rng = random.Random(5)
    for family in ("bernoulli", "poisson"):
        for pair in PAIRS:
            for _ in range(40):
                n, crit, est, a, b = random_instance(rng, pair, family)
                for cells in (11, 14, 97, 1000):
                    for include in (True, False):
                        grid = GridSpec.divide(a, b, cells=cells, include_candidates=include)
                        value, theta = grid_min_coverage(family, n, crit, est, a, b, grid)
                        assert value == indicator_coverage(family, n, crit, est, theta), (
                            family, n, crit, est, a, b, cells, include)


def test_grid_ties_of_equal_rational_coverage_take_the_smaller_theta():
    # 19/40 and 21/40 have equal rational coverage; rows evaluated at the
    # float of their theta break the tie toward the smaller one
    grid = GridSpec.divide(F(7, 40), F(7, 8), cells=14, include_candidates=False)
    _, theta = grid_min_coverage("bernoulli", 19, Absolute(F(3, 40)), UNBIASED, F(7, 40),
                                 F(7, 8), grid)
    assert theta == F(19, 40)


def test_a_grid_of_more_than_a_million_rows_is_rejected():
    with pytest.raises(DomainError, match="at most 1000000"):
        grid_min_coverage("bernoulli", 5, Absolute(F(1, 4)), UNBIASED, F(0), F(1),
                          GridSpec(step=F(1, 10**6)))
    assert oracle.grid_rows(F(0), F(1), F(1, 10**6 - 1)) == 10**6
