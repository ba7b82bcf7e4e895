"""Distribution families: masses, range sums, truncation, registry."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsize import (
    BERNOULLI,
    POISSON,
    UNBIASED,
    Absolute,
    DistributionFamily,
    DomainError,
    ParamSpace,
    available_families,
    coverage,
    get_family,
    peak_count,
    pmf,
    prob_range,
    register_family,
)
from covsize.families import _REGISTRY, prob_ranges, window_sum

from _reference import bernoulli_coverage, binom_pmf, binom_range, poisson_pmf_dec

thetas_01 = st.fractions(min_value=0, max_value=1, max_denominator=64)
small_n = st.integers(min_value=1, max_value=40)


@pytest.fixture
def registry_snapshot():
    saved = dict(_REGISTRY)
    yield
    _REGISTRY.clear()
    _REGISTRY.update(saved)


# ---------------------------------------------------------------------------
# fixed values

def test_bernoulli_pmf_fixed_values():
    assert pmf("bernoulli", 10, Fraction(1, 2), 5) == pytest.approx(
        252 / 1024, abs=1e-15
    )
    assert pmf("bernoulli", 3, Fraction(0), 0) == 1.0
    assert pmf("bernoulli", 3, Fraction(0), 1) == 0.0
    assert pmf("bernoulli", 3, Fraction(1), 3) == 1.0
    assert pmf("bernoulli", 3, Fraction(1), 2) == 0.0


def test_poisson_pmf_fixed_values():
    assert pmf("poisson", 1, Fraction(1), 0) == pytest.approx(math.exp(-1), rel=1e-14)
    ref = poisson_pmf_dec(Fraction(3, 2), 2)
    assert pmf("poisson", 3, Fraction(1, 2), 2) == pytest.approx(float(ref), rel=1e-13)


def test_prob_range_fixed_values():
    assert prob_range("bernoulli", 10, 3, 7, Fraction(1, 2)) == pytest.approx(
        912 / 1024, abs=1e-14
    )
    assert prob_range("bernoulli", 10, 5, 2, Fraction(1, 2)) == 0.0
    assert prob_range("poisson", 4, 5, 2, Fraction(2)) == 0.0
    assert prob_range("bernoulli", 4, 0, 4, Fraction(1, 3)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_prob_range_clips_to_support():
    base = prob_range("bernoulli", 6, 0, 6, Fraction(2, 5))
    assert prob_range("bernoulli", 6, -3, 9, Fraction(2, 5)) == base
    assert pmf("bernoulli", 6, Fraction(2, 5), -1) == 0.0
    assert pmf("bernoulli", 6, Fraction(2, 5), 7) == 0.0


def test_prob_range_unbounded_upper():
    val = prob_range("poisson", 3, 0, None, Fraction(4, 3))
    assert val == pytest.approx(1.0, abs=1e-12)
    tail = prob_range("poisson", 3, 10, None, Fraction(4, 3))
    finite = prob_range("poisson", 3, 10, 500, Fraction(4, 3))
    assert tail == pytest.approx(finite, abs=1e-15)


def test_poisson_tail_cutoff_leaves_negligible_mass():
    n, theta = 5, Fraction(7, 2)
    cutoff = POISSON.tail_cutoff(n, theta)
    inside = prob_range("poisson", n, 0, cutoff, theta)
    assert 1.0 - inside < 1e-14


def test_large_n_stays_in_log_space():
    value = pmf("bernoulli", 10**6, Fraction(1, 2), 500_000)
    assert 0.0 < value < 1.0
    assert math.isfinite(value)
    value = pmf("poisson", 10**6, Fraction(1, 10**6), 1)
    assert value == pytest.approx(math.exp(-1), rel=1e-12)


# ---------------------------------------------------------------------------
# agreement with exact references

@given(n=small_n, theta=thetas_01, k=st.integers(min_value=-1, max_value=41))
def test_bernoulli_pmf_matches_exact_rational(n, theta, k):
    ref = float(binom_pmf(n, k, theta))
    assert pmf("bernoulli", n, theta, k) == pytest.approx(ref, rel=1e-11, abs=1e-14)


@given(
    n=st.integers(min_value=1, max_value=12),
    theta=st.fractions(min_value=Fraction(1, 16), max_value=4, max_denominator=16),
    k=st.integers(min_value=0, max_value=60),
)
def test_poisson_pmf_matches_decimal_reference(n, theta, k):
    ref = float(poisson_pmf_dec(n * theta, k))
    assert pmf("poisson", n, theta, k) == pytest.approx(ref, rel=1e-11, abs=1e-17)


@given(
    n=small_n,
    theta=thetas_01,
    k=st.integers(min_value=-2, max_value=20),
    width=st.integers(min_value=0, max_value=25),
)
def test_prob_range_is_sum_of_pmf(n, theta, k, width):
    l = k + width
    total = math.fsum(pmf("bernoulli", n, theta, j) for j in range(k, l + 1))
    assert prob_range("bernoulli", n, k, l, theta) == pytest.approx(total, abs=1e-12)
    ref = float(binom_range(n, k, l, theta))
    assert prob_range("bernoulli", n, k, l, theta) == pytest.approx(ref, abs=1e-13)


@given(n=small_n, theta=thetas_01)
def test_total_mass_is_one(n, theta):
    assert prob_range("bernoulli", n, 0, n, theta) == pytest.approx(1.0, abs=1e-12)


@given(
    n=st.integers(min_value=1, max_value=20),
    theta=st.fractions(min_value=Fraction(1, 8), max_value=6, max_denominator=8),
)
def test_poisson_total_mass_is_one(n, theta):
    assert prob_range("poisson", n, 0, None, theta) == pytest.approx(1.0, abs=1e-12)


@given(
    n=small_n,
    theta=thetas_01,
    k=st.integers(min_value=0, max_value=15),
    l=st.integers(min_value=0, max_value=15),
)
def test_range_monotone_in_both_endpoints(n, theta, k, l):
    wider_l = prob_range("bernoulli", n, k, l + 1, theta)
    narrower_k = prob_range("bernoulli", n, k + 1, l, theta)
    base = prob_range("bernoulli", n, k, l, theta)
    assert wider_l >= base - 1e-12
    assert narrower_k <= base + 1e-12


def test_batch_and_scalar_summation_agree():
    # window width 80 exercises the vectorized path; recompute term by term
    # (the two log-gamma implementations differ in final ulps, hence the slack)
    n, theta = 200, Fraction(1, 2)
    lo, hi = 60, 139
    batch = window_sum(BERNOULLI, n, theta, lo, hi)
    scalar = math.fsum(
        math.exp(BERNOULLI.log_pmf(n, float(theta), k)) for k in range(lo, hi + 1)
    )
    assert batch == pytest.approx(scalar, abs=5e-13)
    assert batch == pytest.approx(float(binom_range(n, lo, hi, theta)), abs=5e-13)


@pytest.mark.parametrize("fam", [BERNOULLI, POISSON])
def test_prob_range_is_bit_equal_to_a_prob_ranges_row(fam):
    # coverage(), indicator_coverage and min_coverage agree with == only if
    # the scalar call and a batched row give the same float
    n = 37
    thetas = [Fraction(j, 46) for j in range(47)] if fam is BERNOULLI else [
        Fraction(j, 23) for j in range(1, 70)]
    windows = [(k, l) for k in range(-3, 45, 4) for l in (None, *range(k - 2, 48, 5))]
    rows = [(t, k, l) for t in thetas for k, l in windows]
    batch = prob_ranges(
        fam, n, np.array([float(t) for t, _, _ in rows]),
        np.array([k for _, k, _ in rows]), np.array([k if l is None else l for _, k, l in rows]),
        np.array([l is None for _, _, l in rows]),
    )
    scalar = [prob_range(fam, n, k, l, t) for t, k, l in rows]
    assert scalar == batch.tolist()


def test_large_n_bernoulli_coverage_matches_exact_rational():
    # n near the n_min of the absolute 1/100 query on [0, 1]; the former
    # per-term log-gamma sum was off by 1.8e-11 here
    n, crit, theta = 9622, Absolute(Fraction(1, 100)), Fraction(240561, 481100)
    exact = bernoulli_coverage(n, crit, UNBIASED, theta)
    assert abs(coverage("bernoulli", n, crit, UNBIASED, theta) - float(exact)) <= 1e-12


def test_large_n_poisson_coverage_matches_decimal_reference():
    # n * theta = 10001 with margin 1/100: about 200 accepted outcomes
    n, eps, theta = 10_000, Fraction(1, 100), Fraction(10001, 10000)
    centre = n * theta
    accepted = [
        k for k in range(int(centre) - 2 * n // 100, int(centre) + 2 * n // 100)
        if abs(Fraction(k, n) - theta) < eps
    ]
    # one Decimal mass, then the exact ratio Pr{k+1} / Pr{k} = lam / (k+1);
    # converting k! to Decimal for each of the 200 masses would take seconds
    with localcontext() as ctx:
        ctx.prec = 50
        lam = Decimal(centre.numerator) / Decimal(centre.denominator)
        mass = poisson_pmf_dec(centre, accepted[0])
        ref = mass
        for k in accepted[1:]:
            mass = mass * lam / k
            ref += mass
    value = coverage("poisson", n, Absolute(eps), UNBIASED, theta)
    assert abs(value - float(ref)) <= 1e-12


# ---------------------------------------------------------------------------
# unimodality diagnostic

def test_windowed_mass_single_peak_bernoulli():
    values = [
        prob_range("bernoulli", 10, 3, 7, Fraction(j, 1000)) for j in range(1001)
    ]
    assert peak_count(values) <= 1


def test_windowed_mass_single_peak_poisson():
    values = [
        prob_range("poisson", 4, 2, 9, Fraction(1, 2) + Fraction(j, 200))
        for j in range(1001)
    ]
    assert peak_count(values) <= 1


def test_peak_count_on_constructed_sequences():
    assert peak_count([0.0, 1.0, 0.0, 1.0, 0.0]) == 2
    assert peak_count([0.0, 0.5, 1.0]) == 0
    assert peak_count([1.0, 0.5, 0.0]) == 0
    assert peak_count([0.0, 1.0, 0.0]) == 1
    wiggle = [0.0, 0.5, 0.5 + 1e-12, 0.5 - 1e-12, 1.0]
    assert peak_count(wiggle, tol=1e-10) == 0


# ---------------------------------------------------------------------------
# parameter space policy

def test_bernoulli_closed_endpoints_admitted():
    space = BERNOULLI.param_space
    assert space.admits(Fraction(0))
    assert space.admits(Fraction(1))
    assert not space.admits(Fraction(-1, 10))
    assert not space.admits(Fraction(11, 10))


def test_poisson_requires_positive_theta():
    assert not POISSON.param_space.admits(Fraction(0))
    assert POISSON.param_space.admits(Fraction(1, 10**9))
    with pytest.raises(DomainError):
        pmf("poisson", 3, Fraction(0), 0)


def test_param_space_describe():
    assert BERNOULLI.param_space.describe() == "[0, 1]"
    assert POISSON.param_space.describe() == "(0, inf)"


def test_theta_outside_space_rejected():
    with pytest.raises(DomainError):
        pmf("bernoulli", 5, Fraction(3, 2), 2)
    with pytest.raises(DomainError):
        prob_range("bernoulli", 5, 0, 5, Fraction(-1, 2))


# ---------------------------------------------------------------------------
# exactness of inputs

def test_float_theta_rejected():
    with pytest.raises(DomainError, match="binary float"):
        pmf("bernoulli", 5, 0.5, 2)


def test_bad_n_and_k_rejected():
    with pytest.raises(DomainError):
        prob_range("bernoulli", 0, 0, 0, Fraction(1, 2))
    with pytest.raises(DomainError):
        pmf("bernoulli", 5, Fraction(1, 2), "2")


# ---------------------------------------------------------------------------
# registry

def test_get_family_by_name():
    assert get_family("bernoulli") is BERNOULLI
    assert get_family("poisson") is POISSON
    assert set(available_families()) >= {"bernoulli", "poisson"}


def test_unknown_family_lists_known_names():
    with pytest.raises(DomainError, match="bernoulli"):
        get_family("geometric")


def test_register_custom_family(registry_snapshot):
    custom = DistributionFamily(
        name="fair-coin",
        param_space=ParamSpace(Fraction(1, 2), Fraction(1, 2), True, True),
        support_bound=lambda n: (0, n),
        log_pmf=lambda n, theta, k: BERNOULLI.log_pmf(n, 0.5, k),
    )
    register_family(custom)
    assert get_family("fair-coin") is custom
    assert prob_range("fair-coin", 2, 0, 2, Fraction(1, 2)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_unbounded_family_requires_tail_cutoff(registry_snapshot):
    headless = DistributionFamily(
        name="no-cutoff",
        param_space=ParamSpace(Fraction(0), None, False, False),
        support_bound=lambda n: (0, None),
        log_pmf=lambda n, theta, k: -float(k + 1),
    )
    with pytest.raises(DomainError, match="tail_cutoff"):
        register_family(headless)
