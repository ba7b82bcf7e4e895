"""Worst-case coverage minimization: fixed values, invariants, determinism."""

import os
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsize import (
    Absolute,
    DomainError,
    Mixed,
    RangePreserving,
    Relative,
    UNBIASED,
    coverage,
    min_coverage,
)
from covsize.minimize import resolve_threads

from _reference import bernoulli_coverage

F = Fraction


def test_zero_coverage_instance():
    # n=2, margin 1/4 on [0, 1]: at theta = 1/4 both estimates 0/2 and 1/2
    # miss by exactly the margin, and 2/2 misses outright
    report = min_coverage("bernoulli", 2, Absolute(F(1, 4)), UNBIASED, F(0), F(1))
    assert report.min_coverage == 0.0
    assert report.argmin_theta == F(1, 4)


def test_huge_margin_unbiased():
    report = min_coverage("bernoulli", 5, Absolute(F(3)), UNBIASED, F(0), F(1))
    assert report.min_coverage == 1.0


def test_degenerate_range_preserving_is_exactly_one():
    est = RangePreserving(F(2, 5), F(3, 5))
    report = min_coverage(
        "bernoulli", 6, Absolute(F(1, 2)), est, F(2, 5), F(3, 5)
    )
    assert report.min_coverage == 1.0
    assert report.argmin_theta == F(2, 5)  # ties break toward the smallest theta
    assert all(v == 1.0 for _, v in report.evaluations)


def test_report_invariants():
    report = min_coverage(
        "bernoulli", 12, Relative(F(1, 4)), UNBIASED, F(1, 5), F(9, 10)
    )
    thetas = [t for t, _ in report.evaluations]
    assert thetas == [p.theta for p in report.candidate_set.points]
    values = dict(report.evaluations)
    assert report.min_coverage == min(values.values())
    assert values[report.argmin_theta] == report.min_coverage
    assert report.argmin_theta == min(
        t for t, v in values.items() if v == report.min_coverage
    )
    assert report.n == 12


@settings(max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=40),
    eps_num=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_argmin_is_a_one_sided_floor(n, eps_num, seed):
    """No interior theta near the argmin may dip below the reported minimum.

    Coverage is piecewise constant in the acceptance window between candidate
    points, so probing just off the argmin (within the neighbouring pieces)
    must never find lower coverage than the reported worst case.
    """
    import random

    rng = random.Random(seed)
    crit = Absolute(F(eps_num, 24)) if seed % 2 else Relative(F(eps_num, 13))
    a = F(rng.randrange(1, 8), 16)
    b = a + F(rng.randrange(2, 8), 16)
    report = min_coverage("bernoulli", n, crit, UNBIASED, a, b)
    t = report.argmin_theta
    wiggle = F(1, 10**9)
    for probe in (t - wiggle, t + wiggle):
        if a <= probe <= b:
            c = coverage("bernoulli", n, crit, UNBIASED, probe)
            assert c >= report.min_coverage - 1e-8


def test_golden_101_argmin_has_an_exact_mirror_tie():
    """Ties break among float-equal values; exact ties can fall either way.

    The absolute margin on [0, 1] is symmetric under theta -> 1 - theta, so
    the worst case at the n_min of golden 101 is attained at a mirror pair
    with equal exact coverage, and which one is reported depends on the last
    bits of the two floats.
    """
    crit = Absolute(F(1, 10))
    report = min_coverage("bernoulli", 101, crit, UNBIASED, F(0), F(1))
    values = dict(report.evaluations)
    theta, mirror = report.argmin_theta, 1 - report.argmin_theta
    assert mirror != theta and mirror in values
    exact = bernoulli_coverage(101, crit, UNBIASED, theta)
    assert bernoulli_coverage(101, crit, UNBIASED, mirror) == exact
    assert report.min_coverage == pytest.approx(float(exact), abs=1e-13)
    assert values[mirror] == pytest.approx(float(exact), abs=1e-13)


def test_thread_count_does_not_change_bits():
    args = ("bernoulli", 37, Mixed(F(1, 8), F(1, 3)), UNBIASED, F(1, 10), F(9, 10))
    r1 = min_coverage(*args, threads=1)
    r4 = min_coverage(*args, threads=4)
    assert r1.evaluations == r4.evaluations
    assert r1.min_coverage == r4.min_coverage
    assert r1.argmin_theta == r4.argmin_theta
    with mock.patch.dict(os.environ, {"COVSIZE_THREADS": "3"}):
        renv = min_coverage(*args)
    assert renv.evaluations == r1.evaluations


def test_poisson_needs_positive_lower_endpoint_for_relative():
    with pytest.raises(DomainError):
        min_coverage("poisson", 5, Relative(F(1, 4)), UNBIASED, F(0), F(2))


def test_resolve_threads():
    assert resolve_threads(2) == 2
    with mock.patch.dict(os.environ, {"COVSIZE_THREADS": "5"}):
        assert resolve_threads(None) == 5
    with mock.patch.dict(os.environ, {}, clear=True):
        assert resolve_threads(None) == 1
    with mock.patch.dict(os.environ, {"COVSIZE_THREADS": "zero"}):
        with pytest.raises(DomainError, match="integer"):
            resolve_threads(None)
    with pytest.raises(DomainError, match=">= 1"):
        resolve_threads(0)


def test_interval_must_sit_inside_family_support():
    with pytest.raises(DomainError):
        min_coverage("bernoulli", 5, Absolute(F(1, 4)), UNBIASED, F(1, 2), F(3, 2))
