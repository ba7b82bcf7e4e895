"""Worst-case coverage minimization: fixed values, invariants, determinism."""

import dataclasses
import os
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsize import (
    BERNOULLI,
    POISSON,
    Absolute,
    DistributionFamily,
    DomainError,
    GridSpec,
    Mixed,
    RangePreserving,
    Relative,
    UNBIASED,
    coverage,
    grid_min_coverage,
    min_coverage,
)
from covsize.coverage import windows_at
from covsize.candidates import _spec
from covsize.families import prob_ranges, resolve_family
from covsize.minimize import _witness_minima, resolve_threads

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


@pytest.mark.parametrize("family, a, b, named", [
    ("bernoulli", F(1, 2), F(3, 2), "b=3/2"),
    ("poisson", F(0), F(2), "a=0"),
])
def test_endpoint_outside_parameter_space_is_named_by_both_entry_points(family, a, b, named):
    args = (family, 6, Absolute(F(1, 4)), UNBIASED, a, b)
    with pytest.raises(DomainError, match=f"interval endpoint {named} outside"):
        min_coverage(*args)
    with pytest.raises(DomainError, match=f"interval endpoint {named} outside"):
        grid_min_coverage(*args, GridSpec.divide(a, b, cells=10))


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


@pytest.mark.parametrize("threads", [2.5, True, "3"])
def test_resolve_threads_rejects_non_integers(threads):
    with pytest.raises(DomainError, match="must be an integer"):
        resolve_threads(threads)
    with pytest.raises(DomainError, match="must be an integer"):
        min_coverage("bernoulli", 5, Absolute(F(1, 4)), UNBIASED, F(0), F(1),
                     threads=threads)


# Poisson without its batch functions: every probability is a log-pmf sum
POISSON_LOG_PMF = DistributionFamily(
    name="poisson-log-pmf",
    param_space=POISSON.param_space,
    support_bound=POISSON.support_bound,
    log_pmf=POISSON.log_pmf,
    tail_cutoff=POISSON.tail_cutoff,
)


@pytest.mark.parametrize("family, n, criterion, estimator, a, b", [
    ("bernoulli", 101, Absolute(F(1, 10)), UNBIASED, F(0), F(1)),
    ("bernoulli", 96, Mixed(F(1, 10), F(1, 4)), RangePreserving(F(1, 20), F(19, 20)),
     F(1, 20), F(19, 20)),
    ("poisson", 65, Relative(F(1, 4)), UNBIASED, F(1), F(5)),
    ("poisson", 40, Absolute(F(1, 2)), UNBIASED, F(1), F(10)),
    (POISSON_LOG_PMF, 65, Relative(F(1, 4)), UNBIASED, F(1), F(5)),
], ids=["bernoulli-absolute", "bernoulli-rp-mixed", "poisson-relative",
        "poisson-absolute", "log-pmf-clone"])
def test_witness_values_equal_the_full_sweep_bit_for_bit(family, n, criterion, estimator,
                                                          a, b):
    # the witnesses of this one n: the candidates within WITNESS_RADIUS / n
    # of `near`, plus every endpoint and breakpoint
    full = min_coverage(family, n, criterion, estimator, a, b)
    values = dict(full.evaluations)
    spec = _spec(criterion, estimator, a, b)
    for near in (a, full.argmin_theta, (a + b) / 2, (a + 3 * b) / 4, b):
        block, witness, best = _witness_minima(resolve_family(family), spec, n, 1, near)
        thetas = block.thetas(np.arange(len(block.n)))
        assert len(thetas) < len(full.evaluations)
        assert witness.tolist() == [values[t] for t in thetas]
        assert witness[best[0]] >= full.min_coverage
        if near == full.argmin_theta:
            assert witness[best[0]] == full.min_coverage
            assert block.thetas(best)[0] == full.argmin_theta


def test_a_log_pmf_minimum_is_the_first_minimum_of_its_full_sums():
    """golden 101 on a Bernoulli clone without `cdf_batch`: `values`, read
    later, are an eager `prob_ranges` call's, and the minimum is theirs.

    The query is symmetric on [0, 1]: the clone's float sums break the exact
    mirror tie of the built-in family's argmin the other way (511/1010
    against 499/1010, as full sums did before the minimum was pruned).
    """
    clone = dataclasses.replace(BERNOULLI, cdf_batch=None)
    args = (101, Absolute(F(1, 10)), UNBIASED, F(0), F(1))
    report = min_coverage(clone, *args)
    assert "values" not in vars(report)
    cset = report.candidate_set
    windows = windows_at(cset.spec.windows, 101, cset.run, cset.k)
    eager = prob_ranges(clone, 101, cset.floats, *windows).tolist()
    assert report.values == tuple(eager)
    assert report.min_coverage == min(eager)
    assert report.argmin_theta == cset.thetas[eager.index(min(eager))]
    builtin = min_coverage("bernoulli", *args)
    assert {report.argmin_theta, 1 - report.argmin_theta} == {builtin.argmin_theta,
                                                              1 - builtin.argmin_theta}
    assert report.min_coverage == pytest.approx(builtin.min_coverage, abs=1e-13)


@pytest.mark.parametrize("family", ["bernoulli", "poisson"])
def test_a_builtin_report_evaluates_its_values_on_first_read(family):
    args = (101, Absolute(F(1, 10)), UNBIASED, F(1, 10), F(9, 10))
    report = min_coverage(family, *args)
    assert "values" not in vars(report)
    cset = report.candidate_set
    windows = windows_at(cset.spec.windows, 101, cset.run, cset.k)
    eager = prob_ranges(report.family, 101, cset.floats, *windows).tolist()
    assert report.values == tuple(eager)
    assert "values" in vars(report)
    assert report.min_coverage == min(eager)
    assert report.argmin_theta == cset.thetas[eager.index(min(eager))]


def test_a_log_pmf_minimum_sums_at_most_a_tenth_of_the_terms():
    # the full sums of this call take 203,411 log_pmf calls; the bounds on
    # blocks of rows leave 16,403 (62,090 with a bound per row only)
    calls = 0

    def log_pmf(n, theta, k):
        nonlocal calls
        calls += 1
        return BERNOULLI.log_pmf(n, theta, k)

    clone = dataclasses.replace(BERNOULLI, cdf_batch=None, log_pmf=log_pmf)
    report = min_coverage(clone, 900, Relative(F(1, 5)), UNBIASED, F(1, 10), F(9, 10))
    pruned = calls
    values = list(report.values)
    assert calls - pruned == 203_411
    assert pruned <= 0.1 * 203_411
    assert report.min_coverage == min(values)
    assert report.argmin_theta == report.candidate_set.thetas[values.index(min(values))]


def test_interval_must_sit_inside_family_support():
    with pytest.raises(DomainError):
        min_coverage("bernoulli", 5, Absolute(F(1, 4)), UNBIASED, F(1, 2), F(3, 2))
