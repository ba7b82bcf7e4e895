"""Coverage probabilities: windows, criteria, estimators, branch gluing."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covsize import (
    Absolute,
    DomainError,
    Mixed,
    RangePreserving,
    Relative,
    UNBIASED,
    acceptance_window,
    coverage,
    indicator_coverage,
)

from covsize._exact import exact
from covsize.coverage import acceptance_windows

from _reference import bernoulli_coverage

F = Fraction

thetas_01 = st.fractions(min_value=0, max_value=1, max_denominator=64)
margins = st.fractions(min_value=F(1, 40), max_value=F(3, 4), max_denominator=40)
rel_margins = st.fractions(min_value=F(1, 40), max_value=F(7, 8), max_denominator=40)


def criteria_strategy():
    absolute = margins.map(Absolute)
    relative = rel_margins.map(Relative)
    mixed = st.tuples(margins, rel_margins).map(lambda t: Mixed(*t))
    return st.one_of(absolute, relative, mixed)


# ---------------------------------------------------------------------------
# window formulas

# the unbiased windows [g, h] of the absolute and the relative criterion

def test_bounds_abs_fixed_values():
    assert acceptance_window(10, Absolute(F(3, 10)), UNBIASED, F(1, 2)) == (3, 7)
    assert acceptance_window(10, Absolute(F(1, 10)), UNBIASED, F(1, 10)) == (1, 1)
    assert acceptance_window(7, Absolute(F(1, 7)), UNBIASED, F(3, 7)) == (3, 3)


def test_bounds_rel_fixed_values():
    assert acceptance_window(10, Relative(F(1, 5)), UNBIASED, F(1, 2)) == (5, 5)
    assert acceptance_window(20, Relative(F(1, 10)), UNBIASED, F(1, 4)) == (5, 5)
    assert acceptance_window(12, Relative(F(1, 2)), UNBIASED, F(1)) == (7, 17)


def test_bounds_rel_requires_positive_theta():
    with pytest.raises(DomainError):
        acceptance_window(10, Relative(F(1, 5)), UNBIASED, F(0))


def test_bounds_helpers_take_the_criteria_domains():
    # the margins and theta of the unbiased windows are validated by the
    # criteria and by acceptance_window
    for bad in (F(0), F(-1, 10)):
        with pytest.raises(DomainError, match="positive"):
            acceptance_window(10, Absolute(bad), UNBIASED, F(1, 2))
    for bad in (F(0), F(1), F(3, 2)):
        with pytest.raises(DomainError, match=r"\(0, 1\)"):
            acceptance_window(10, Relative(bad), UNBIASED, F(1, 2))
    with pytest.raises(DomainError, match="binary float"):
        acceptance_window(10, Absolute(F(1, 10)), UNBIASED, 0.5)
    with pytest.raises(DomainError, match="binary float"):
        acceptance_window(10, Relative(F(1, 10)), UNBIASED, 0.5)


@given(n=st.integers(1, 50), eps=margins, theta=thetas_01)
def test_bounds_abs_window_is_exactly_the_strict_event(n, eps, theta):
    g, h = acceptance_window(n, Absolute(eps), UNBIASED, theta)
    for k in range(max(0, g - 2), h + 3):
        inside = abs(F(k, n) - theta) < eps
        assert inside == (g <= k <= h)


@given(
    n=st.integers(1, 50),
    eps=rel_margins,
    theta=st.fractions(min_value=F(1, 64), max_value=2, max_denominator=64),
)
def test_bounds_rel_window_is_exactly_the_strict_event(n, eps, theta):
    g, h = acceptance_window(n, Relative(eps), UNBIASED, theta)
    for k in range(max(0, g - 2), h + 3):
        inside = abs(F(k, n) - theta) < eps * theta
        assert inside == (g <= k <= h)


# ---------------------------------------------------------------------------
# criterion and estimator validation

def test_acceptance_windows_of_no_theta_are_empty_arrays():
    lo, hi, open_lo, open_hi = acceptance_windows(5, Absolute(F(1, 4)), UNBIASED, ())
    assert [(x.dtype, x.shape) for x in (lo, hi, open_lo, open_hi)] == [
        (np.int64, (0,)), (np.int64, (0,)), (bool, (0,)), (bool, (0,)),
    ]


def test_acceptance_windows_rejects_an_array_n():
    # one int n for every theta; a candidate set's rows with an n each read
    # the query's table through `windows_at`
    with pytest.raises(DomainError, match="positive integer"):
        acceptance_windows(np.array([3]), Absolute(F(1, 4)), UNBIASED, [F(1, 2)])


@pytest.mark.parametrize("entry", [acceptance_window, coverage, indicator_coverage])
@pytest.mark.parametrize("family, n, crit, theta", [
    ("bernoulli", 10**20, Absolute(F(1, 10)), F(1, 2)),
    ("bernoulli", 2 * 10**19, Absolute(F(1, 10)), F(1, 2)),  # hi = 1.2e19 - 1 only
    ("poisson", 10, Relative(F(1, 5)), F(10**30)),
])
def test_a_window_end_past_int64_is_a_domain_error(entry, family, n, crit, theta):
    args = (n, crit, UNBIASED, theta)
    with pytest.raises(DomainError, match="does not fit in int64"):
        entry(*args) if entry is acceptance_window else entry(family, *args)


def test_window_ends_just_inside_int64_are_python_int_windows():
    # both ends below 2**63, computed in Python ints
    assert acceptance_window(10**19, Absolute(F(1, 10)), UNBIASED, F(1, 2)) == (
        4 * 10**18 + 1, 6 * 10**18 - 1)


@pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN", "sNaN"])
def test_non_finite_decimals_are_domain_errors(text):
    with pytest.raises(DomainError, match="cannot parse"):
        exact(Decimal(text), name="eps")
    with pytest.raises(DomainError, match="eps"):
        Absolute(Decimal(text))


def test_criterion_validation():
    with pytest.raises(DomainError):
        Absolute(F(0))
    with pytest.raises(DomainError):
        Absolute(F(-1, 2))
    with pytest.raises(DomainError):
        Relative(F(0))
    with pytest.raises(DomainError):
        Relative(F(1))
    with pytest.raises(DomainError):
        Mixed(F(0), F(1, 2))
    with pytest.raises(DomainError):
        Mixed(F(1, 4), F(3, 2))


def test_mixed_crossover():
    assert Mixed(F(1, 4), F(1, 2)).crossover == F(1, 2)
    assert Mixed("0.3", "0.6").crossover == F(1, 2)


def test_estimator_validation():
    with pytest.raises(DomainError):
        RangePreserving(F(1, 2), F(1, 2))
    with pytest.raises(DomainError):
        RangePreserving(F(3, 4), F(1, 4))
    est = RangePreserving("0.25", "0.75")
    assert est.lower == F(1, 4) and est.upper == F(3, 4)


def test_float_inputs_rejected():
    with pytest.raises(DomainError, match="binary float"):
        Absolute(0.1)
    with pytest.raises(DomainError, match="binary float"):
        RangePreserving(0.1, 0.9)
    with pytest.raises(DomainError, match="binary float"):
        coverage("bernoulli", 5, Absolute(F(1, 4)), UNBIASED, 0.5)
    with pytest.raises(DomainError, match="theta: got a binary float"):
        acceptance_windows(5, Absolute(F(1, 4)), UNBIASED, [F(1, 2), 0.5])


def test_an_unsupported_type_is_a_domain_error():
    with pytest.raises(DomainError, match="theta: unsupported type object"):
        exact(object(), name="theta")


# ---------------------------------------------------------------------------
# fixed coverage values

def test_coverage_fixed_values():
    assert coverage(
        "bernoulli", 10, Absolute(F(3, 10)), UNBIASED, F(1, 2)
    ) == pytest.approx(912 / 1024, abs=1e-13)
    assert coverage(
        "bernoulli", 10, Relative(F(1, 5)), UNBIASED, F(1, 2)
    ) == pytest.approx(252 / 1024, abs=1e-13)


def test_coverage_certain_when_no_side_can_miss():
    est = RangePreserving(F(2, 5), F(3, 5))
    assert coverage("bernoulli", 10, Absolute(F(3, 10)), est, F(1, 2)) == 1.0


def test_empty_window_gives_zero():
    # no k/2 lies strictly within 1/4 of theta = 1/4
    assert coverage("bernoulli", 2, Absolute(F(1, 4)), UNBIASED, F(1, 4)) == 0.0


def test_lattice_hits_count_as_misses():
    # at eps = 1/10, theta = 1/2, n = 10 the estimates 0.4 and 0.6 sit exactly
    # on the margin and are excluded by strictness
    value = coverage("bernoulli", 10, Absolute(F(1, 10)), UNBIASED, F(1, 2))
    exact = bernoulli_coverage(10, Absolute(F(1, 10)), UNBIASED, F(1, 2))
    assert acceptance_window(10, Absolute(F(1, 10)), UNBIASED, F(1, 2)) == (5, 5)
    assert value == pytest.approx(float(exact), abs=1e-14)


# ---------------------------------------------------------------------------
# acceptance windows

def test_unbiased_window_matches_bounds():
    # k / 10 strictly inside (1/4, 3/4), and inside (2/5, 3/5)
    assert acceptance_window(10, Absolute(F(1, 4)), UNBIASED, F(1, 2)) == (3, 7)
    assert acceptance_window(10, Relative(F(1, 5)), UNBIASED, F(1, 2)) == (5, 5)


def test_range_preserving_window_shapes():
    est = RangePreserving(F(1, 10), F(9, 10))
    crit = Absolute(F(1, 4))
    # below a + eps the lower side cannot miss
    assert acceptance_window(10, crit, est, F(1, 5)) == (None, 4)
    # interior: both sides live
    assert acceptance_window(10, crit, est, F(1, 2)) == (3, 7)
    # above b - eps the upper side cannot miss
    assert acceptance_window(10, crit, est, F(4, 5)) == (6, None)
    # margin spanning the whole interval: nothing can miss
    wide = Absolute(F(1))
    assert acceptance_window(10, wide, est, F(1, 2)) == (None, None)


def test_window_rejects_bad_inputs():
    est = RangePreserving(F(1, 4), F(3, 4))
    with pytest.raises(DomainError):
        acceptance_window(10, Absolute(F(1, 8)), est, F(7, 8))
    with pytest.raises(DomainError):
        acceptance_window(0, Absolute(F(1, 8)), UNBIASED, F(1, 2))
    with pytest.raises(DomainError):
        acceptance_window(10, Relative(F(1, 2)), UNBIASED, F(0))


# ---------------------------------------------------------------------------
# mixed criterion dispatch

def test_mixed_margin_is_the_wider_one():
    crit = Mixed(F(1, 4), F(1, 2))  # crossover at 1/2
    below = F(3, 10)
    above = F(7, 10)
    assert acceptance_window(8, crit, UNBIASED, below) == acceptance_window(
        8, Absolute(F(1, 4)), UNBIASED, below
    )
    assert acceptance_window(8, crit, UNBIASED, above) == acceptance_window(
        8, Relative(F(1, 2)), UNBIASED, above
    )


def test_mixed_branches_coincide_at_crossover():
    crit = Mixed(F(3, 10), F(3, 5))
    c = crit.crossover
    w_mixed = acceptance_window(7, crit, UNBIASED, c)
    w_abs = acceptance_window(7, Absolute(crit.eps_abs), UNBIASED, c)
    w_rel = acceptance_window(7, Relative(crit.eps_rel), UNBIASED, c)
    assert w_mixed == w_abs == w_rel
    v_mixed = coverage("bernoulli", 7, crit, UNBIASED, c)
    v_abs = coverage("bernoulli", 7, Absolute(crit.eps_abs), UNBIASED, c)
    v_rel = coverage("bernoulli", 7, Relative(crit.eps_rel), UNBIASED, c)
    assert v_mixed == v_abs == v_rel


# ---------------------------------------------------------------------------
# clamp breakpoints carry the two-sided branch (closed endpoints)

def test_breakpoints_use_two_sided_window():
    est = RangePreserving(F(1, 5), F(4, 5))
    eps = F(1, 5)
    for theta in (est.lower + eps, est.upper - eps):
        lo, hi = acceptance_window(9, Absolute(eps), est, theta)
        assert lo is not None and hi is not None
        value = coverage("bernoulli", 9, Absolute(eps), est, theta)
        exact = bernoulli_coverage(9, Absolute(eps), est, theta)
        assert value == pytest.approx(float(exact), abs=1e-13)

    rel = Relative(F(1, 4))
    for theta in (est.lower / (1 - rel.eps), est.upper / (1 + rel.eps)):
        value = coverage("bernoulli", 9, rel, est, theta)
        exact = bernoulli_coverage(9, rel, est, theta)
        assert value == pytest.approx(float(exact), abs=1e-13)


def test_coinciding_breakpoints_still_two_sided():
    # a + eps == b - eps: both clamp activity conditions hold with equality
    est = RangePreserving(F(1, 2), F(1))
    theta = F(3, 4)
    lo, hi = acceptance_window(6, Absolute(F(1, 4)), est, theta)
    assert lo is not None and hi is not None
    value = coverage("bernoulli", 6, Absolute(F(1, 4)), est, theta)
    exact = bernoulli_coverage(6, Absolute(F(1, 4)), est, theta)
    assert value == pytest.approx(float(exact), abs=1e-13)


# ---------------------------------------------------------------------------
# full agreement with exact enumeration

@given(
    n=st.integers(1, 30),
    criterion=criteria_strategy(),
    theta=thetas_01,
)
def test_unbiased_coverage_matches_exact_enumeration(n, criterion, theta):
    if isinstance(criterion, (Relative, Mixed)) and theta == 0:
        theta = F(1, 64)
    value = coverage("bernoulli", n, criterion, UNBIASED, theta)
    exact = bernoulli_coverage(n, criterion, UNBIASED, theta)
    assert value == pytest.approx(float(exact), abs=1e-12)


@given(
    n=st.integers(1, 30),
    criterion=criteria_strategy(),
    frac=st.fractions(min_value=0, max_value=1, max_denominator=64),
)
def test_range_preserving_coverage_matches_exact_enumeration(n, criterion, frac):
    est = RangePreserving(F(1, 8), F(7, 8))
    theta = est.lower + frac * (est.upper - est.lower)
    value = coverage("bernoulli", n, criterion, est, theta)
    exact = bernoulli_coverage(n, criterion, est, theta)
    assert value == pytest.approx(float(exact), abs=1e-12)


# ---------------------------------------------------------------------------
# domain errors

def test_theta_outside_clamp_interval_rejected():
    est = RangePreserving(F(1, 4), F(3, 4))
    with pytest.raises(DomainError):
        coverage("bernoulli", 5, Absolute(F(1, 8)), est, F(9, 10))
    # the oracle checks its thetas against the clamp itself
    with pytest.raises(DomainError, match="theta=1/8 outside the range-preserving interval"):
        indicator_coverage("bernoulli", 5, Absolute(F(1, 8)), est, F(1, 8))


def test_relative_coverage_needs_positive_theta():
    with pytest.raises(DomainError):
        coverage("bernoulli", 5, Relative(F(1, 2)), UNBIASED, F(0))


def test_family_parameter_space_still_enforced():
    with pytest.raises(DomainError):
        coverage("poisson", 5, Absolute(F(1, 2)), UNBIASED, F(0))
