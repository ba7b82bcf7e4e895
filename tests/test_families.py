"""Distribution families: masses, range sums, truncation, registry."""

import dataclasses
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special as _sps

from covsize import (
    BERNOULLI,
    POISSON,
    UNBIASED,
    Absolute,
    DistributionFamily,
    DomainError,
    GridSpec,
    ParamSpace,
    RangePreserving,
    Relative,
    SampleSizeQuery,
    available_families,
    coverage,
    get_family,
    grid_min_coverage,
    indicator_coverage,
    min_coverage,
    min_sample_size,
    peak_count,
    pmf,
    prob_range,
    register_family,
)
from covsize import families
from covsize.families import (_BDTR_ERROR, _BOUND_ROWS, _PDTR_ERROR, _REGISTRY, _int64_ends,
                              cdf_error, prob_min, prob_ranges)
from covsize.candidates import _spec, candidate_set_for
from covsize.minimize import _rows, _witness_minima

from _reference import (PAIRS, PAST_TOP, bernoulli_coverage, binom_pmf, binom_range, cdf_draws,
                        cdf_error_of, poisson_pmf_dec, random_instance)

# log-pmf-only copies of the built-in families: every range probability is a pmf sum
PLAIN_BERNOULLI = dataclasses.replace(BERNOULLI, cdf_batch=None)
PLAIN_POISSON = dataclasses.replace(POISSON, cdf_batch=None)

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


@pytest.mark.parametrize("fam", [BERNOULLI, POISSON, PLAIN_BERNOULLI])
def test_prob_range_ends_past_int64_read_as_clipped(fam):
    # ends far outside the support read what the support's edges do; as an
    # int64 row, k = -2**63 would wrap lo - 1 to 2**63 - 1 and read nothing.
    # An unbounded support has no top edge to clip to: an end past int64
    # above its tail cutoff reads as 2**63 - 2 (pdtr(2**63 - 2, 2.4) is
    # exactly 1.0), and any other one is a DomainError, never a window cut
    # short at 2**63
    theta, huge = Fraction(2, 5), 10**30
    whole = prob_range(fam, 6, 0, None, theta)
    assert prob_range(fam, 6, -2**63, None, theta) == whole
    assert prob_range(fam, 6, -huge, 3, theta) == prob_range(fam, 6, 0, 3, theta)
    assert prob_range(fam, 6, 4, -huge, theta) == 0.0
    assert prob_range(fam, 6, -huge, huge, theta) == whole
    assert prob_range(fam, 6, 2, huge, theta) == prob_range(fam, 6, 2, None, theta)
    assert prob_range(fam, 6, huge, None, theta) == 0.0
    if fam is POISSON:
        # below the tail cutoff of a mean of 10**31: the first window holds
        # nearly all the mass, and read 0.0 once
        for k, l, name in ((10**31 - 10**29, 10**31 + 10**29, "k"), (0, 10**31 - 10**29, "l")):
            with pytest.raises(DomainError, match=f"^{name}=9900.* does not fit in int64"):
                prob_range(fam, 10, k, l, Fraction(10**30))
        # a mean past float range: no tail cutoff to compare an end with
        for k, l in ((2, 3), (huge, None)):
            with pytest.raises(DomainError, match="does not fit in a float"):
                prob_range(fam, 6, k, l, Fraction(10**400))


def test_a_closed_log_pmf_window_of_an_unbounded_support_stops_at_the_tail_cutoff():
    # summed to its end, a window to 10**7 took seconds and one to 10**18
    # never returned; past tail_cutoff(6, 2/5) = 105 the mass is negligible
    calls = 0

    def log_pmf(n, theta, k):
        nonlocal calls
        calls += 1
        return POISSON.log_pmf(n, theta, k)

    fam = dataclasses.replace(POISSON, cdf_batch=None, log_pmf=log_pmf)
    theta = Fraction(2, 5)
    cutoff = POISSON.tail_cutoff(6, float(theta))
    for top in (10**7, 10**18):
        calls = 0
        assert prob_range(fam, 6, 2, top, theta) == prob_range(fam, 6, 2, cutoff, theta)
        assert calls == 2 * (cutoff - 2 + 1)
    # a window above the cutoff keeps its first term
    calls = 0
    assert prob_range(fam, 6, cutoff + 5, 10**18, theta) == math.exp(
        POISSON.log_pmf(6, float(theta), cutoff + 5))
    assert calls == 1


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


def test_log_pmf_sum_matches_exact_binomial_range():
    # a width-80 window summed term by term from the log-pmf, against the
    # exact rational sum (log-gamma rounding leaves a few ulps per term)
    n, theta = 200, Fraction(1, 2)
    lo, hi = 60, 139
    total = prob_range(PLAIN_BERNOULLI, n, lo, hi, theta)
    assert total == pytest.approx(float(binom_range(n, lo, hi, theta)), abs=5e-13)


def test_log_pmf_sum_is_one_over_the_whole_support_and_never_above():
    # log-gamma rounding can sum the whole support to a few ulps above 1
    assert prob_range(PLAIN_BERNOULLI, 5, 0, None, Fraction(1, 2)) == 1.0
    assert prob_range(PLAIN_BERNOULLI, 5, -3, 9, Fraction(1, 2)) == 1.0
    assert prob_range(PLAIN_POISSON, 3, 0, None, Fraction(4, 3)) == 1.0
    # a clamp wide enough that every outcome is accepted
    crit, est = Absolute(Fraction(1, 2)), RangePreserving(Fraction(2, 5), Fraction(3, 5))
    assert indicator_coverage(PLAIN_BERNOULLI, 7, crit, est, Fraction(1, 2)) == 1.0
    assert coverage(PLAIN_BERNOULLI, 7, crit, est, Fraction(1, 2)) == 1.0
    # windows just short of the support, summed to within an ulp of 1
    report = min_coverage(PLAIN_BERNOULLI, 400, Relative(Fraction(1, 5)), UNBIASED,
                          Fraction(1, 10), Fraction(9, 10))
    assert max(report.values) <= 1.0


def _bimodal_log_pmf(n, theta, k):
    # theta * binomial(n, 1/50) + (1 - theta) * binomial(n, 49/50): the mass
    # sits near 0 and n, far from n * theta
    p = (theta * math.exp(BERNOULLI.log_pmf(n, 0.02, k))
         + (1 - theta) * math.exp(BERNOULLI.log_pmf(n, 0.98, k)))
    return math.log(p) if p > 0 else -math.inf


BIMODAL = DistributionFamily(name="bimodal", param_space=BERNOULLI.param_space,
                             support_bound=BERNOULLI.support_bound, log_pmf=_bimodal_log_pmf)


@st.composite
def prob_rows(draw):
    """(family, n, thetas, lo, hi) of either kind of family with empty
    windows, whole-support rows, open sides (ends -PAST_TOP and PAST_TOP)
    and duplicated rows, or no rows at all, n one int or one per row."""
    fam = draw(st.sampled_from([PLAIN_BERNOULLI, PLAIN_POISSON, BIMODAL, BERNOULLI, POISSON]))
    top_theta = 4 if fam.name == "poisson" else 1
    rows = draw(st.lists(st.tuples(
        st.integers(1, 60),
        st.integers(0 if top_theta == 1 else 1, 40 * top_theta).map(lambda x: x / 40),
        st.integers(-3, 70) | st.just(-PAST_TOP), st.integers(-4, 70) | st.just(PAST_TOP)),
        max_size=12))
    if not rows:
        empty = np.zeros(0, int)
        return fam, empty, np.zeros(0), empty, empty
    rows += draw(st.lists(st.sampled_from(rows), max_size=6))  # ties
    rows = draw(st.permutations(rows))
    n, thetas, lo, hi = (np.array(x) for x in zip(*rows))
    return fam, n if draw(st.booleans()) else int(n[0]), thetas, lo, hi


@settings(max_examples=400, deadline=None)
@given(prob_rows())
# the rows sum to the same float, the later rows, nearer their window's lower
# end, are visited first, and a naive sum of each overshoots its fsum
@example((PLAIN_POISSON, 20, np.full(3, 3.575), np.array([1, 2, 3]), np.full(3, PAST_TOP)))
# no rows, for both kinds, with one n and with one per row
@example((POISSON, 20, np.zeros(0), np.zeros(0, int), np.zeros(0, int)))
@example((PLAIN_POISSON, np.zeros(0, int), np.zeros(0), np.zeros(0, int), np.zeros(0, int)))
def test_prob_min_is_the_first_minimum_of_the_full_sums(args):
    values = prob_ranges(*args).tolist()
    expected = (min(values), values.index(min(values))) if values else (math.inf, -1)
    assert prob_min(*args) == expected


# ---------------------------------------------------------------------------
# the branch and bound of `prob_min` over the rows of a full sweep


def first_minimum(fam, rows):
    """min(prob_ranges(...)) as hex and the first row that has it."""
    values = prob_ranges(fam, *rows)
    return values.min().hex(), int(values.argmin())


def counted_cdf_values(monkeypatch):
    """The sizes of the CDF blocks that `families._cdf_ends` reads, call by call."""
    sizes = []
    real = families._cdf_ends

    def counting(*args, **kwargs):
        cdf = real(*args, **kwargs)
        sizes.append(cdf.size)
        return cdf

    monkeypatch.setattr(families, "_cdf_ends", counting)
    return sizes


def sweep_rows(family, n, criterion, estimator, a, b):
    """The family and `prob_ranges`' arguments of the full sweep at n."""
    return get_family(family), _rows(n, candidate_set_for(n, criterion, estimator, a, b))


SWEEPS = [
    # golden 901 and golden 156 at n_min - 1 and n_min
    *(("bernoulli", n, Relative(Fraction(1, 5)), UNBIASED, Fraction(1, 10), Fraction(9, 10))
      for n in (900, 901)),
    *(("poisson", n, Absolute(Fraction(1, 2)), UNBIASED, Fraction(1), Fraction(10))
      for n in (155, 156)),
    ("bernoulli", 9622, Absolute(Fraction(1, 100)), UNBIASED, Fraction(0), Fraction(1)),
]


@pytest.mark.parametrize("sweep", SWEEPS, ids=["901-at-900", "901", "156-at-155", "156",
                                               "absolute-1/100-at-9622"])
def test_bounded_minimum_is_the_first_minimum_of_every_row(monkeypatch, sweep):
    fam, rows = sweep_rows(*sweep)
    assert len(rows[1]) >= _BOUND_ROWS
    expected = first_minimum(fam, rows)
    sizes = counted_cdf_values(monkeypatch)
    value, row = prob_min(fam, *rows)
    assert (value.hex(), row) == expected
    # by levels, and fewer CDF values than the two of every row
    assert len(sizes) > 1 and sum(sizes) < 2 * len(rows[1])


@st.composite
def large_sweeps(draw):
    """A full sweep of either family and any of the six pairs, drawn as
    criterion 1 draws its instances but at an n that gives 1024 to about
    30,000 candidates."""
    family = draw(st.sampled_from(["bernoulli", "poisson"]))
    pair = draw(st.sampled_from(PAIRS))
    _, *query = random_instance(random.Random(draw(st.integers(0, 2**32))), pair, family)
    per_100 = len(candidate_set_for(100, *query))
    n = min(max(draw(st.integers(_BOUND_ROWS, 30_000)) * 100 // per_100, 2), 20_000)
    return (family, n, *query)


@settings(max_examples=60, deadline=None)
@given(large_sweeps())
def test_bounded_minimum_equals_every_row_on_large_sweeps(sweep):
    fam, rows = sweep_rows(*sweep)
    assume(len(rows[1]) >= _BOUND_ROWS)
    # a candidate set's windows do not decrease in theta: the bound applies
    for x in rows[1:]:
        assert (x[1:] >= x[:-1]).all()
    value, row = prob_min(fam, *rows)
    assert (value.hex(), row) == first_minimum(fam, rows)


def test_rows_out_of_order_are_all_evaluated(monkeypatch):
    fam, (n, thetas, lo, hi) = sweep_rows(*SWEEPS[1])
    shuffled = np.random.default_rng(7).permutation(len(thetas))
    # thetas ascending, but two windows swapped: their ends decrease somewhere
    swapped = np.arange(len(thetas))
    swapped[[100, 700]] = 700, 100
    cases = [(thetas[shuffled], lo[shuffled], hi[shuffled]),
             (thetas[::-1], lo[::-1], hi[::-1]),
             (thetas, lo[swapped], hi[swapped])]
    for rows in cases:
        expected = first_minimum(fam, (n, *rows))
        sizes = counted_cdf_values(monkeypatch)
        value, row = prob_min(fam, n, *rows)
        assert (value.hex(), row) == expected
        assert sizes == [2 * len(thetas)]


NAN_AT_HALF = dataclasses.replace(
    PLAIN_BERNOULLI, name="nan-at-half",
    log_pmf=lambda n, theta, k: math.nan if k == n // 2 else BERNOULLI.log_pmf(n, theta, k))


def test_a_nan_probability_raises_domain_error_naming_where():
    half = np.array([0.5])
    rows = np.array([3]), np.array([9])
    with pytest.raises(DomainError, match=r"'nan-at-half' gave a NaN probability at "
                                          r"n=12, theta=0\.5, k=6"):
        prob_ranges(NAN_AT_HALF, 12, half, *rows)
    with pytest.raises(DomainError, match=r"at n=12, theta=0\.5, k=6"):
        prob_min(NAN_AT_HALF, 12, half, *rows)
    nan_cdf = dataclasses.replace(
        BERNOULLI, name="nan-cdf",
        cdf_batch=lambda n, theta, k: np.where(k == 9, np.nan, _sps.bdtr(k, n, theta)))
    with pytest.raises(DomainError, match=r"'nan-cdf' gave a NaN probability at "
                                          r"n=12, theta=0\.5, k=9"):
        prob_ranges(nan_cdf, 12, half, *rows)
    # through the public entry points: a minimum and a search
    with pytest.raises(DomainError, match=r"'nan-at-half' gave a NaN probability at n=20, "
                                          r"theta=0\.5, k=10"):
        min_coverage(NAN_AT_HALF, 20, Absolute(Fraction(1, 10)), UNBIASED, 0, 1)
    query = SampleSizeQuery(NAN_AT_HALF, Absolute(Fraction(1, 10)), UNBIASED, Fraction(0),
                            Fraction(1), Fraction(1, 20))
    with pytest.raises(DomainError, match="'nan-at-half' gave a NaN probability"):
        min_sample_size(query)


def test_a_nan_cdf_raises_domain_error_at_every_scalar_entry():
    # the accepted outcomes at n = 12, theta = 1/2 under |k/12 - 1/2| < 1/4
    # are 4..8: every entry reads F(3) first
    nan_cdf = dataclasses.replace(
        BERNOULLI, name="nan-cdf",
        cdf_batch=lambda n, theta, k: np.where(theta == 0.5, np.nan, _sps.bdtr(k, n, theta)))
    crit, half = Absolute(Fraction(1, 4)), Fraction(1, 2)
    for entry in (lambda: prob_range(nan_cdf, 12, 4, 8, half),
                  lambda: coverage(nan_cdf, 12, crit, UNBIASED, half),
                  lambda: indicator_coverage(nan_cdf, 12, crit, UNBIASED, half)):
        with pytest.raises(DomainError, match=r"'nan-cdf' gave a NaN probability at "
                                              r"n=12, theta=0\.5, k=3\b"):
            entry()


def _no_empty_ask(n, theta, k):
    # a custom CDF need not accept an empty batch
    if not np.size(k):
        raise ValueError("cdf_batch asked for no value")
    return _sps.bdtr(k, n, theta)


def test_cdf_batch_is_never_asked_for_no_value():
    fam = dataclasses.replace(BERNOULLI, name="no-empty-ask", cdf_batch=_no_empty_ask)
    whole = np.array([0]), np.array([12])
    assert prob_ranges(fam, 12, np.array([0.5]), *whole).tolist() == [1.0]
    # every clamped estimate at n = 11 to 13 is within 3/5 of theta: every
    # window is the whole support, and no CDF value is read
    a, b = Fraction(1, 5), Fraction(4, 5)
    args = Absolute(Fraction(7, 10)), RangePreserving(a, b), a, b
    assert grid_min_coverage(fam, 11, *args, GridSpec.divide(a, b)) == (1.0, a)
    assert min_coverage(fam, 11, *args).min_coverage == 1.0
    _, values, _ = _witness_minima(fam, _spec(*args), 11, 3, Fraction(1, 2))
    assert len(values) and (values == 1.0).all()


def test_log_pmf_batch_is_not_accepted():
    # a family gives log_pmf and, optionally, cdf_batch; there is no batched log-pmf
    with pytest.raises(TypeError, match="log_pmf_batch"):
        DistributionFamily(
            name="batched", param_space=BERNOULLI.param_space,
            support_bound=BERNOULLI.support_bound, log_pmf=BERNOULLI.log_pmf,
            log_pmf_batch=lambda n, theta, ks: ks,
        )


@pytest.mark.parametrize("fam", [BERNOULLI, POISSON, PLAIN_BERNOULLI, PLAIN_POISSON])
def test_prob_range_is_bit_equal_to_a_prob_ranges_row(fam):
    # coverage(), indicator_coverage and min_coverage agree with == only if
    # the scalar call and a batched row give the same float; the Poisson
    # windows with l = None run through tail_cutoff on the log-pmf path
    n = 37
    thetas = [Fraction(j, 46) for j in range(47)] if fam.name == "bernoulli" else [
        Fraction(j, 23) for j in range(1, 70)]
    windows = [(k, l) for k in range(-3, 45, 4) for l in (None, *range(k - 2, 48, 5))]
    rows = [(t, k, l) for t in thetas for k, l in windows]
    batch = prob_ranges(
        fam, n, np.array([float(t) for t, _, _ in rows]),
        np.array([k for _, k, _ in rows]),
        np.array([PAST_TOP if l is None else l for _, _, l in rows]),
    )
    scalar = [prob_range(fam, n, k, l, t) for t, k, l in rows]
    assert scalar == batch.tolist()


@pytest.mark.parametrize("fam", [BERNOULLI, POISSON, PLAIN_BERNOULLI, PLAIN_POISSON],
                         ids=["bernoulli", "poisson", "log-pmf-bernoulli", "log-pmf-poisson"])
def test_an_open_side_reads_as_its_end_past_the_support(fam):
    # hi = PAST_TOP is prob_range's l=None and, on a bounded support, hi =
    # kmax; lo = -PAST_TOP is lo = kmin: the same float, bit for bit
    n = 37
    thetas = [Fraction(j, 46) for j in range(47)] if fam.name == "bernoulli" else [
        Fraction(j, 23) for j in range(1, 70)]
    floats = np.array([float(t) for t in thetas])
    kmin, kmax = fam.support_bound(n)

    def hexes(lo, hi):
        ends = (np.full(len(thetas), x) for x in (lo, hi))
        return [x.hex() for x in prob_ranges(fam, n, floats, *ends).tolist()]

    for k in (-PAST_TOP, *range(-3, 45, 4)):
        open_top = hexes(k, PAST_TOP)
        assert open_top == [prob_range(fam, n, max(k, kmin), None, t).hex() for t in thetas]
        if kmax is not None:
            assert open_top == hexes(k, kmax)
    for l in (PAST_TOP, *range(-3, 60, 4)):
        assert hexes(-PAST_TOP, l) == hexes(kmin, l)
    assert set(hexes(-PAST_TOP, PAST_TOP)) == {(1.0).hex()}
    # a closed end can never read as an open side
    with pytest.raises(DomainError, match="does not fit in int64"):
        _int64_ends(np.array([0, -PAST_TOP], object))
    assert _int64_ends(np.array([1 - PAST_TOP, PAST_TOP - 1], object))[0].tolist() == [
        1 - PAST_TOP, PAST_TOP - 1]


def two_cdf(fam, n, theta, lo, hi, top):
    """A prob_ranges row as F(min(hi, kmax)) - F(max(lo, kmin) - 1), read from
    the library CDF at every k up to kmax, F(k < 0) = 0, an open top as 1
    (lo may be -PAST_TOP, an open bottom)."""
    cdf = ((lambda k: _sps.bdtr(min(k, n), n, theta)) if fam.name == "bernoulli"
           else (lambda k: _sps.pdtr(k, n * theta)))
    lo, hi = max(lo, 0), min(hi, n) if fam.name == "bernoulli" else hi
    if not top and hi < lo:
        return 0.0
    return max((1.0 if top else float(cdf(hi))) - (float(cdf(lo - 1)) if lo else 0.0), 0.0)


@pytest.mark.parametrize("fam", [BERNOULLI, POISSON])
def test_prob_ranges_asks_cdf_batch_only_for_values_it_reads(fam):
    # rows with lo <= kmin, hi >= kmax, an open side or an empty window, one
    # n per row: F(k < kmin) is 0 and F(k >= kmax) is 1 without asking, and
    # an open side's value is never asked for
    asked = []

    def recording(n, thetas, ks):
        asked.append((np.broadcast_to(n, ks.shape).copy(), ks.copy()))
        return fam.cdf_batch(n, thetas, ks)

    rng = random.Random(20261019)
    rows = []
    for _ in range(600):
        n = rng.randint(1, 40)
        lo = rng.randint(-3, n + 3)
        hi = rng.randint(lo - 3, n + 3)
        rows.append((n, rng.uniform(0.01, 0.99) * (1 if fam.name == "bernoulli" else 4),
                     -PAST_TOP if rng.random() < 0.1 else lo, hi, rng.random() < 0.25))
    n, thetas, lo, hi, top = map(np.array, zip(*rows))
    ends = lo, np.where(top, PAST_TOP, hi)
    got = prob_ranges(dataclasses.replace(fam, cdf_batch=recording), n, thetas, *ends)
    assert got.tolist() == [two_cdf(fam, *row) for row in rows]
    ns, ks = map(np.concatenate, zip(*asked))
    bounded = fam.name == "bernoulli"
    assert (ks >= 0).all() and (not bounded or (ks < ns).all())
    kmax = n if bounded else np.inf
    # at most one value per CDF read: F(lo - 1) inside the support, F(hi) of a closed row
    assert len(ks) <= ((lo >= 1) & (lo - 1 < kmax)).sum() + (~top & (hi < kmax)).sum()
    kinds = [lo <= 0, ~top & (hi >= n), top, lo == -PAST_TOP, ~top & (hi < lo)]
    assert all(kind.sum() >= 50 for kind in kinds)
    # an empty window is 0.0 even where the CDF's floats are not monotone
    empty = kinds[-1]
    falling = dataclasses.replace(fam, cdf_batch=lambda n, thetas, ks: 1.0 - ks / 100.0)
    assert not prob_ranges(falling, n[empty], thetas[empty], lo[empty], hi[empty]).any()


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


@pytest.mark.parametrize("family, bands", [("bernoulli", _BDTR_ERROR), ("poisson", _PDTR_ERROR)])
def test_cdf_error_bounds_the_error_of_the_built_in_cdfs(family, bands):
    # a seeded sample per band, not the one the table was measured on:
    # theta anywhere, near 0 and 1 and at grid rows, k anywhere, at window
    # ends and in both far tails, against the exact CDF at the float theta
    fam = get_family(family)
    rng = random.Random(20261021)
    low = 0
    for top, entry in bands:
        sample = cdf_draws(rng, family, low, top, 120)
        n, theta, k = (np.array(x) for x in zip(*sample))
        for draw, value in zip(sample, fam.cdf_batch(n, theta, k).tolist()):
            assert cdf_error(fam, *draw[:2]) == entry, (draw, top)
            assert cdf_error_of(family, *draw, value) <= entry, (draw, value)
        low = top


# past the table the bounded minimum prunes by the assumed _PRUNE_MARGIN:
# sound while 4 * error + 2**-52 stays below it.  The n of the large sweeps
# the tests and searches make, and Poisson means past 4096
@pytest.mark.parametrize("family, low, top, count", [
    ("bernoulli", 9621, 9622, 40), ("bernoulli", 86_550, 86_551, 40),
    ("poisson", 4096, 50_000, 10)])
def test_the_assumed_prune_margin_covers_the_cdf_error_past_the_table(family, low, top, count):
    fam = get_family(family)
    sample = cdf_draws(random.Random(20261022), family, low, top, count)
    n, theta, k = (np.array(x) for x in zip(*sample))
    for draw, value in zip(sample, fam.cdf_batch(n, theta, k).tolist()):
        assert cdf_error(fam, *draw[:2]) is None
        error = cdf_error_of(family, *draw, value)
        assert 4 * Fraction(error) + Fraction(1, 2**52) <= families._PRUNE_MARGIN, (draw, value)


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


def test_a_family_needs_a_name():
    with pytest.raises(DomainError, match="family name must be nonempty"):
        dataclasses.replace(BERNOULLI, name="")


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


@pytest.mark.parametrize("family", [
    BERNOULLI, POISSON, dataclasses.replace(BERNOULLI, cdf_batch=None),
], ids=["bernoulli", "poisson", "log-pmf-sum"])
@pytest.mark.parametrize("k, l", [
    (2.5, 5), (True, 5), ("2", 5), (3, 5.0), (3, False), (3, "5"), (2.5, None),
])
def test_prob_range_rejects_non_integer_window(family, k, l):
    # a float k once widened the window: k = 2.5 gave Pr{2 <= Y <= 5}
    with pytest.raises(DomainError, match="must be an integer"):
        prob_range(family, 10, k, l, Fraction(1, 2))


# ---------------------------------------------------------------------------
# registry

def test_get_family_by_name():
    assert get_family("bernoulli") is BERNOULLI
    assert get_family("poisson") is POISSON
    assert set(available_families()) >= {"bernoulli", "poisson"}


def test_unknown_family_lists_known_names():
    with pytest.raises(DomainError, match="bernoulli"):
        get_family("geometric")


@pytest.mark.parametrize("family", [123, BERNOULLI.param_space], ids=["int", "param-space"])
@pytest.mark.parametrize("entry", [
    lambda fam, crit: min_coverage(fam, 10, crit, UNBIASED, 0, 1),
    lambda fam, crit: coverage(fam, 10, crit, UNBIASED, Fraction(1, 2)),
    lambda fam, crit: grid_min_coverage(fam, 10, crit, UNBIASED, Fraction(0), Fraction(1),
                                        GridSpec(Fraction(1, 100))),
    lambda fam, crit: prob_range(fam, 10, 2, 5, Fraction(1, 2)),
    lambda fam, crit: min_sample_size(SampleSizeQuery(fam, crit, UNBIASED, Fraction(0),
                                                      Fraction(1), Fraction(1, 20))),
], ids=["min_coverage", "coverage", "grid_min_coverage", "prob_range", "min_sample_size"])
def test_an_object_that_is_not_a_family_is_a_domain_error(entry, family):
    with pytest.raises(DomainError, match="family must be a name or a DistributionFamily"):
        entry(family, Absolute(Fraction(1, 10)))


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
