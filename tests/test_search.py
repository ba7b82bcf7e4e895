"""Sample-size search: strictness, trace integrity, guard band, validation."""

import hashlib
from fractions import Fraction

import pytest

from covsize import (
    Absolute,
    DomainError,
    Mixed,
    RangePreserving,
    Relative,
    SampleSizeQuery,
    SampleSizeResult,
    UNBIASED,
    coverage,
    min_coverage,
    min_sample_size,
)
from covsize import search
from covsize.search import BLOCK_GROWTH, BLOCK_MAX

F = Fraction


def bernoulli_abs_query(**overrides):
    base = dict(
        family="bernoulli",
        criterion=Absolute(F(1, 4)),
        estimator=UNBIASED,
        a=F(0),
        b=F(1),
        delta=F(1, 10),
        n_start=2,
        n_max=500,
    )
    base.update(overrides)
    return SampleSizeQuery(**base)


def test_trace_is_gapless_and_consistent():
    result = min_sample_size(bernoulli_abs_query())
    assert result.found
    ns = [n for n, _, _ in result.trace]
    assert ns == list(range(2, result.n_min + 1))
    # every rejected n really fails the strict comparison, the answer passes
    threshold = float(1 - F(1, 10))
    for n, cov, argmin in result.trace[:-1]:
        assert cov <= threshold
    final_n, final_cov, final_argmin = result.trace[-1]
    assert final_n == result.n_min
    assert final_cov == result.coverage_at_n_min
    assert final_cov > threshold
    assert final_argmin == result.argmin_theta


def test_trace_matches_direct_minimization():
    result = min_sample_size(bernoulli_abs_query(), full_trace=True)
    for n, cov, argmin in result.trace:
        report = min_coverage(
            "bernoulli", n, Absolute(F(1, 4)), UNBIASED, F(0), F(1)
        )
        assert report.min_coverage == cov
        assert report.argmin_theta == argmin


# the second query's witnesses lie above the full minimum at some n
@pytest.mark.parametrize("query", [
    bernoulli_abs_query(),
    SampleSizeQuery(family="poisson", criterion=Relative(F(1, 8)), estimator=UNBIASED,
                    a=F(1, 2), b=F(2), delta=F(1, 4), n_start=2, n_max=500),
    # a lattice step near 2**84 that neither the whole set nor a witness
    # block may put in an int64 array
    SampleSizeQuery(family="bernoulli", criterion=Relative(1 - F(1, 2**40)),
                    estimator=UNBIASED, a=F(1, 10), b=F(9, 10), delta=F(1, 10), n_start=2,
                    n_max=600),
], ids=["bernoulli-absolute", "poisson-relative", "relative-step-2**84"])
def test_default_trace_holds_witnesses_bounded_by_full_minima(query):
    result = min_sample_size(query)
    threshold = float(1 - query.delta)
    args = (query.criterion, query.estimator, query.a, query.b)
    above = 0
    for n, cov, theta in result.trace:
        report = min_coverage(query.family, n, *args)
        assert cov >= report.min_coverage
        assert cov == coverage(query.family, n, query.criterion, query.estimator, theta)
        above += cov > report.min_coverage
    assert all(cov <= threshold for _, cov, _ in result.trace[:-1])
    for n, cov, theta in result.trace[-2:]:
        report = min_coverage(query.family, n, *args)
        assert (cov, theta) == (report.min_coverage, report.argmin_theta)
    if query.family == "poisson":
        assert above > 0  # so the lower bound is exercised


def test_full_sweeps_count_the_whole_set_evaluations():
    query = bernoulli_abs_query()
    result = min_sample_size(query)
    assert result.full_sweeps == (2, result.n_min - 1, result.n_min)
    full = min_sample_size(query, full_trace=True)
    assert full.full_sweeps == tuple(range(2, full.n_min + 1))
    assert (full.n_min, full.argmin_theta) == (result.n_min, result.argmin_theta)
    assert "full_sweeps" not in repr(result)


@pytest.mark.slow
def test_epsilon_one_hundredth_query_takes_three_full_sweeps():
    crit = Absolute(F(1, 100))
    query = SampleSizeQuery(family="bernoulli", criterion=crit, estimator=UNBIASED,
                            a=F(0), b=F(1), delta=F(1, 20), n_start=2, n_max=20_000)
    result = min_sample_size(query)
    assert result.n_min == 9651
    assert len(result.full_sweeps) <= 3
    before = min_coverage("bernoulli", 9650, crit, UNBIASED, F(0), F(1))
    assert result.trace[-2] == (9650, before.min_coverage, before.argmin_theta)


def test_comparison_is_strict_not_at_least():
    """delta chosen so the threshold equals a reachable coverage exactly.

    If the search accepted coverage == 1 - delta it would stop at that n;
    the strict rule must walk past it.
    """
    probe = min_sample_size(bernoulli_abs_query())
    n_hit = probe.n_min
    cov_hit = probe.coverage_at_n_min
    delta = 1 - F(cov_hit)  # exact rational of the float coverage
    assert float(1 - delta) == cov_hit
    result = min_sample_size(bernoulli_abs_query(delta=delta))
    assert result.n_min != n_hit
    assert result.n_min > n_hit


def test_smaller_delta_never_needs_fewer_samples():
    lo = min_sample_size(bernoulli_abs_query(delta=F(1, 5)))
    hi = min_sample_size(bernoulli_abs_query(delta=F(1, 20)))
    assert lo.found and hi.found
    assert hi.n_min >= lo.n_min


def test_not_found_within_budget():
    result = min_sample_size(bernoulli_abs_query(delta=F(1, 1000), n_max=4))
    assert not result.found
    assert result.n_min is None
    assert result.coverage_at_n_min is None
    assert result.argmin_theta is None
    assert [n for n, _, _ in result.trace] == [2, 3, 4]
    # witness blocks from n = 3 of 1, 8, 1, 8 and 30 n, the last cut from 64
    # at n_max: every entry is a rejecting witness, a true coverage
    query = bernoulli_abs_query(criterion=Absolute(F(1, 10)), delta=F(1, 1000), n_max=50)
    result = min_sample_size(query)
    assert not result.found
    assert [n for n, _, _ in result.trace] == list(range(2, 51))
    assert result.full_sweeps == (2,)
    for n, value, theta in result.trace:
        assert value == coverage("bernoulli", n, query.criterion, UNBIASED, theta)
        assert value <= float(1 - query.delta)


def test_degenerate_clamp_found_immediately():
    est = RangePreserving(F(2, 5), F(3, 5))
    query = SampleSizeQuery(
        family="bernoulli",
        criterion=Absolute(F(1, 2)),
        estimator=est,
        a=F(2, 5),
        b=F(3, 5),
        delta=F(1, 20),
        n_start=3,
        n_max=50,
    )
    result = min_sample_size(query)
    assert result.n_min == 3
    assert result.coverage_at_n_min == 1.0


def test_guard_band_raises_the_bar():
    """With coverage pinned at exactly 1.0, a tiny delta separates the modes.

    The plain threshold 1 - 5e-13 sits just below 1.0, so exact coverage
    clears it at n_start; the guard band pushes the threshold above 1.0,
    declining to certify a pass that lives entirely inside float noise.
    """
    est = RangePreserving(F(2, 5), F(3, 5))
    base = dict(
        family="bernoulli",
        criterion=Absolute(F(1, 2)),
        estimator=est,
        a=F(2, 5),
        b=F(3, 5),
        delta=F(5, 10**13),
        n_start=2,
        n_max=6,
    )
    threshold = float(1 - F(5, 10**13))
    assert threshold < 1.0 < threshold + 1e-12
    plain = min_sample_size(SampleSizeQuery(**base))
    guarded = min_sample_size(SampleSizeQuery(**base, guard_band=True))
    assert plain.found and plain.n_min == 2
    assert not guarded.found


def test_loose_delta_accepts_n_start():
    result = min_sample_size(
        bernoulli_abs_query(criterion=Absolute(F(1, 2)), delta=F(999, 1000))
    )
    assert result.n_min == 2
    assert len(result.trace) == 1


def test_n_start_one_is_allowed():
    result = min_sample_size(bernoulli_abs_query(n_start=1))
    assert result.trace[0][0] == 1


def test_progress_callback_sees_every_n():
    seen = []
    result = min_sample_size(
        bernoulli_abs_query(), progress=lambda n, cov: seen.append((n, cov))
    )
    assert seen == [(n, cov) for n, cov, _ in result.trace]


def test_query_validation():
    with pytest.raises(DomainError, match="delta"):
        bernoulli_abs_query(delta=F(0))
    with pytest.raises(DomainError, match="delta"):
        bernoulli_abs_query(delta=F(1))
    with pytest.raises(DomainError, match="n_start"):
        bernoulli_abs_query(n_start=0)
    with pytest.raises(DomainError, match="n_max"):
        bernoulli_abs_query(n_start=10, n_max=9)
    with pytest.raises(DomainError, match="float"):
        bernoulli_abs_query(delta=0.05)


@pytest.mark.parametrize("field, value", [
    ("n_start", 2.5), ("n_start", "3"), ("n_start", True),
    ("n_max", 50.5), ("n_max", "50"), ("n_max", True),
])
def test_query_rejects_non_integer_n_bounds(field, value):
    with pytest.raises(DomainError, match=f"{field} must be a positive integer"):
        bernoulli_abs_query(**{field: value})


def test_relative_search_on_poisson_interval():
    query = SampleSizeQuery(
        family="poisson",
        criterion=Relative(F(1, 2)),
        estimator=UNBIASED,
        a=F(1, 2),
        b=F(2),
        delta=F(1, 4),
        n_start=2,
        n_max=200,
    )
    result = min_sample_size(query)
    assert result.found
    # certify the answer against direct minimization at both sides of the stop
    at = min_coverage(
        "poisson", result.n_min, Relative(F(1, 2)), UNBIASED, F(1, 2), F(2)
    )
    assert at.min_coverage == result.coverage_at_n_min
    assert at.min_coverage > 0.75
    before = min_coverage(
        "poisson", result.n_min - 1, Relative(F(1, 2)), UNBIASED, F(1, 2), F(2)
    )
    assert before.min_coverage <= 0.75


# ---------------------------------------------------------------------------
# witness blocks of more than BLOCK_GROWTH**2 n, tried in two slices

GOLDEN_101 = SampleSizeQuery(family="bernoulli", criterion=Absolute(F(1, 10)), estimator=UNBIASED,
                             a=F(0), b=F(1), delta=F(1, 20))
MIXED_96 = SampleSizeQuery(family="bernoulli", criterion=Mixed(F(1, 10), F(1, 4)),
                           estimator=RangePreserving(F(1, 20), F(19, 20)), a=F(1, 20),
                           b=F(19, 20), delta=F(1, 20))
# n_min, argmin, full sweeps and the SHA-256 of the trace lines
# "n value.hex() theta", as the search made them when it evaluated every
# block whole
SLICED = [
    (GOLDEN_101, 101, F(499, 1010), (2, 100, 101),
     "8a2654ef630173a55cfc5fcef129cb67b22dc5f366e8e84ee44c8ab9bf7d179c"),
    (MIXED_96, 96, F(5, 12), (2, 95, 96),
     "b24130d22a58645133e94496090dcf0b7cfdf988f2e0ee65a31b2cb52a28fd90"),
]


def recorded_blocks(monkeypatch, threshold):
    """Record (n0, count, how many of its n are rejected) of every witness block."""
    calls = []
    real = search._witness_minima

    def recording(fam, spec, n0, count, near):
        block, values, best = real(fam, spec, n0, count, near)
        calls.append((n0, count, sum(v <= threshold for v in values[best].tolist())))
        return block, values, best

    monkeypatch.setattr(search, "_witness_minima", recording)
    return calls


def check_slices(calls):
    """A block with an unrejected n holds at most BLOCK_MAX // BLOCK_GROWTH n,
    and one of more than BLOCK_GROWTH**2 n follows its first slice, all of
    whose n were rejected."""
    for i, (n0, count, rejected) in enumerate(calls):
        if rejected < count:
            assert count <= BLOCK_MAX // BLOCK_GROWTH
        if count > BLOCK_GROWTH**2:
            m0, head, all_of = calls[i - 1]
            assert (m0 + head, all_of, head) == (n0, head, (head + count) // BLOCK_GROWTH)


@pytest.mark.parametrize("query, n_min, argmin, sweeps, digest", SLICED,
                         ids=["golden-101", "rp-mixed-96"])
def test_sliced_blocks_keep_every_trace_entry(monkeypatch, query, n_min, argmin, sweeps, digest):
    calls = recorded_blocks(monkeypatch, float(1 - query.delta))
    result = min_sample_size(query)
    assert (result.n_min, result.argmin_theta, result.full_sweeps) == (n_min, argmin, sweeps)
    trace = "".join(f"{n} {value.hex()} {theta}\n" for n, value, theta in result.trace)
    assert hashlib.sha256(trace.encode()).hexdigest() == digest
    check_slices(calls)
    # a block of 512 n from n = 85 stopped at its first slice: no row past
    # it, where the whole block reached n = 596
    assert (85, 64) in [call[:2] for call in calls]
    assert max(n0 + count for n0, count, _ in calls) - 1 < n_min + BLOCK_MAX // BLOCK_GROWTH


def test_a_wholly_rejected_sliced_block_keeps_true_witnesses(monkeypatch):
    query = bernoulli_abs_query(criterion=Absolute(F(1, 10)), delta=F(1, 10**9), n_max=700)
    threshold = float(1 - query.delta)
    calls = recorded_blocks(monkeypatch, threshold)
    result = min_sample_size(query)
    assert not result.found and result.full_sweeps == (2,)
    assert [n for n, _, _ in result.trace] == list(range(2, 701))
    # the block of 512 n from 85 in slices of 64 and 448; the block of 1024
    # from 597, cut to 104 n at n_max, in slices of 13 and 91
    assert [call[:2] for call in calls[-4:]] == [(85, 64), (149, 448), (597, 13), (610, 91)]
    check_slices(calls)
    for n, value, theta in result.trace:
        assert value == coverage("bernoulli", n, query.criterion, UNBIASED, theta)
        assert value <= threshold
