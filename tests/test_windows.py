"""Integer candidate sets against their definitions.

The windows a candidate set reads from its query's table along each of its
runs (`windows_at` of `spec.windows`) must equal the window found from the
definition by bisection on k in Fractions (`_reference.reference_ends`) and
`acceptance_windows` at each theta alone, the float of each theta must be
`float(theta)` to the last bit, and the points, tags and evaluations made on
first access must equal the reference candidates in order.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from covsize import (
    Absolute,
    DomainError,
    Mixed,
    RangePreserving,
    Relative,
    UNBIASED,
    candidate_set_for,
    coverage,
    min_coverage,
)

from covsize.candidates import _block, _spec
from covsize.coverage import acceptance_windows, windows_at
from covsize.minimize import _witness_minima
from covsize.families import BERNOULLI, POISSON, prob_ranges, resolve_family

from _reference import PAST_TOP, reference_candidates, reference_ends
from test_candidates import builder_calls

F = Fraction
# SampleSizeQuery's default n_max
N_MAX = 1_000_000


def query_of(kind, args):
    """(n, criterion, estimator, a, b) of a `reference_candidates` builder call."""
    n, *margins, a, b = args
    criterion = {"abs": Absolute, "rel": Relative, "mixed": Mixed}[kind.removeprefix("rp_")]
    estimator = RangePreserving(a, b) if kind.startswith("rp_") else UNBIASED
    return n, criterion(*margins), estimator, a, b


def check_windows_and_floats(points, thetas, n, criterion, estimator):
    """Check the windows and floats at the thetas of a candidate set's or a
    one-n block's points."""
    table = windows_at(points.spec.windows, n, points.run, points.k)
    got = list(zip(*(w.tolist() for w in table)))
    assert got == [reference_ends(n, criterion, estimator, t) for t in thetas]
    # the side of each single theta (above the crossover) and of each
    # lattice (by its tag) agree
    alone = acceptance_windows(n, criterion, estimator, thetas)
    assert [w.tolist() for w in alone] == [w.tolist() for w in table]
    assert [x.hex() for x in points.floats.tolist()] == [float(t).hex() for t in thetas]


@settings(max_examples=300)
@given(call=builder_calls())
def test_affine_windows_match_the_definition_on_builder_calls(call):
    kind, args = call
    n, criterion, estimator, a, b = query_of(kind, args)
    try:
        cset = candidate_set_for(n, criterion, estimator, a, b)
    except DomainError:
        return  # drawn configuration violates a precondition; nothing to check
    check_windows_and_floats(cset, cset.thetas, n, criterion, estimator)
    expected, _ = reference_candidates(kind, *args)
    assert [(p.theta, p.tags) for p in cset.points] == expected


PRODUCTION_SHAPES = [
    ("abs", (9622, F(1, 100), F(0), F(1))),
    *(("rel", (n, F(1, 5), F(1, 10), F(9, 10))) for n in range(892, 902)),
    *(("rp_mixed", (96, F(1, 10), F(1, 4), a, 1 - a)) for a in (F(1, 20), F(1, 10))),
]


@pytest.mark.parametrize("kind, args", PRODUCTION_SHAPES,
                         ids=[f"{kind}-{args[0]}-{args[-2]}" for kind, args in PRODUCTION_SHAPES])
def test_affine_windows_and_lazy_fields_on_production_shapes(kind, args):
    n, criterion, estimator, a, b = query_of(kind, args)
    report = min_coverage("bernoulli", n, criterion, estimator, a, b)
    cset = report.candidate_set
    check_windows_and_floats(cset, cset.thetas, n, criterion, estimator)
    expected, _ = reference_candidates(kind, *args)
    assert [(p.theta, p.tags) for p in cset.points] == expected
    assert [t for t, _ in report.evaluations] == [t for t, _ in expected]
    assert [v for _, v in report.evaluations] == list(report.values)
    # every value is the public scalar coverage at that theta, bit for bit
    # (a stride keeps the 19,000-point set quick; the argmin is always checked)
    step = max(len(cset) // 2000, 1)
    for theta, value in report.evaluations[::step] + ((report.argmin_theta, report.min_coverage),):
        assert coverage("bernoulli", n, criterion, estimator, theta) == value
    first = min(report.values)
    assert report.argmin_theta == next(t for t, v in report.evaluations if v == first)


# the last entry is the dtype of the block's numerators (over n * scale)
LARGE_N = [
    # int64 on every route
    (Relative(F(1, 997)), UNBIASED, F(1, 10), F(9, 10), [F(1, 10), F(1, 2), F(9, 10)], np.int64),
    # awkward denominators on both sides of the crossover, clamped
    (Mixed(F(7, 9973), F(13, 1009)), RangePreserving(F(1, 1000), F(1, 2)), F(1, 1000), F(1, 2),
     [F(7 * 1009, 9973 * 13), F(1, 1000) + F(7, 9973), F(1, 2) / (1 + F(13, 1009))], np.int64),
    # a margin denominator near 2**20: each window coefficient fits int64, a
    # coefficient times k does not, so int64 windows would wrap around
    # silently
    (Relative(F(1, 2**20 + 7)), UNBIASED, F(1, 10), F(9, 10), [F(1, 2)], np.int64),
    # a margin denominator above 2**40: the integers leave int64
    (Relative(F(2**40 + 1, 2**42 + 3)), RangePreserving(F(1, 10), F(9, 10)), F(1, 10), F(9, 10),
     [F(1, 10) / (1 - F(2**40 + 1, 2**42 + 3)), F(1, 2), F(9, 10)], object),
    # a lattice step near 2**84 with no rows at any practical n: that step
    # is left out of the width rule, but over n * scale the endpoint 9/10
    # alone is about 1.98e19 at this n, past int64 (at n = 10**5 it fits:
    # see the next test)
    (Relative(1 - F(1, 2**40)), UNBIASED, F(1, 10), F(9, 10), [F(1, 10), F(1, 2)], object),
]


@pytest.mark.parametrize("criterion, estimator, a, b, nears, dtype", LARGE_N,
                         ids=["relative-1/997", "mixed-awkward", "relative-2**20", "relative-2**40",
                              "relative-step-2**84"])
def test_windows_at_the_default_n_max(criterion, estimator, a, b, nears, dtype):
    n = N_MAX
    for near in nears:
        window = (near - F(3, n), near + F(3, n))
        spec = _spec(criterion, estimator, a, b)
        block = _block(spec, n, 1, near, 3)
        thetas = block.thetas(np.arange(len(block.n)))
        assert block.numerators.dtype == dtype
        assert_exact_numerators(spec, block, n)
        assert any(window[0] <= t <= window[1] for t in thetas)
        check_windows_and_floats(block, thetas, n, criterion, estimator)


def assert_exact_numerators(spec, points, n):
    """No numerator wrapped around: each is n * base + step * k in Python ints."""
    coef = [(base * (spec.scale // d), step * (spec.scale // d))
            for base, step, d, *_ in spec.runs]
    assert points.numerators.tolist() == [n * coef[r][0] + coef[r][1] * k for r, k in
                                          zip(points.run.tolist(), points.k.tolist())]


def test_a_run_without_points_leaves_the_numerators_int64():
    # the rel-lower lattice of Relative(1 - 2**-40) on [1/10, 9/10] has a
    # step near 2**84 over n * scale and no points below n = 2**40: both
    # builders leave it out of their one width rule, so at n = 10**5 the
    # whole set and a one-n block are int64 alike
    query = (Relative(1 - F(1, 2**40)), UNBIASED, F(1, 10), F(9, 10))
    n, spec = 10**5, _spec(*query)
    whole, block = candidate_set_for(n, *query), _block(spec, n, 1, F(1, 2), 3)
    assert whole.numerators.dtype == block.numerators.dtype == np.int64
    for points in (whole, block):
        assert_exact_numerators(spec, points, n)


# ---------------------------------------------------------------------------
# one n per row: the windows and probabilities of per-n calls, bit for bit

# Poisson without its batch functions: every probability is a log-pmf sum
POISSON_LOG_PMF = dataclasses.replace(POISSON, cdf_batch=None)

ROW_BLOCKS = [
    # family, n0, count, criterion, estimator, a, b, near
    (BERNOULLI, 2, 40, Absolute(F(1, 10)), UNBIASED, F(0), F(1), F(1, 2)),
    (BERNOULLI, 3, 30, Mixed(F(1, 10), F(1, 4)), RangePreserving(F(1, 20), F(19, 20)),
     F(1, 20), F(19, 20), F(1, 10)),
    (POISSON, 2, 30, Relative(F(1, 4)), RangePreserving(F(1), F(5)), F(1), F(5), F(1)),
    (POISSON_LOG_PMF, 2, 12, Relative(F(1, 4)), RangePreserving(F(1), F(5)), F(1), F(5), F(1)),
    (POISSON_LOG_PMF, 140, 6, Absolute(F(1, 2)), UNBIASED, F(1), F(10), F(9, 2)),
]


def per_n_and_per_row(fam, ns, table, run, k, floats):
    """(windows, probabilities) of one call with an n per row, and of one call per n."""
    windows = windows_at(table, ns, run, k)
    probs = prob_ranges(fam, ns, floats, *windows)
    each_windows, each_probs = [], []
    for n in sorted(set(ns.tolist())):
        rows = ns == n
        w = windows_at(table, n, run[rows], k[rows])
        each_windows.append(w)
        each_probs.append(prob_ranges(fam, n, floats[rows], *w))
    each_windows = [np.concatenate(parts) for parts in zip(*each_windows)]
    return (windows, probs), (each_windows, np.concatenate(each_probs))


@pytest.mark.parametrize("fam, n0, count, criterion, estimator, a, b, near", ROW_BLOCKS,
                         ids=["bernoulli-absolute", "bernoulli-rp-mixed", "poisson-rp-relative",
                              "log-pmf-rp-relative", "log-pmf-absolute"])
def test_rows_with_one_n_each_equal_per_n_calls(fam, n0, count, criterion, estimator, a, b,
                                                near):
    block = _block(_spec(criterion, estimator, a, b), n0, count, near, 3)
    (windows, probs), (each_windows, each_probs) = per_n_and_per_row(
        fam, block.n, block.spec.windows, block.run, block.k, block.floats)
    for got, expected in zip(windows, each_windows):
        assert got.tolist() == expected.tolist()
    assert [x.hex() for x in probs.tolist()] == [x.hex() for x in each_probs.tolist()]
    got = list(zip(*(w.tolist() for w in windows)))
    thetas = block.thetas(np.arange(len(block.n)))
    assert got == [reference_ends(n, criterion, estimator, t)
                   for n, t in zip(block.n.tolist(), thetas)]
    if isinstance(estimator, RangePreserving):
        # open sides
        assert (windows[0] == -PAST_TOP).any() and (windows[1] == PAST_TOP).any()
    if fam is BERNOULLI:
        assert (windows[1] < windows[0]).any()  # empty windows, at small n


def test_rows_with_one_n_each_cross_into_python_ints():
    # t = n * theta * den reaches 2**40 * n, so the window integers exceed
    # 2**62 between n = 400000 and n = 500000: the per-n calls take int64 and
    # then Python ints, the call with both n takes Python ints throughout;
    # theta is the endpoint b of a query's table, its run 1
    theta, criterion = F(2**40 - 1, 2**40), Absolute(F(1, 8))
    table = candidate_set_for(1, criterion, UNBIASED, F(1, 2), theta).spec.windows
    ns = np.array([400_000, 400_000, 500_000, 500_000])
    run, k = np.ones(4, np.intp), np.zeros(4, np.int64)
    floats = np.full(4, float(theta))
    (windows, probs), (each_windows, each_probs) = per_n_and_per_row(
        BERNOULLI, ns, table, run, k, floats)
    for got, expected in zip(windows, each_windows):
        assert got.tolist() == expected.tolist()
    assert probs.tolist() == each_probs.tolist()
    assert list(zip(*(w.tolist() for w in windows)))[::2] == [
        reference_ends(n, criterion, UNBIASED, theta) for n in (400_000, 500_000)]


# ---------------------------------------------------------------------------
# witness blocks read their windows from tables cached once per query

# (family, criterion, the (estimator, a, b) of queries sharing it); the
# Mixed crossover 2/5 lies inside every interval, each with its own runs
SHARED_CRITERIA = [
    ("bernoulli", Mixed(F(1, 10), F(1, 4)),
     [(RangePreserving(F(1, 20), F(19, 20)), F(1, 20), F(19, 20)),
      (UNBIASED, F(1, 20), F(19, 20)),
      (UNBIASED, F(0), F(3, 4)),
      (RangePreserving(F(1, 10), F(3, 5)), F(1, 10), F(3, 5))]),
    ("poisson", Relative(F(1, 4)),
     [(UNBIASED, F(1), F(5)),
      (RangePreserving(F(1), F(5)), F(1), F(5)),
      (UNBIASED, F(1, 2), F(2))]),
]


@pytest.mark.parametrize("family, criterion, queries", SHARED_CRITERIA,
                         ids=["bernoulli-mixed", "poisson-relative"])
def test_interleaved_queries_keep_their_own_tables(family, criterion, queries):
    # blocks of the queries in turn, each centred on either side of the
    # crossover: a table cached under the wrong key would give some row the
    # window of another interval, clamp or side
    for n0, count in ((3, 4), (17, 3), (40, 2)):
        for estimator, a, b in queries:
            for near in (a + (b - a) / 5, b - (b - a) / 5):
                block, values, _ = _witness_minima(resolve_family(family),
                                                   _spec(criterion, estimator, a, b), n0, count,
                                                   near)
                windows = windows_at(block.spec.windows, block.n, block.run, block.k)
                thetas = block.thetas(np.arange(len(block.n)))
                rows = list(zip(block.n.tolist(), thetas))
                assert list(zip(*(w.tolist() for w in windows))) == [
                    reference_ends(n, criterion, estimator, t) for n, t in rows]
                assert values.tolist() == [coverage(family, n, criterion, estimator, t)
                                           for n, t in rows]


def test_witness_blocks_cross_into_python_ints_within_one_query():
    # theta denominators of 2**40: a block's numerators, n * 2**40 * theta,
    # fit int64 at n = 20 but not at n = 20,000,000, and the query's tables
    # are cached by the first call, so each call must choose its integers
    # itself
    a, b = F(1, 2), F(2**39 + 2**22 + 1, 2**40)
    query = (Absolute(F(1, 8)), UNBIASED, a, b)
    for n0 in (20, 20_000_000, 28):
        block, values, best = _witness_minima(BERNOULLI, _spec(*query), n0, 3, (a + b) / 2)
        assert block.numerators.dtype == (object if n0 > 2**24 else np.int64)
        windows = windows_at(block.spec.windows, block.n, block.run, block.k)
        for i, n in enumerate(range(n0, n0 + 3)):
            rows = np.arange(block.starts[i], block.starts[i + 1])
            thetas = block.thetas(rows)
            assert list(zip(*(w[rows].tolist() for w in windows))) == [
                reference_ends(n, *query[:2], t) for t in thetas]
            full = dict(min_coverage("bernoulli", n, *query).evaluations)
            assert [full[t].hex() for t in thetas] == [x.hex() for x in values[rows].tolist()]
        if n0 > 2**24:
            assert len(block.n) > 3 * 2  # lattice points beside the endpoints
