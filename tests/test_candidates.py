"""Candidate sets: fixed enumerations, invariants, and bound regressions."""

import gc
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covsize import (
    Absolute,
    DomainError,
    GridSpec,
    Mixed,
    RangePreserving,
    Relative,
    SampleSizeQuery,
    UNBIASED,
    candidate_set_for,
    grid_min_coverage,
    indicator_coverage,
    min_coverage,
    min_sample_size,
)
from covsize import candidates
from covsize.candidates import (
    TAG_BREAKPOINT,
    TAG_ENDPOINT,
    TAG_MINUS,
    TAG_PLUS,
    TAG_REL_LOWER,
    TAG_REL_UPPER,
    _block,
    _spec,
)
from covsize.families import BERNOULLI
from covsize.minimize import _witness_minima

from _reference import reference_candidates

F = Fraction


def thetas(cset):
    return [p.theta for p in cset.points]


def clamped(n, criterion, a, b):
    """Candidate set for the range-preserving estimator clamped to [a, b]."""
    return candidate_set_for(n, criterion, RangePreserving(a, b), a, b)


# ---------------------------------------------------------------------------
# fixed enumerations, absolute criterion

def test_abs_coinciding_lattices():
    cset = candidate_set_for(10, Absolute(F(1, 20)), UNBIASED, F(1, 5), F(4, 5))
    expected = [
        F(1, 5), F(1, 4), F(7, 20), F(9, 20), F(11, 20), F(13, 20), F(3, 4), F(4, 5)
    ]
    assert thetas(cset) == expected
    assert cset.cardinality_bound == 16
    # the two lattice families land on the same points here; tags accumulate
    interior = [p for p in cset.points if TAG_ENDPOINT not in p.tags]
    for p in interior:
        assert TAG_PLUS in p.tags and TAG_MINUS in p.tags


def test_abs_no_interior_lattice_points():
    cset = candidate_set_for(1, Absolute(F(5)), UNBIASED, F(0), F(1))
    assert thetas(cset) == [F(0), F(1)]


def test_abs_small_case():
    cset = candidate_set_for(2, Absolute(F(1, 4)), UNBIASED, F(0), F(1))
    assert thetas(cset) == [F(0), F(1, 4), F(3, 4), F(1)]
    assert cset.cardinality_bound == 8


# ---------------------------------------------------------------------------
# fixed enumerations, relative criterion

def test_rel_fixed_case():
    cset = candidate_set_for(5, Relative(F(1, 5)), UNBIASED, F(1, 2), F(1))
    assert thetas(cset) == [F(1, 2), F(2, 3), F(3, 4), F(5, 6), F(1)]
    assert cset.cardinality_bound == 9


def test_rel_spacing_wider_than_interval():
    cset = candidate_set_for(1, Relative(F(1, 2)), UNBIASED, F(10), F(11))
    assert thetas(cset) == [F(10), F(32, 3), F(11)]


def test_rel_endpoint_only():
    # both lattice spacings exceed b - a and no lattice point falls inside
    cset = candidate_set_for(1, Relative(F(1, 2)), UNBIASED, F(67, 20), F(69, 20))
    assert thetas(cset) == [F(67, 20), F(69, 20)]


def test_rel_rejects_nonpositive_a():
    with pytest.raises(DomainError):
        candidate_set_for(5, Relative(F(1, 5)), UNBIASED, F(0), F(1))


# ---------------------------------------------------------------------------
# fixed enumerations, mixed criterion

def test_mixed_collects_both_lattices_per_side():
    # both absolute lattices below the crossover, both relative above it
    cset = candidate_set_for(2, Mixed(F(1, 4), F(1, 2)), UNBIASED, F(0), F(1))
    assert thetas(cset) == [F(0), F(1, 4), F(1, 2), F(2, 3), F(1)]
    assert cset.cardinality_bound == 2 * 2 * 1 + 7
    point = {p.theta: p.tags for p in cset.points}
    assert TAG_BREAKPOINT in point[F(1, 2)]
    assert TAG_PLUS in point[F(1, 4)] and TAG_MINUS in point[F(1, 4)]
    assert TAG_REL_UPPER in point[F(2, 3)]


def test_mixed_rejects_negative_a():
    with pytest.raises(DomainError, match="mixed criterion needs a >= 0"):
        candidate_set_for(4, Mixed(F(1, 4), F(1, 2)), UNBIASED, F(-1, 4), F(1))


def test_mixed_crossover_must_be_interior():
    with pytest.raises(DomainError, match="pure absolute or pure relative"):
        candidate_set_for(4, Mixed(F(1, 2), F(1, 2)), UNBIASED, F(0), F(1))  # crossover 1 == b
    with pytest.raises(DomainError, match="pure absolute or pure relative"):
        candidate_set_for(4, Mixed(F(1, 8), F(1, 2)), UNBIASED, F(1, 4), F(1))  # crossover 1/4 == a


def test_mixed_lower_lattice_point_regression():
    """A minus-lattice point below the crossover can carry the true minimum.

    At n=4, eps_abs=3/10, eps_rel=3/5 on [0,1] the worst coverage sits at
    theta = 9/20 = 2/4 - 3/10, strictly below the crossover 1/2.  A candidate
    set holding only the plus-absolute and rel-upper lattices on that side
    misses it and overstates the minimum by about 9e-3.
    """
    n, ea, er = 4, F(3, 10), F(3, 5)
    cset = candidate_set_for(n, Mixed(ea, er), UNBIASED, F(0), F(1))
    assert F(9, 20) in thetas(cset)

    crit = Mixed(ea, er)
    values = {t: indicator_coverage("bernoulli", n, crit, UNBIASED, t)
              for t in thetas(cset)}
    best = min(values.values())
    assert best == pytest.approx(0.6670125, abs=1e-12)
    assert min(t for t, v in values.items() if v == best) == F(9, 20)

    # the crisscross assignment (one absolute and one relative lattice per
    # side) evaluated on the same instance misses the minimum
    c = crit.crossover
    crisscross = {F(0), F(1), c}
    for ell in range(-20, 20):
        for t in (F(ell, n) + ea, F(ell, n * (1 + er))):
            if 0 < t < c:
                crisscross.add(t)
        for t in (F(ell, n) - ea, F(ell, n * (1 - er))):
            if c < t < 1:
                crisscross.add(t)
    crisscross_best = min(
        indicator_coverage("bernoulli", n, crit, UNBIASED, t) for t in crisscross
    )
    assert crisscross_best > best + 5e-4


# ---------------------------------------------------------------------------
# fixed enumerations, range-preserving estimator

def test_rp_abs_fixed_case():
    cset = clamped(10, Absolute(F(1, 10)), F(2, 5), F(7, 10))
    assert thetas(cset) == [F(2, 5), F(1, 2), F(3, 5), F(7, 10)]
    point = {p.theta: p.tags for p in cset.points}
    assert TAG_BREAKPOINT in point[F(1, 2)]  # a + eps
    assert TAG_BREAKPOINT in point[F(3, 5)]  # b - eps
    assert TAG_MINUS in point[F(1, 2)]
    assert TAG_PLUS in point[F(3, 5)]


def test_rp_abs_margin_wider_than_interval():
    cset = clamped(10, Absolute(F(1, 2)), F(2, 5), F(7, 10))
    assert thetas(cset) == [F(2, 5), F(7, 10)]
    assert cset.cardinality_bound == 6
    assert len(cset) < cset.cardinality_bound


def test_rp_abs_coinciding_breakpoints_deduplicate():
    cset = clamped(4, Absolute(F(1, 4)), F(1, 2), F(1))
    mid = [p for p in cset.points if p.theta == F(3, 4)]
    assert len(mid) == 1
    assert TAG_BREAKPOINT in mid[0].tags


def test_rp_rel_fixed_case():
    cset = clamped(5, Relative(F(1, 5)), F(1, 2), F(1))
    assert thetas(cset) == [F(1, 2), F(5, 8), F(2, 3), F(3, 4), F(5, 6), F(1)]
    point = {p.theta: p.tags for p in cset.points}
    assert TAG_BREAKPOINT in point[F(5, 8)]  # a / (1 - eps)
    assert TAG_BREAKPOINT in point[F(5, 6)]  # b / (1 + eps)
    assert TAG_REL_UPPER in point[F(2, 3)]
    assert TAG_REL_LOWER in point[F(3, 4)]


def test_rp_rel_strong_overlap_keeps_endpoints_only():
    # a/(1-eps) > b and b/(1+eps) < a: no side can ever miss
    cset = clamped(7, Relative(F(1, 2)), F(2, 3), F(3, 4))
    assert thetas(cset) == [F(2, 3), F(3, 4)]


def test_rp_mixed_fixed_case():
    cset = clamped(2, Mixed(F(1, 4), F(1, 2)), F(0), F(1))
    assert thetas(cset) == [F(0), F(1, 4), F(1, 2), F(2, 3), F(1)]


def test_rp_builders_reject_nonpositive_a():
    with pytest.raises(DomainError):
        clamped(5, Absolute(F(1, 10)), F(0), F(1))
    with pytest.raises(DomainError):
        clamped(5, Relative(F(1, 10)), F(0), F(1))


# ---------------------------------------------------------------------------
# cardinality-bound regressions

def test_rp_rel_bound_covers_one_sided_configurations():
    """One lattice window can be empty while the other still holds points.

    With n=11, eps=4/5 on [2/5, 37/40]: a/(1-eps) = 2 lies far above b (the
    lower window is empty) yet b/(1+eps) = 37/72 > a keeps the upper window
    alive with three lattice points.  A single closed-form count
    2n(b-a) - n*eps*(a+b) + 6 subtracts both windows' overlaps and comes out
    at 5.89, below the actual six points; the shipped bound floors each
    window's width at zero instead.
    """
    n, eps, a, b = 11, F(4, 5), F(2, 5), F(37, 40)
    assert a / (1 - eps) > b and b / (1 + eps) > a
    cset = clamped(n, Relative(eps), a, b)
    assert len(cset) == 6
    single_formula = 2 * n * (b - a) - n * eps * (a + b) + 6
    assert len(cset) >= single_formula  # the single formula undercounts
    assert len(cset) < cset.cardinality_bound


def test_rp_mixed_bound_covers_one_sided_configurations():
    n, ea, er, a, b = 56, F(227, 800), F(4, 5), F(11, 40), F(7, 10)
    cset = clamped(n, Mixed(ea, er), a, b)
    assert len(cset) == 12
    single_formula = 2 * n * (b - a) - n * (ea + b * er) + 11
    assert len(cset) >= single_formula
    assert len(cset) < cset.cardinality_bound


# ---------------------------------------------------------------------------
# randomized invariants

interval_den = st.sampled_from([8, 10, 16, 20, 40])


@st.composite
def builder_calls(draw):
    n = draw(st.integers(min_value=1, max_value=50))
    den = draw(interval_den)
    lo = draw(st.integers(min_value=0, max_value=den - 1))
    hi = draw(st.integers(min_value=lo + 1, max_value=den))
    a, b = F(lo, den), F(hi, den)
    kind = draw(st.sampled_from(
        ["abs", "rel", "mixed", "rp_abs", "rp_rel", "rp_mixed"]
    ))
    eps = draw(st.fractions(min_value=F(1, 40), max_value=F(4, 5), max_denominator=40))
    er = draw(st.fractions(min_value=F(1, 20), max_value=F(9, 10), max_denominator=40))
    if kind == "abs":
        return kind, (n, eps, a, b)
    if kind == "rel" or kind == "rp_rel":
        if a == 0:
            a += F(1, den * 2)
        return kind, (n, er, a, b)
    if kind == "rp_abs":
        if a == 0:
            a += F(1, den * 2)
        return kind, (n, eps, a, b)
    # mixed variants need the crossover strictly inside (a, b)
    frac = draw(st.fractions(min_value=F(1, 16), max_value=F(15, 16), max_denominator=32))
    c = a + frac * (b - a)
    return kind, (n, c * er, er, a, b)


# each kind with the argument tuple `_reference.reference_candidates` takes
_BUILDERS = {
    "abs": lambda n, eps, a, b: candidate_set_for(n, Absolute(eps), UNBIASED, a, b),
    "rel": lambda n, eps, a, b: candidate_set_for(n, Relative(eps), UNBIASED, a, b),
    "mixed": lambda n, ea, er, a, b: candidate_set_for(n, Mixed(ea, er), UNBIASED, a, b),
    "rp_abs": lambda n, eps, a, b: clamped(n, Absolute(eps), a, b),
    "rp_rel": lambda n, eps, a, b: clamped(n, Relative(eps), a, b),
    "rp_mixed": lambda n, ea, er, a, b: clamped(n, Mixed(ea, er), a, b),
}


@settings(max_examples=300)
@given(call=builder_calls())
def test_builder_invariants(call):
    kind, args = call
    try:
        cset = _BUILDERS[kind](*args)
    except DomainError:
        return  # drawn configuration violates a precondition; nothing to check
    a, b = args[-2], args[-1]
    points = thetas(cset)
    assert points[0] == a and points[-1] == b
    assert all(x < y for x, y in zip(points, points[1:]))
    assert all(a <= t <= b for t in points)
    assert len(cset) < cset.cardinality_bound
    assert len(set(points)) == len(points)


@settings(max_examples=200)
@given(call=builder_calls())
def test_lattice_tags_certify_membership(call):
    """Each tagged point must satisfy its lattice equation exactly."""
    kind, args = call
    try:
        cset = _BUILDERS[kind](*args)
    except DomainError:
        return
    n = args[0]
    if kind in ("abs", "rp_abs"):
        ea = args[1]
        er = None
    elif kind in ("rel", "rp_rel"):
        ea = None
        er = args[1]
    else:
        ea, er = args[1], args[2]
    for p in cset.points:
        if TAG_PLUS in p.tags:
            assert (p.theta - ea) * n == int((p.theta - ea) * n)
        if TAG_MINUS in p.tags:
            assert (p.theta + ea) * n == int((p.theta + ea) * n)
        if TAG_REL_UPPER in p.tags:
            val = p.theta * n * (1 + er)
            assert val == int(val)
        if TAG_REL_LOWER in p.tags:
            val = p.theta * n * (1 - er)
            assert val == int(val)


# ---------------------------------------------------------------------------
# the integer builder against the Fraction reference

def assert_matches_reference(kind, args):
    cset = _BUILDERS[kind](*args)
    expected, bound = reference_candidates(kind, *args)
    assert [(p.theta, p.tags) for p in cset.points] == expected
    assert cset.cardinality_bound == bound
    for t in cset.thetas:
        assert type(t) is Fraction
        assert t.denominator > 0 and math.gcd(t.numerator, t.denominator) == 1
    return cset


@settings(max_examples=300)
@given(call=builder_calls())
def test_builder_equals_fraction_reference(call):
    try:
        assert_matches_reference(*call)
    except DomainError:
        return  # drawn configuration violates a precondition; nothing to check


def test_production_absolute_shape_equals_reference():
    cset = assert_matches_reference("abs", (9622, F(1, 100), F(0), F(1)))
    assert len(cset) == 2 + 2 * 9622  # endpoints plus n points on each lattice


@pytest.mark.parametrize("n", range(892, 902))
def test_production_relative_shapes_equal_reference(n):
    assert_matches_reference("rel", (n, F(1, 5), F(1, 10), F(9, 10)))


def test_coinciding_lattices_merge_tags_like_reference():
    # 2 * eps * n = 10 is an integer, so every plus point is also a minus point
    cset = assert_matches_reference("abs", (50, F(1, 10), F(0), F(1)))
    interior = [p for p in cset.points if TAG_ENDPOINT not in p.tags]
    assert interior and all(p.tags == (TAG_MINUS, TAG_PLUS) for p in interior)


def test_range_preserving_mixed_shape_equals_reference():
    assert_matches_reference("rp_mixed", (96, F(1, 10), F(1, 4), F(1, 20), F(19, 20)))


# ---------------------------------------------------------------------------
# witness blocks: at each n the whole set cut to a window, singles kept

def _pair(kind, args):
    """(n, criterion, estimator, a, b) of a `builder_calls()` draw."""
    n, *margins, a, b = args
    make = {"abs": Absolute, "rel": Relative, "mixed": Mixed}[kind.removeprefix("rp_")]
    estimator = RangePreserving(a, b) if kind.startswith("rp_") else UNBIASED
    return n, make(*margins), estimator, a, b


def cut(whole, lo, hi):
    """The indices of the points of `whole` in [lo, hi], and of every
    endpoint and breakpoint."""
    singles = {TAG_ENDPOINT, TAG_BREAKPOINT}
    return [i for i, p in enumerate(whole.points)
            if lo <= p.theta <= hi or singles.intersection(p.tags)]


def assert_window_cuts_whole_set(spec, lo, hi):
    # a one-n block centred on the window, its radius in units of 1/n
    n = spec[0]
    whole = candidate_set_for(*spec)
    block = _block(_spec(*spec[1:]), n, 1, (lo + hi) / 2, (hi - lo) / 2 * n)
    kept = cut(whole, lo, hi)
    assert block.thetas(np.arange(len(block.n))) == [whole.thetas[i] for i in kept]
    assert block.floats.tolist() == whole.floats[kept].tolist()
    # one encoding: the same numerators over n * scale, from the same (run, k)
    assert n * block.spec.scale == whole.den
    for name in ("numerators", "run", "k"):
        assert getattr(block, name).tolist() == getattr(whole, name)[kept].tolist(), name
    return block


@settings(max_examples=300)
@given(
    call=builder_calls(),
    centre=st.fractions(min_value=F(-1, 4), max_value=F(5, 4), max_denominator=64),
    radius=st.fractions(min_value=F(-1, 16), max_value=F(1, 2), max_denominator=64),
)
# the breakpoint a + eps = 1/5, outside the window, is also the minus-lattice
# point 3/10 - 1/10
@example(call=("rp_abs", (10, F(1, 10), F(1, 10), F(9, 10))), centre=F(1, 2), radius=F(1, 20))
def test_windowed_build_is_the_whole_set_cut_to_the_window(call, centre, radius):
    try:
        spec = _pair(*call)
        candidate_set_for(*spec)
    except DomainError:
        return  # drawn configuration violates a precondition; nothing to check
    assert_window_cuts_whole_set(spec, centre - radius, centre + radius)


def test_windowed_build_is_constant_size_at_large_n():
    spec = (9622, Absolute(F(1, 100)), UNBIASED, F(0), F(1))
    r = F(3, 9622)
    block = assert_window_cuts_whole_set(spec, F(1, 2) - r, F(1, 2) + r)
    assert len(block.n) <= 2 + 2 * 7  # endpoints plus at most 7 points per lattice


@settings(max_examples=200, deadline=None)
@given(
    call=builder_calls(),
    count=st.integers(min_value=1, max_value=6),
    near=st.fractions(min_value=F(-1, 4), max_value=F(5, 4), max_denominator=64),
)
def test_candidate_block_rows_are_each_whole_set_cut_to_its_window(call, count, near):
    try:
        n0, *pair = _pair(*call)
        candidate_set_for(n0, *pair)
    except DomainError:
        return  # drawn configuration violates a precondition; nothing to check
    block, values, best = _witness_minima(BERNOULLI, _spec(*pair), n0, count, near)
    for i, n in enumerate(range(n0, n0 + count)):
        whole = min_coverage("bernoulli", n, *pair)
        rows = range(block.starts[i], block.starts[i + 1])
        kept = cut(whole.candidate_set, near - F(3, n), near + F(3, n))
        thetas = block.thetas(np.array(rows))
        assert thetas == [whole.candidate_set.thetas[j] for j in kept]
        assert block.floats[rows].tolist() == whole.candidate_set.floats[kept].tolist()
        full = dict(whole.evaluations)
        assert [full[t] for t in thetas] == values[rows].tolist()
        assert best[i] in rows and values[best[i]] == min(values[rows])
        assert block.thetas(best[i:i + 1])[0] == min(t for t in thetas
                                                     if full[t] == values[best[i]])


# ---------------------------------------------------------------------------
# n is validated before any candidate arithmetic

# candidates_<kind> runs candidate_set_for on the (criterion, estimator) pair
# of `_BUILDERS[kind]`; the plain entry shows that n is checked before [a, b]
_N_ENTRY_POINTS = {
    "candidate_set_for": lambda n: candidate_set_for(
        n, Absolute(F(1, 10)), UNBIASED, F(9, 10), F(1, 10)),
    "candidates_abs": lambda n: _BUILDERS["abs"](n, F(1, 10), F(1, 10), F(9, 10)),
    "candidates_rel": lambda n: _BUILDERS["rel"](n, F(1, 5), F(1, 10), F(9, 10)),
    "candidates_mixed": lambda n: _BUILDERS["mixed"](n, F(1, 10), F(1, 4), F(1, 10), F(9, 10)),
    "candidates_rp_abs": lambda n: _BUILDERS["rp_abs"](n, F(1, 10), F(1, 10), F(9, 10)),
    "candidates_rp_rel": lambda n: _BUILDERS["rp_rel"](n, F(1, 5), F(1, 10), F(9, 10)),
    "candidates_rp_mixed": lambda n: _BUILDERS["rp_mixed"](
        n, F(1, 10), F(1, 4), F(1, 10), F(9, 10)),
    "min_coverage": lambda n: min_coverage(
        "bernoulli", n, Absolute(F(1, 10)), UNBIASED, F(1, 10), F(9, 10)),
    "indicator_coverage": lambda n: indicator_coverage(
        "bernoulli", n, Absolute(F(1, 10)), UNBIASED, F(1, 2)),
    "grid_min_coverage": lambda n: grid_min_coverage(
        "bernoulli", n, Absolute(F(1, 10)), UNBIASED, F(1, 10), F(9, 10),
        GridSpec.divide(F(1, 10), F(9, 10), 100)),
}


@pytest.mark.parametrize("n", [0, -3, True, 2.5])
@pytest.mark.parametrize("entry", sorted(_N_ENTRY_POINTS))
def test_invalid_n_rejected_at_every_entry_point(entry, n):
    with pytest.raises(DomainError, match="n must be a positive integer"):
        _N_ENTRY_POINTS[entry](n)


# ---------------------------------------------------------------------------
# dispatch

def test_candidate_set_for_dispatch():
    a, b = F(1, 4), F(3, 4)
    assert candidate_set_for(6, Absolute(F(1, 8)), UNBIASED, a, b).rule == (
        "absolute/unbiased"
    )
    assert candidate_set_for(6, Relative(F(1, 8)), UNBIASED, a, b).rule == (
        "relative/unbiased"
    )
    assert candidate_set_for(
        6, Mixed(F(1, 4), F(1, 2)), UNBIASED, a, b
    ).rule == "mixed/unbiased"
    est = RangePreserving(a, b)
    assert candidate_set_for(6, Absolute(F(1, 8)), est, a, b).rule == (
        "absolute/range-preserving"
    )
    assert candidate_set_for(6, Relative(F(1, 8)), est, a, b).rule == (
        "relative/range-preserving"
    )
    assert candidate_set_for(
        6, Mixed(F(1, 4), F(1, 2)), est, a, b
    ).rule == "mixed/range-preserving"


def test_candidate_set_for_requires_matching_clamp():
    est = RangePreserving(F(1, 4), F(3, 4))
    with pytest.raises(DomainError, match="must"):
        candidate_set_for(6, Absolute(F(1, 8)), est, F(1, 8), F(3, 4))


def test_candidate_set_for_rejects_an_unknown_estimator():
    with pytest.raises(DomainError, match="unknown criterion/estimator pair"):
        candidate_set_for(6, Absolute(F(1, 8)), object(), F(1, 4), F(3, 4))


def test_invalid_interval_rejected():
    with pytest.raises(DomainError):
        candidate_set_for(5, Absolute(F(1, 4)), UNBIASED, F(3, 4), F(1, 4))
    with pytest.raises(DomainError):
        candidate_set_for(5, Absolute(F(1, 4)), UNBIASED, F(1, 2), F(1, 2))


# ---------------------------------------------------------------------------
# the set last built is reused while something holds it

@pytest.fixture
def builds(monkeypatch):
    """How many candidate sets have been built: `_Spec.frame` runs once per build."""
    count = [0]
    frame = candidates._Spec.frame

    def counting(spec, n):
        count[0] += 1
        return frame(spec, n)

    monkeypatch.setattr(candidates._Spec, "frame", counting)
    gc.collect()  # no set of an earlier test is still held
    return count


def fresh(n, *query):
    """The numerators of a set built afresh, with no set held by anyone."""
    gc.collect()
    return candidate_set_for(n, *query).numerators.tolist()


def test_min_coverage_then_grid_builds_the_candidate_set_once(builds):
    query = (Absolute(F(3, 29)), UNBIASED, F(1, 29), F(27, 29))
    report = min_coverage("bernoulli", 31, *query)
    grid_min_coverage("bernoulli", 31, *query, GridSpec.divide(*query[2:], cells=100))
    assert builds[0] == 1
    assert candidate_set_for(31, *query) is report.candidate_set
    assert builds[0] == 1
    cset = report.candidate_set
    for name in ("numerators", "run", "k", "floats"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(cset, name)[0] = 0
    # nothing here outlives its report
    del report, cset
    gc.collect()
    assert min_coverage("bernoulli", 31, *query).candidate_set is not None
    assert builds[0] == 2


def test_interleaved_queries_never_get_each_others_set(builds):
    one = (Absolute(F(2, 27)), UNBIASED, F(0), F(1))
    two = (Mixed(F(1, 27), F(1, 3)), RangePreserving(F(1, 27), F(26, 27)), F(1, 27), F(26, 27))
    expected = {(n, i): fresh(n, *q) for n in (17, 18) for i, q in enumerate((one, two))}
    held = []
    calls = [(17, 0), (17, 1), (17, 0), (18, 0), (18, 0), (17, 0), (18, 1), (17, 1), (18, 1)]
    for n, i in calls:
        cset = candidate_set_for(n, *(one, two)[i])
        assert (cset.n, cset.rule) == (n, ("absolute/unbiased", "mixed/range-preserving")[i])
        assert cset.numerators.tolist() == expected[n, i]
        held.append(cset)
    # only a repeat of the last query reuses its set
    assert builds[0] == 4 + 8
    assert held[4] is held[3] and len({id(x) for x in held}) == 8


@pytest.mark.parametrize("a,b,warm", [(0.5, 1, (F(1, 2), 1)), (0, True, (0, 1)),
                                      (True, F(3, 2), (1, F(3, 2)))])
def test_float_or_bool_endpoint_rejected_cold_and_warm(a, b, warm):
    # a float or a bool equals and hashes like the exact number: a warm
    # cache must not let it through
    crit = Absolute(F(1, 10))
    candidates._spec.cache_clear()
    gc.collect()
    for _ in ("cold", "warm"):
        with pytest.raises(DomainError, match="float|bool"):
            candidate_set_for(10, crit, UNBIASED, a, b)
        held = candidate_set_for(10, crit, UNBIASED, *warm)
    assert held.rule == "absolute/unbiased"  # held: the warm call finds it


@pytest.mark.parametrize("build", [
    lambda: candidate_set_for(10**20, Absolute(F(1, 10)), UNBIASED, F(0), F(1)),
    # a relative lattice of about 2 * 10**15 points
    lambda: min_coverage("poisson", 1000, Relative(F(1, 5)), UNBIASED, F(10**12),
                         F(2 * 10**12)),
    lambda: min_coverage("poisson", 10, Relative(F(1, 5)), UNBIASED, F(10**30), F(2 * 10**30)),
    lambda: min_sample_size(SampleSizeQuery("bernoulli", Absolute(F(1, 10)), UNBIASED, F(0),
                                            F(1), F(1, 20), n_start=10**19, n_max=10**19 + 5)),
], ids=["n=10^20", "poisson-10^12", "poisson-10^30", "search-from-10^19"])
def test_a_set_past_the_candidate_limit_is_a_domain_error(build):
    with pytest.raises(DomainError, match=f"at most {candidates.MAX_CANDIDATES} points"):
        build()


def test_the_candidate_limit_reads_the_cardinality_bound(monkeypatch):
    spec = (101, Absolute(F(1, 10)), UNBIASED, F(0), F(1))
    bound = candidate_set_for(*spec).cardinality_bound
    monkeypatch.setattr(candidates, "MAX_CANDIDATES", bound)
    assert len(candidate_set_for(*spec)) > 0
    monkeypatch.setattr(candidates, "MAX_CANDIDATES", bound - 1)
    with pytest.raises(DomainError, match="cardinality bound"):
        candidate_set_for(*spec)
