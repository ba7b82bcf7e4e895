"""Integer candidate sets against their definitions.

The windows `acceptance_windows` computes along each run of a candidate set
must equal the window found from the definition by bisection on k in Fractions
(`_reference.reference_window`), the float of each theta must be
`float(theta)` to the last bit, and the points, tags and evaluations made on
first access must equal the reference candidates in order.
"""

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

from covsize.coverage import acceptance_windows

from _reference import reference_candidates, reference_window
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


def check_windows_and_floats(cset, n, criterion, estimator):
    lo, hi, open_lo, open_hi = acceptance_windows(n, criterion, estimator, cset.runs,
                                                  cset.run, cset.k)
    got = list(zip(lo.tolist(), hi.tolist(), open_lo.tolist(), open_hi.tolist()))
    assert got == [reference_window(n, criterion, estimator, t) for t in cset.thetas]
    assert [x.hex() for x in cset.floats.tolist()] == [float(t).hex() for t in cset.thetas]


@settings(max_examples=300)
@given(call=builder_calls())
def test_affine_windows_match_the_definition_on_builder_calls(call):
    kind, args = call
    n, criterion, estimator, a, b = query_of(kind, args)
    try:
        cset = candidate_set_for(n, criterion, estimator, a, b)
    except DomainError:
        return  # drawn configuration violates a precondition; nothing to check
    check_windows_and_floats(cset, n, criterion, estimator)
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
    check_windows_and_floats(cset, n, criterion, estimator)
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


LARGE_N = [
    # int64 on every route
    (Relative(F(1, 997)), UNBIASED, F(1, 10), F(9, 10), [F(1, 10), F(1, 2), F(9, 10)], np.int64),
    # awkward denominators on both sides of the crossover, clamped
    (Mixed(F(7, 9973), F(13, 1009)), RangePreserving(F(1, 1000), F(1, 2)), F(1, 1000), F(1, 2),
     [F(7 * 1009, 9973 * 13), F(1, 1000) + F(7, 9973), F(1, 2) / (1 + F(13, 1009))], np.int64),
    # a margin denominator near 2**20: the numerators and each window
    # coefficient fit int64, a coefficient times k does not, so int64 windows
    # would wrap around silently
    (Relative(F(1, 2**20 + 7)), UNBIASED, F(1, 10), F(9, 10), [F(1, 2)], np.int64),
    # a margin denominator above 2**40: the integers leave int64
    (Relative(F(2**40 + 1, 2**42 + 3)), RangePreserving(F(1, 10), F(9, 10)), F(1, 10), F(9, 10),
     [F(1, 10) / (1 - F(2**40 + 1, 2**42 + 3)), F(1, 2), F(9, 10)], object),
]


@pytest.mark.parametrize("criterion, estimator, a, b, nears, dtype", LARGE_N,
                         ids=["relative-1/997", "mixed-awkward", "relative-2**20", "relative-2**40"])
def test_windows_at_the_default_n_max(criterion, estimator, a, b, nears, dtype):
    n = N_MAX
    for near in nears:
        window = (near - F(3, n), near + F(3, n))
        cset = candidate_set_for(n, criterion, estimator, a, b, window=window)
        assert cset.numerators.dtype == dtype
        assert any(window[0] <= t <= window[1] for t in cset.thetas)
        check_windows_and_floats(cset, n, criterion, estimator)
