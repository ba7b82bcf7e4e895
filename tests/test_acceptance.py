"""Acceptance suite: one criterion per test, one printed verdict line each.

Every test prints `criterion N (<what it checks>): PASS/FAIL ...` directly to
the terminal (bypassing capture) so a full run shows seven verdict lines.
Randomized criteria use fixed seeds; the frozen reference sample sizes come
from scripts/compute_goldens.py, which evaluates every coverage number
through the brute-force indicator path rather than the window formulas.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from covsize import (
    Absolute,
    GridSpec,
    Mixed,
    RangePreserving,
    Relative,
    SampleSizeQuery,
    UNBIASED,
    acceptance_window,
    candidate_set_for,
    coverage,
    grid_min_coverage,
    indicator_coverage,
    min_coverage,
    min_sample_size,
)
from covsize.coverage import acceptance_windows

from tests._reference import PAST_TOP

F = Fraction

PAIRS = [
    ("absolute", "unbiased"),
    ("relative", "unbiased"),
    ("mixed", "unbiased"),
    ("absolute", "range-preserving"),
    ("relative", "range-preserving"),
    ("mixed", "range-preserving"),
]


def announce(capsys, line):
    with capsys.disabled():
        print(f"\n{line}")


def random_instance(rng, pair, family):
    """One (n, criterion, estimator, a, b) instance for a criterion/estimator pair."""
    crit_kind, est_kind = pair
    n = rng.randint(2, 60)
    if family == "bernoulli":
        den = 40
        needs_positive_a = crit_kind != "absolute" or est_kind == "range-preserving"
        lo_min = 1 if needs_positive_a else 0
        lo = rng.randint(lo_min, den - 2)
        hi = rng.randint(lo + 1, den)
        a, b = F(lo, den), F(hi, den)
        eps_abs = F(rng.randint(1, 30), den)
    else:
        den = 8
        lo = rng.randint(4, 100)  # theta range inside [1/2, 20]
        hi = rng.randint(lo + 2, min(lo + 48, 160))
        a, b = F(lo, den), F(hi, den)
        eps_abs = F(rng.randint(2, 16), den)
    eps_rel = F(rng.randint(2, 36), 40)
    if crit_kind == "absolute":
        crit = Absolute(eps_abs)
    elif crit_kind == "relative":
        crit = Relative(eps_rel)
    else:
        # place the crossover strictly inside (a, b)
        c = a + F(rng.randint(1, 15), 16) * (b - a)
        crit = Mixed(c * eps_rel, eps_rel)
    est = RangePreserving(a, b) if est_kind == "range-preserving" else UNBIASED
    return n, crit, est, a, b


@pytest.mark.slow
def test_criterion_1_candidate_minimum_equals_grid_minimum(capsys):
    """Worst case found on the candidate set == dense-scan worst case."""
    rng = random.Random(20260801)
    worst = 0.0
    failures = []
    bernoulli_elapsed = 0.0
    for family, count in (("bernoulli", 200), ("poisson", 50)):
        t0 = time.time()
        for pair in PAIRS:
            for _ in range(count):
                n, crit, est, a, b = random_instance(rng, pair, family)
                report = min_coverage(family, n, crit, est, a, b)
                grid = GridSpec.divide(a, b, cells=10_000, include_candidates=True)
                grid_min, _ = grid_min_coverage(family, n, crit, est, a, b, grid)
                gap = abs(report.min_coverage - grid_min)
                worst = max(worst, gap)
                if gap > 5e-10:
                    failures.append((family, pair, n, str(a), str(b), gap))
        if family == "bernoulli":
            bernoulli_elapsed = time.time() - t0
    ok = not failures and bernoulli_elapsed < 120.0
    announce(
        capsys,
        f"criterion 1 (candidate minimum equals 10^4-cell grid minimum, "
        f"1200 bernoulli + 300 poisson instances): {'PASS' if ok else 'FAIL'} "
        f"max|diff|={worst:.2e}, tol 5e-10; bernoulli part {bernoulli_elapsed:.1f}s "
        f"(budget 120s)",
    )
    assert not failures, failures[:5]
    assert bernoulli_elapsed < 120.0


@pytest.mark.slow
def test_criterion_2_window_formula_equals_indicator(capsys):
    """Closed-form coverage == event-by-event indicator sum, 10^4 triples."""
    rng = random.Random(20260802)
    worst = 0.0
    failures = []
    for i in range(10_000):
        family = "bernoulli" if i % 3 else "poisson"
        pair = PAIRS[rng.randrange(6)]
        n, crit, est, a, b = random_instance(rng, pair, family)
        if family == "poisson":
            n = rng.randint(2, 40)
            b = min(b, F(12))
            if a >= b:
                a = b - F(1, 2)
            if isinstance(est, RangePreserving):
                est = RangePreserving(a, b)
        # theta inside [a, b] keeps every estimator/criterion combination legal
        t = rng.randint(0, 64)
        theta = a + F(t, 64) * (b - a)
        lhs = coverage(family, n, crit, est, theta)
        rhs = indicator_coverage(family, n, crit, est, theta)
        gap = abs(lhs - rhs)
        worst = max(worst, gap)
        if gap > 1e-12:
            failures.append((family, pair, n, str(theta), gap))
    ok = not failures
    announce(
        capsys,
        f"criterion 2 (window formula equals indicator evaluation, 10^4 triples): "
        f"{'PASS' if ok else 'FAIL'} max|diff|={worst:.2e}, tol 1e-12",
    )
    assert not failures, failures[:5]


@pytest.mark.slow
def test_criterion_3_window_constant_between_candidates(capsys):
    """The acceptance window never changes strictly between candidate points."""
    rng = random.Random(20260803)
    checked_instances = 0
    checked_points = 0
    violations = []
    while checked_instances < 100:
        pair = PAIRS[checked_instances % 6]
        family = "bernoulli" if checked_instances % 2 else "poisson"
        n, crit, est, a, b = random_instance(rng, pair, family)
        cset = candidate_set_for(n, crit, est, a, b)
        checked_instances += 1
        gaps = list(zip(cset.thetas, cset.thetas[1:]))
        probes = [left + F(j, 51) * (right - left) for left, right in gaps for j in range(1, 51)]
        # every probe in one call
        lo, hi = (x.tolist() for x in acceptance_windows(n, crit, est, probes))
        found = [(None if l == -PAST_TOP else l, None if h == PAST_TOP else h)
                 for l, h in zip(lo, hi)]
        spot = checked_instances * 37 % len(probes)
        assert found[spot] == acceptance_window(n, crit, est, probes[spot])
        checked_points += len(probes)
        for i, (left, right) in enumerate(gaps):
            windows = set(found[50 * i:50 * i + 50])
            if len(windows) != 1:
                violations.append(
                    (family, pair, n, str(left), str(right), sorted(windows))
                )
    ok = not violations
    announce(
        capsys,
        f"criterion 3 (acceptance window constant between consecutive candidates, "
        f"100 instances, 50 interior probes per gap, {checked_points} probes): "
        f"{'PASS' if ok else 'FAIL'} {len(violations)} violations",
    )
    assert not violations, violations[:5]


def test_criterion_4_cardinality_bounds_are_strict(capsys):
    """Every candidate set stays strictly below its stated cardinality bound."""
    rng = random.Random(20260804)
    checked = 0
    violations = []

    def check(n, crit, est, a, b):
        nonlocal checked
        cset = candidate_set_for(n, crit, est, a, b)
        checked += 1
        if not len(cset) < cset.cardinality_bound:
            violations.append((n, str(crit), str(a), str(b), len(cset),
                               str(cset.cardinality_bound)))

    for family in ("bernoulli", "poisson"):
        for pair in PAIRS:
            for _ in range(50):
                n, crit, est, a, b = random_instance(rng, pair, family)
                check(n, crit, est, a, b)
    # configurations that break the single-closed-form counts
    check(11, Relative(F(4, 5)), RangePreserving(F(2, 5), F(37, 40)),
          F(2, 5), F(37, 40))
    check(12, Relative(F(4, 5)), RangePreserving(F(2, 5), F(37, 40)),
          F(2, 5), F(37, 40))
    check(12, Relative(F(3, 4)), RangePreserving(F(17, 40), F(37, 40)),
          F(17, 40), F(37, 40))
    check(13, Relative(F(4, 5)), RangePreserving(F(3, 8), F(7, 8)),
          F(3, 8), F(7, 8))
    check(56, Mixed(F(227, 800), F(4, 5)),
          RangePreserving(F(11, 40), F(7, 10)), F(11, 40), F(7, 10))
    ok = not violations
    announce(
        capsys,
        f"criterion 4 (candidate count strictly below its bound, {checked} "
        f"instances): {'PASS' if ok else 'FAIL'} {len(violations)} violations",
    )
    assert not violations, violations[:5]


def test_criterion_5_degenerate_clamp_coverage_is_one(capsys):
    """When the clamp makes every outcome acceptable, coverage is exactly 1."""
    configs = [
        # absolute margin wider than the interval
        ("bernoulli", Absolute(F(1, 2)), F(2, 5), F(3, 5)),
        ("poisson", Absolute(F(3)), F(2), F(4)),
        # relative cones covering the whole interval from both ends
        ("bernoulli", Relative(F(1, 2)), F(2, 3), F(3, 4)),
        ("poisson", Relative(F(3, 5)), F(3, 2), F(2)),
    ]
    problems = []
    for family, crit, a, b in configs:
        est = RangePreserving(a, b)
        for n in (1, 2, 5, 17):
            report = min_coverage(family, n, crit, est, a, b)
            if report.min_coverage != 1.0:
                problems.append((family, str(crit), n, report.min_coverage))
        for n_start in (1, 3, 8):
            query = SampleSizeQuery(
                family=family, criterion=crit, estimator=est, a=a, b=b,
                delta=F(1, 20), n_start=n_start, n_max=n_start + 10,
            )
            result = min_sample_size(query)
            if result.n_min != n_start or result.coverage_at_n_min != 1.0:
                problems.append((family, str(crit), "n_start", n_start, result.n_min))
    ok = not problems
    announce(
        capsys,
        f"criterion 5 (degenerate clamp: coverage exactly 1.0 and the search "
        f"stops at n_start): {'PASS' if ok else 'FAIL'} "
        f"{len(problems)} problems",
    )
    assert not problems, problems


# frozen by scripts/compute_goldens.py (brute-force oracle, 10^4-cell grids,
# decision margins >= 2.7e-4 at both n_min-1 and n_min in every case)
GOLDEN_SAMPLE_SIZES = [
    ("bernoulli", Absolute(F(1, 10)), F(0), F(1), 101),
    ("bernoulli", Relative(F(1, 5)), F(1, 10), F(9, 10), 901),
    ("poisson", Absolute(F(1, 2)), F(1), F(10), 156),
]


@pytest.mark.slow
def test_criterion_6_frozen_reference_sample_sizes(capsys):
    """The production search lands exactly on the oracle-derived sample sizes."""
    mismatches = []
    for family, crit, a, b, expected in GOLDEN_SAMPLE_SIZES:
        query = SampleSizeQuery(
            family=family, criterion=crit, estimator=UNBIASED,
            a=a, b=b, delta=F(1, 20), n_start=2, n_max=1000,
        )
        result = min_sample_size(query)
        trace_ns = [n for n, _, _ in result.trace]
        if result.n_min != expected or trace_ns != list(range(2, result.n_min + 1)):
            mismatches.append((family, str(crit), expected, result.n_min))
    ok = not mismatches
    announce(
        capsys,
        f"criterion 6 (frozen reference sample sizes 101/901/156 reproduced "
        f"exactly): {'PASS' if ok else 'FAIL'} {mismatches or ''}",
    )
    assert not mismatches, mismatches


CLI_INVOCATIONS = [
    ["sample-size", "--family", "bernoulli", "--abs-eps", "1/4", "--a", "0",
     "--b", "1", "--delta", "1/10", "--trace", "--format", "json"],
    ["min-coverage", "--family", "bernoulli", "--n", "45", "--rel-eps", "1/5",
     "--a", "1/10", "--b", "9/10", "--format", "json", "--evaluations"],
    ["coverage-curve", "--family", "poisson", "--n", "8", "--abs-eps", "1/2",
     "--a", "1", "--b", "3", "--cells", "100", "--format", "csv"],
    ["candidates", "--n", "30", "--abs-eps", "1/8", "--rel-eps", "1/3",
     "--a", "1/8", "--b", "7/8", "--estimator", "range-preserving",
     "--format", "json"],
    ["verify", "--family", "bernoulli", "--n", "25", "--abs-eps", "1/10",
     "--a", "0", "--b", "1", "--cells", "1000", "--format", "json"],
]


@pytest.mark.slow
def test_criterion_7_cli_output_is_deterministic(capsys):
    """Each subcommand, run twice with 4 worker threads, emits identical bytes."""
    env = dict(os.environ, COVSIZE_THREADS="4")
    unstable = []
    for argv in CLI_INVOCATIONS:
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "covsize.cli", *argv],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0, (argv, proc.stderr)
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1]:
            unstable.append(argv[0])
    ok = not unstable
    announce(
        capsys,
        f"criterion 7 (every CLI subcommand byte-identical across repeated "
        f"4-thread runs): {'PASS' if ok else 'FAIL'} {unstable or ''}",
    )
    assert not unstable, unstable
