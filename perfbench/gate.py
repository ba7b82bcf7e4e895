"""Correctness gate: every answer is checked outside the timed region.

`check(job, answer)` returns the list of problems with one answer; an empty
list means it passed.  The checks are:

- a search finds an answer, its trace is gapless from n_start to n_min, no
  n before n_min clears 1 - delta, and n_min equals the reference when one
  is known (the goldens 101 and 156, and the frozen 65 and 261);
- at n_min and n_min - 1 of a search, and for every fixed-n call, the
  brute-force `indicator_coverage` at the reported theta matches the reported
  value within TOL and lies on the known side of 1 - delta;
- a certify instance's candidate minimum and grid minimum differ by at most
  TOL;
- a clone family's answers equal the built-in family's within TOL, with the
  same argmin theta and hence the same n_min.
"""

from __future__ import annotations

from typing import Optional

import covsize

from workloads import DELTA, Certify, MinCoverage, Search

# the cross-route agreement tolerance of the acceptance suite
TOL = 5e-10
THRESHOLD = float(1 - DELTA)


def _indicator_agrees(family, n, criterion, estimator, theta, value,
                      passes: Optional[bool]) -> list[str]:
    ref = covsize.indicator_coverage(family, n, criterion, estimator, theta)
    problems = []
    if not abs(ref - value) <= TOL:
        problems.append(f"n={n}: reported {value!r}, indicator {ref!r} at theta={theta}")
    if passes is not None and (ref > THRESHOLD) != passes:
        side = "above" if passes else "at or below"
        problems.append(f"n={n}: indicator {ref!r} should be {side} {THRESHOLD!r}")
    return problems


def _reference_agrees(reference_family, n, criterion, estimator, a, b, value, theta,
                      passes: Optional[bool]) -> list[str]:
    ref = covsize.min_coverage(reference_family, n, criterion, estimator, a, b, threads=1)
    problems = []
    if not abs(ref.min_coverage - value) <= TOL or ref.argmin_theta != theta:
        problems.append(
            f"n={n}: clone gives {value!r} at {theta}, {reference_family} gives "
            f"{ref.min_coverage!r} at {ref.argmin_theta}"
        )
    if passes is not None and (ref.min_coverage > THRESHOLD) != passes:
        problems.append(f"n={n}: {reference_family} lies on the other side of {THRESHOLD!r}")
    return problems


def _check_search(job: Search, result) -> list[str]:
    q = job.query
    if result.n_min is None:
        return [f"no n up to {q.n_max} clears {THRESHOLD!r}"]
    problems = []
    if [n for n, _, _ in result.trace] != list(range(q.n_start, result.n_min + 1)):
        problems.append("trace is not gapless from n_start to n_min")
    if any(value > THRESHOLD for _, value, _ in result.trace[:-1]):
        problems.append("an n before n_min clears the threshold")
    if job.expected is not None and result.n_min != job.expected:
        problems.append(f"n_min {result.n_min}, reference {job.expected}")
    for n, value, theta in result.trace[-2:]:
        passes = n == result.n_min
        problems += _indicator_agrees(q.family, n, q.criterion, q.estimator, theta,
                                      value, passes)
        if job.reference_family is not None:
            problems += _reference_agrees(job.reference_family, n, q.criterion,
                                          q.estimator, q.a, q.b, value, theta,
                                          passes)
    return problems


def _check_min_coverage(job: MinCoverage, answer) -> list[str]:
    value, theta = answer
    problems = _indicator_agrees(job.family, job.n, job.criterion, job.estimator,
                                 theta, value, job.passes)
    if job.reference_family is not None:
        problems += _reference_agrees(job.reference_family, job.n, job.criterion,
                                      job.estimator, job.a, job.b, value, theta,
                                      job.passes)
    return problems


def _check_certify(job: Certify, answer) -> list[str]:
    value, _, grid_value, _ = answer
    if abs(value - grid_value) <= TOL:
        return []
    return [f"n={job.n}: candidate minimum {value!r}, grid minimum {grid_value!r}"]


_CHECKS = {Search: _check_search, MinCoverage: _check_min_coverage, Certify: _check_certify}


def check(job, answer) -> list[str]:
    return _CHECKS[type(job)](job, answer)
