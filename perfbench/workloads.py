"""The benchmark's two workloads and the closed loop that runs them.

Each workload is a list of jobs: a fixed north-star part plus a part drawn
from the workload seed.  The fixed part carries most of the cost and the
seeded part is drawn from ranges of nearly equal cost, so that a run's
figures move with the program rather than with the seed.  Jobs are run one
after another by a single caller, each only after the previous answer came
back, with threads=1.  Every call goes through an attribute lookup on the
`covsize` package at call time, so that a traced run can intercept it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import covsize
from covsize import (
    BERNOULLI,
    POISSON,
    Absolute,
    DistributionFamily,
    GridSpec,
    Mixed,
    RangePreserving,
    Relative,
    SampleSizeQuery,
    UNBIASED,
    register_family,
)

import speed

F = Fraction
DELTA = F(1, 20)
# bounds a search that a broken program never ends, well above every answer
N_MAX = 1000
GRID_CELLS = 10_000
# criterion 1's seed: the fixed certify instances are drawn the way it draws them
CERTIFY_FIXED_SEED = 20260801

PAIRS = (
    ("absolute", "unbiased"),
    ("relative", "unbiased"),
    ("mixed", "unbiased"),
    ("absolute", "range-preserving"),
    ("relative", "range-preserving"),
    ("mixed", "range-preserving"),
)


class Steps(list):
    """(wall, cpu) seconds of each step, in the order the steps ran.

    With `calibrate`, the reference kernel is timed before the first step and
    after each block of steps that took speed.BLOCK_S, also inside a search,
    and the times of a block are divided by its speed factor: they are
    reference seconds (see speed.py).  The kernel's own time counts in no
    step.  Without it, the times are raw seconds.
    """

    def __init__(self, calibrate: bool = False) -> None:
        super().__init__()
        self.factors: list[float] = []  # each block's speed factor by wall time
        self._calibrate = calibrate
        self._first = 0  # the open block's first step
        if calibrate:
            self._before = speed.kernel_s()
            self._block_start = time.perf_counter()

    def start(self) -> None:
        self._mark = (time.perf_counter(), time.process_time())

    def lap(self) -> None:
        now = (time.perf_counter(), time.process_time())
        self.append((now[0] - self._mark[0], now[1] - self._mark[1]))
        self._mark = now
        if self._calibrate and now[0] - self._block_start >= speed.BLOCK_S:
            self.close_block()
            self.start()

    def close_block(self) -> None:
        """Time the kernel and convert the open block to reference seconds."""
        if not self._calibrate or self._first == len(self):
            return
        after = speed.kernel_s()
        by_wall, by_cpu = speed.factor(self._before, after)
        self[self._first:] = [(wall / by_wall, cpu / by_cpu) for wall, cpu in self[self._first:]]
        self.factors.append(by_wall)
        self._before, self._first = after, len(self)
        self._block_start = time.perf_counter()


@dataclass(frozen=True)
class Search:
    """One `min_sample_size` query; a step is one examined n.

    `expected` is the reference n_min when one is known.  `reference_family`
    names the built-in family that a clone family must reproduce.
    """

    query: SampleSizeQuery
    expected: Optional[int] = None
    reference_family: Optional[str] = None

    @property
    def spec(self) -> tuple:
        q = self.query
        return q.family, q.criterion, q.estimator, q.a, q.b

    def run(self, steps: Steps):
        steps.start()
        return covsize.min_sample_size(
            self.query, progress=lambda n, value: steps.lap(), threads=1,
        )


@dataclass(frozen=True)
class MinCoverage:
    """One `min_coverage` call at a fixed n; a step is the call.

    `passes` is the known side of 1 - delta for this n, when one is known.
    """

    family: str
    n: int
    criterion: object
    estimator: object
    a: Fraction
    b: Fraction
    passes: Optional[bool] = None
    reference_family: Optional[str] = None

    @property
    def spec(self) -> tuple:
        return self.family, self.criterion, self.estimator, self.a, self.b

    def run(self, steps: Steps) -> tuple[float, Fraction]:
        steps.start()
        report = covsize.min_coverage(
            self.family, self.n, self.criterion, self.estimator, self.a, self.b,
            threads=1,
        )
        steps.lap()
        return report.min_coverage, report.argmin_theta


@dataclass(frozen=True)
class Certify:
    """One criterion-1 instance: candidate minimum and 10^4-cell grid minimum."""

    family: str
    n: int
    criterion: object
    estimator: object
    a: Fraction
    b: Fraction

    @property
    def spec(self) -> tuple:
        return self.family, self.criterion, self.estimator, self.a, self.b

    def run(self, steps: Steps) -> tuple[float, Fraction, float, Fraction]:
        args = (self.family, self.n, self.criterion, self.estimator, self.a, self.b)
        steps.start()
        report = covsize.min_coverage(*args, threads=1)
        grid = GridSpec.divide(self.a, self.b, cells=GRID_CELLS)
        grid_value, grid_theta = covsize.grid_min_coverage(*args, grid)
        steps.lap()
        return report.min_coverage, report.argmin_theta, grid_value, grid_theta


def _query(family, criterion, estimator, a, b, n_start=2) -> SampleSizeQuery:
    return SampleSizeQuery(
        family=family, criterion=criterion, estimator=estimator,
        a=F(a), b=F(b), delta=DELTA, n_start=n_start, n_max=N_MAX,
    )


def production_jobs(rng: random.Random) -> tuple[list, list]:
    register_clones()
    rel = Relative(F(1, 5))
    fixed = [
        # searches from n = 2: mostly rejections at small n
        Search(_query("bernoulli", Absolute(F(1, 10)), UNBIASED, 0, 1), expected=101),
        Search(_query("poisson", Relative(F(1, 4)), UNBIASED, 1, 5), expected=65),
        # the decisive end of the golden-156 walk; from n = 2 it costs 5 s
        Search(_query("poisson", Absolute(F(1, 2)), UNBIASED, 1, 10, n_start=146),
               expected=156),
        # large n without the search layer: the last 10 n of the golden-901
        # walk, where only n = 901 clears 1 - delta
        *(MinCoverage("bernoulli", n, rel, UNBIASED, F(1, 10), F(9, 10), passes=n == 901)
          for n in range(892, 902)),
        # clone families on the scalar path: the Poisson relative search
        # again, and a Bernoulli call at n = 900
        Search(_query("poisson-clone", Relative(F(1, 4)), UNBIASED, 1, 5),
               expected=65, reference_family="poisson"),
        MinCoverage("bernoulli-clone", 900, rel, UNBIASED, F(1, 10), F(9, 10),
                    reference_family="bernoulli"),
    ]
    # a range-preserving mixed search on [a, 1 - a] with n_min 96, whose two
    # choices of a differ in cost by about 1 % of a pass; one n of the
    # epsilon = 1/100 query near its n_min of about 9600; one clone call
    a = F(rng.choice((1, 2)), 20)
    seeded = [
        Search(_query("bernoulli", Mixed(F(1, 10), F(1, 4)),
                      RangePreserving(a, 1 - a), a, 1 - a)),
        MinCoverage("bernoulli", rng.randint(9550, 9650), Absolute(F(1, 100)),
                    UNBIASED, F(0), F(1)),
        MinCoverage("bernoulli-clone", rng.randint(850, 950), rel, UNBIASED, F(1, 10),
                    F(9, 10), reference_family="bernoulli"),
    ]
    return fixed, seeded


def random_instance(rng: random.Random, pair: tuple[str, str], family: str) -> tuple:
    """(n, criterion, estimator, a, b), drawn as acceptance criterion 1 draws them."""
    crit_kind, est_kind = pair
    n = rng.randint(2, 60)
    if family == "bernoulli":
        den = 40
        needs_positive_a = crit_kind != "absolute" or est_kind == "range-preserving"
        lo = rng.randint(1 if needs_positive_a else 0, den - 2)
        hi = rng.randint(lo + 1, den)
        eps_abs = F(rng.randint(1, 30), den)
    else:
        den = 8
        lo = rng.randint(4, 100)
        hi = rng.randint(lo + 2, min(lo + 48, 160))
        eps_abs = F(rng.randint(2, 16), den)
    a, b = F(lo, den), F(hi, den)
    eps_rel = F(rng.randint(2, 36), 40)
    if crit_kind == "absolute":
        crit = Absolute(eps_abs)
    elif crit_kind == "relative":
        crit = Relative(eps_rel)
    else:
        c = a + F(rng.randint(1, 15), 16) * (b - a)
        crit = Mixed(c * eps_rel, eps_rel)
    est = RangePreserving(a, b) if est_kind == "range-preserving" else UNBIASED
    return n, crit, est, a, b


def certify_jobs(rng: random.Random) -> tuple[list, list]:
    criterion_rng = random.Random(CERTIFY_FIXED_SEED)
    fixed = [
        Certify(family, *random_instance(criterion_rng, pair, family))
        for family, count in (("bernoulli", 20), ("poisson", 2))
        for pair in PAIRS
        for _ in range(count)
    ]
    # Bernoulli only, whose grid cost is nearly constant per instance; one
    # Poisson grid can cost as much as a hundred others
    seeded = [
        Certify("bernoulli", *random_instance(rng, pair, "bernoulli"))
        for pair in PAIRS
        for _ in range(5)
    ]
    return fixed, seeded


def register_clones() -> None:
    """Register Bernoulli and Poisson clones that give only log_pmf.

    Without the batch functions every probability of a clone goes through
    the families layer's scalar fallback, the path custom families keep.
    """
    for fam in (BERNOULLI, POISSON):
        register_family(DistributionFamily(
            name=f"{fam.name}-clone",
            param_space=fam.param_space,
            support_bound=fam.support_bound,
            log_pmf=fam.log_pmf,
            tail_cutoff=fam.tail_cutoff,
        ))


WORKLOADS = {
    "production": production_jobs,
    "certify": certify_jobs,
}


def build(workload: str, seed: int) -> tuple[list, int]:
    """The workload's jobs for this seed, after one warm-up call, and how
    many of them, from the first, are the fixed part."""
    fixed, seeded = WORKLOADS[workload](random.Random(seed))
    jobs = fixed + seeded
    family, criterion, estimator, a, b = jobs[0].spec
    covsize.min_coverage(family, 10, criterion, estimator, a, b, threads=1)
    return jobs, len(fixed)


def run_pass(jobs: list, fixed: int, calibrate: bool) -> tuple[list, Steps, int]:
    """Answer every job in order; returns the answers, the step times, in
    reference seconds if `calibrate` (see Steps), and how many steps, from
    the first, the first `fixed` jobs made."""
    steps = Steps(calibrate)
    answers = [job.run(steps) for job in jobs[:fixed]]
    fixed_steps = len(steps)
    answers += [job.run(steps) for job in jobs[fixed:]]
    steps.close_block()
    return answers, steps, fixed_steps
