"""Compare `indicator_coverage`, `min_coverage` or `min_sample_size` of two
checkouts value for value.

Draws criterion-1-style instances (both families, all six criterion/
estimator pairs, with the instance generator of tests/test_acceptance.py).
With `--route indicator` (the default) it evaluates `indicator_coverage` at
a random sample of each instance's candidate points (where the acceptance
window changes, so lattice theta are included) and at a few random grid rows
of [a, b].  With `--route min-coverage` it runs `min_coverage` on every
instance and on the production shapes (n = 9622 absolute 1/100, n = 892..901
relative 1/5, n = 96 range-preserving mixed, and the witness sets of the
last two), and records the rule, the cardinality bound, every candidate's
theta, tags and value, and the argmin.  With `--route grid` it runs
`grid_min_coverage` on every instance over a grid of `--cells` cells, once
without and once with the candidate points, and records each value and
theta.  These two routes also run every instance on a copy of its family
without `cdf_batch`, whose probabilities are log-pmf sums, and count its
differences apart from the built-in families', with how many of them are
now exactly 1.0.  Each checkout is run in its own interpreter; the values
must be equal as floats (`==`), not merely close.  With `--route search` it
runs `min_sample_size` on a fixed query set (the goldens 101 / 901 / 156,
the Poisson relative query with n_min 65, the range-preserving mixed query
with n_min 96 for both seeded a, the absolute 1/100 query, and 48 more:
Bernoulli absolute on [0, 1], Bernoulli relative on [1/10, 9/10], Poisson
relative on [1/2, 2] and Bernoulli range-preserving mixed (1/10, eps) on
[1/20, 19/20], for eps in {1/4, 1/5, 1/8, 3/10} and delta in {1/10, 1/20,
1/4}), and records each one's n_min, argmin theta, last two trace entries,
full sweeps and a SHA-256 of its whole trace (every n, value.hex() and
theta), so that a witness that differs anywhere in the walk shows too.

Run from the repository root:
    python3 scripts/compare_indicator.py --other ../old-checkout/src
    python3 scripts/compare_indicator.py --other ../old-checkout/src --route min-coverage
    python3 scripts/compare_indicator.py --other ../old-checkout/src --route grid --cells 2000
    python3 scripts/compare_indicator.py --other ../old-checkout/src --route search

The grid route's time is almost all the log-pmf copies' (93 % of the CPU
time at `--instances 120 --cells 1000`), since every one of their rows takes
the exact path, a pmf sum per row.  Measured per checkout on two shared
Xeon cores (a comparison runs two checkouts): `--instances 120 --cells 40`,
a quick run, takes about 3 s; `--instances 120 --cells 1000` 13 s;
`--instances 30` (10⁴ cells) 52 s; the defaults (1800 instances, 10⁴
cells) 36 min.
"""

import argparse
import dataclasses
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ONE = (1.0).hex()
LOG_PMF = " log-pmf"  # label suffix of a family's copy without cdf_batch


def with_log_pmf_copy(family: str) -> list:
    """[(label, family)] for the built-in family and its log-pmf-only copy."""
    from covsize import get_family

    fam = get_family(family)
    return [(family, fam), (family + LOG_PMF, dataclasses.replace(fam, cdf_batch=None))]


def dump(src: Path, count: int, seed: int, candidates: int, grid_rows: int) -> list:
    """[family, pair, n, theta, value.hex()] for every evaluated point."""
    sys.path[:0] = [str(src), str(ROOT)]
    import covsize
    from covsize import candidate_set_for, indicator_coverage

    if not Path(covsize.__file__).resolve().is_relative_to(src):
        sys.exit(f"covsize was imported from {covsize.__file__}, not {src}")
    from tests.test_acceptance import PAIRS, random_instance

    rng = random.Random(seed)
    out = []
    for i in range(count):
        family = "bernoulli" if i % 4 else "poisson"
        pair = PAIRS[i % 6]
        n, crit, est, a, b = random_instance(rng, pair, family)
        thetas = list(candidate_set_for(n, crit, est, a, b).thetas)
        thetas = rng.sample(thetas, min(candidates, len(thetas)))
        thetas += [a + Fraction(rng.randint(0, 10_000), 10_000) * (b - a)
                   for _ in range(grid_rows)]
        for theta in thetas:
            value = indicator_coverage(family, n, crit, est, theta)
            out.append([family, "/".join(pair), n, str(theta), value.hex()])
    return out


def production_shapes() -> list:
    """(family, n, criterion, estimator, a, b) of the production workload's
    min_coverage calls and its range-preserving mixed search at n_min."""
    from covsize import UNBIASED, Absolute, Mixed, RangePreserving, Relative

    F = Fraction
    shapes = [("bernoulli", 9622, Absolute(F(1, 100)), UNBIASED, F(0), F(1))]
    shapes += [("bernoulli", n, Relative(F(1, 5)), UNBIASED, F(1, 10), F(9, 10))
               for n in range(892, 902)]
    shapes += [("bernoulli", 96, Mixed(F(1, 10), F(1, 4)), RangePreserving(a, 1 - a), a, 1 - a)
               for a in (F(1, 20), F(1, 10))]
    return shapes


def dump_min_coverage(src: Path, count: int, seed: int) -> list:
    """[label, rule, bound, theta, tags, value.hex()] for every candidate of
    every report, then [label, "argmin", min.hex(), argmin theta]."""
    sys.path[:0] = [str(src), str(ROOT)]
    import covsize
    from covsize import min_coverage
    from covsize.minimize import witness_min_coverage

    if not Path(covsize.__file__).resolve().is_relative_to(src):
        sys.exit(f"covsize was imported from {covsize.__file__}, not {src}")
    from tests.test_acceptance import PAIRS, random_instance

    rng = random.Random(seed)
    calls = []
    for i in range(count):
        family = "bernoulli" if i % 4 else "poisson"
        pair = PAIRS[i % 6]
        n, crit, est, a, b = random_instance(rng, pair, family)
        calls += [(f"{label} {'/'.join(pair)} {i}", fam, n, crit, est, a, b)
                  for label, fam in with_log_pmf_copy(family)]
    calls += [(f"production {j}", *shape) for j, shape in enumerate(production_shapes())]
    out = []
    for label, family, n, crit, est, a, b in calls:
        report = min_coverage(family, n, crit, est, a, b)
        reports = [(label, report)]
        if label.startswith("production"):
            near = report.argmin_theta
            reports.append((label + " witness", witness_min_coverage(
                family, n + 1, crit, est, a, b, near=near)))
        for name, rep in reports:
            cset = rep.candidate_set
            for point, (theta, value) in zip(cset.points, rep.evaluations):
                assert point.theta == theta
                out.append([name, cset.rule, str(cset.cardinality_bound), str(theta),
                            ",".join(point.tags), value.hex()])
            out.append([name, "argmin", rep.min_coverage.hex(), str(rep.argmin_theta)])
    return out


def dump_grid(src: Path, count: int, seed: int, cells: int) -> list:
    """[family, pair, n, grid min.hex(), theta, grid-and-candidates min.hex(),
    theta] for every instance."""
    sys.path[:0] = [str(src), str(ROOT)]
    import covsize
    from covsize import GridSpec, grid_min_coverage

    if not Path(covsize.__file__).resolve().is_relative_to(src):
        sys.exit(f"covsize was imported from {covsize.__file__}, not {src}")
    from tests.test_acceptance import PAIRS, random_instance

    rng = random.Random(seed)
    out = []
    for i in range(count):
        family = "bernoulli" if i % 4 else "poisson"
        pair = PAIRS[i % 6]
        n, crit, est, a, b = random_instance(rng, pair, family)
        for label, fam in with_log_pmf_copy(family):
            row = [label, "/".join(pair), n]
            for include in (False, True):
                grid = GridSpec.divide(a, b, cells=cells, include_candidates=include)
                value, theta = grid_min_coverage(fam, n, crit, est, a, b, grid)
                row += [value.hex(), str(theta)]
            out.append(row)
    return out


def search_queries() -> list:
    """[(label, SampleSizeQuery)] of the search route."""
    from covsize import UNBIASED, Absolute, Mixed, RangePreserving, Relative, SampleSizeQuery

    F = Fraction

    def query(family, criterion, a, b, delta=F(1, 20), clamp=False):
        estimator = RangePreserving(a, b) if clamp else UNBIASED
        return SampleSizeQuery(family=family, criterion=criterion, estimator=estimator,
                               a=a, b=b, delta=delta)

    queries = [
        ("golden 101", query("bernoulli", Absolute(F(1, 10)), F(0), F(1))),
        ("golden 901", query("bernoulli", Relative(F(1, 5)), F(1, 10), F(9, 10))),
        ("golden 156", query("poisson", Absolute(F(1, 2)), F(1), F(10))),
        ("poisson relative 65", query("poisson", Relative(F(1, 4)), F(1), F(5))),
        *((f"rp mixed 96 a={a}", query("bernoulli", Mixed(F(1, 10), F(1, 4)), a, 1 - a,
                                       clamp=True))
          for a in (F(1, 20), F(1, 10))),
        ("absolute 1/100", query("bernoulli", Absolute(F(1, 100)), F(0), F(1))),
    ]
    for eps in (F(1, 4), F(1, 5), F(1, 8), F(3, 10)):
        for delta in (F(1, 10), F(1, 20), F(1, 4)):
            queries += [
                (f"bernoulli absolute {eps} delta={delta}",
                 query("bernoulli", Absolute(eps), F(0), F(1), delta)),
                (f"bernoulli relative {eps} delta={delta}",
                 query("bernoulli", Relative(eps), F(1, 10), F(9, 10), delta)),
                (f"poisson relative {eps} delta={delta}",
                 query("poisson", Relative(eps), F(1, 2), F(2), delta)),
                (f"rp mixed 1/10 {eps} delta={delta}",
                 query("bernoulli", Mixed(F(1, 10), eps), F(1, 20), F(19, 20), delta, True)),
            ]
    return queries


def dump_search(src: Path) -> list:
    """[label, n_min, argmin theta, last two [n, value.hex(), theta], full
    sweeps, SHA-256 of the whole trace, CPU seconds] for every query of the
    search route."""
    sys.path[:0] = [str(src), str(ROOT)]
    import hashlib
    import time

    import covsize
    from covsize import min_sample_size

    if not Path(covsize.__file__).resolve().is_relative_to(src):
        sys.exit(f"covsize was imported from {covsize.__file__}, not {src}")
    out = []
    for label, query in search_queries():
        start = time.process_time()
        result = min_sample_size(query)
        cpu = time.process_time() - start
        trace = "".join(f"{n} {value.hex()} {theta}\n" for n, value, theta in result.trace)
        out.append([label, result.n_min, str(result.argmin_theta),
                    [[n, value.hex(), str(theta)] for n, value, theta in result.trace[-2:]],
                    list(result.full_sweeps), hashlib.sha256(trace.encode()).hexdigest(), cpu])
    return out


def log_pmf_summary(diffs: list) -> str:
    """Differences on built-in families and on log-pmf copies; a copy's row
    is "now 1.0" when a value moved and every value that moved (a hex
    float field; a theta may move with it) is now exactly 1.0."""
    copies = [(a, b) for a, b in diffs if LOG_PMF in a[0]]
    moved = [[(x, y) for x, y in zip(a, b) if x != y and str(x).startswith(("0x", "-0x"))]
             for a, b in copies]
    now_one = [m for m in moved if m and all(x == ONE for x, _ in m)]
    above = sum(any(float.fromhex(y) > 1.0 for _, y in m) for m in now_one)
    return (f"  built-in families: {len(diffs) - len(copies)} differ; log-pmf copies: "
            f"{len(copies)} differ, {len(now_one)} of them now exactly 1.0 "
            f"({above} above 1.0 in the other checkout)")


def run(src: Path, args) -> list:
    proc = subprocess.run(
        [sys.executable, __file__, "--dump", "--src", str(src), "--route", args.route,
         "--instances", str(args.instances), "--seed", str(args.seed),
         "--candidates", str(args.candidates), "--grid-rows", str(args.grid_rows),
         "--cells", str(args.cells)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--other", type=Path, help="src/ directory of the other checkout")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--instances", type=int, default=1800)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--candidates", type=int, default=12,
                        help="candidate points sampled per instance")
    parser.add_argument("--grid-rows", type=int, default=4,
                        help="random grid rows per instance")
    parser.add_argument("--cells", type=int, default=10_000,
                        help="grid cells per instance (--route grid)")
    parser.add_argument("--route", choices=("indicator", "min-coverage", "grid", "search"),
                        default="indicator")
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        if args.route == "indicator":
            rows = dump(args.src.resolve(), args.instances, args.seed,
                        args.candidates, args.grid_rows)
        elif args.route == "grid":
            rows = dump_grid(args.src.resolve(), args.instances, args.seed, args.cells)
        elif args.route == "search":
            rows = dump_search(args.src.resolve())
        else:
            rows = dump_min_coverage(args.src.resolve(), args.instances, args.seed)
        json.dump(rows, sys.stdout)
        return 0
    if args.other is None:
        parser.error("--other is required")
    mine, theirs = run(args.src.resolve(), args), run(args.other.resolve(), args)
    if args.route == "search":
        # the last field is the CPU time, which is reported, not compared
        diffs = [(a, b) for a, b in zip(mine, theirs) if a[:-1] != b[:-1]]
        print(f"{len(mine)} searches (n_min, argmin theta, last two trace entries, full "
              f"sweeps, whole-trace hash): {len(diffs)} differ; "
              f"CPU {sum(r[-1] for r in mine):.2f} s here, "
              f"{sum(r[-1] for r in theirs):.2f} s in the other checkout")
    elif args.route == "min-coverage":
        diffs = [(a, b) for a, b in zip(mine, theirs) if a != b]
        if len(mine) != len(theirs):
            diffs.append((f"{len(mine)} rows", f"{len(theirs)} rows"))
        print(f"{len(mine)} rows (candidates and argmins) on {args.instances} instances, "
              f"their log-pmf copies and the production shapes: {len(diffs)} differ")
        print(log_pmf_summary(diffs))
    elif args.route == "grid":
        if [row[:3] for row in mine] != [row[:3] for row in theirs]:
            sys.exit("the two checkouts drew different instances")
        diffs = [(a, b) for a, b in zip(mine, theirs) if a != b]
        print(f"{len(mine)} rows ({args.instances} instances and their log-pmf copies), "
              f"{args.cells}-cell grids with and without candidates: {len(diffs)} differ")
        print(log_pmf_summary(diffs))
    else:
        if [row[:4] for row in mine] != [row[:4] for row in theirs]:
            sys.exit("the two checkouts drew different points")
        diffs = [(a, b[4]) for a, b in zip(mine, theirs) if a[4] != b[4]]
        families = sorted({row[0] for row in mine})
        pairs = sorted({row[1] for row in mine})
        print(f"{len(mine)} theta on {args.instances} instances "
              f"({', '.join(families)}; {len(pairs)} pairs): {len(diffs)} differ")
    # built-in families' differences first; sorted() keeps their order
    for row, other in sorted(diffs, key=lambda d: LOG_PMF in str(d[0][0]))[:10]:
        print("  ", row, "other:", other)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
