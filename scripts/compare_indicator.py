"""Compare `indicator_coverage` (with `coverage` and `acceptance_window`),
`min_coverage` or `min_sample_size` of two checkouts value for value.

Draws criterion-1-style instances (both families, all six criterion/
estimator pairs, with the instance generator of tests/_reference.py).
With `--route indicator` (the default) it evaluates `indicator_coverage`,
`coverage` and `acceptance_window` at a random sample of each instance's
candidate points (where the acceptance window changes, so lattice theta are
included), at a few random grid rows of [a, b] and at a - (b - a) / 7 and
b + (b - a) / 7, outside it, and records each value (a float as
`value.hex()`) or the message of its DomainError.  With `--route
min-coverage` it runs `min_coverage` on every instance, on the
production shapes (n = 9622 absolute 1/100, n = 892..901
relative 1/5, n = 96 range-preserving mixed) and on large shapes (two
seeded draws per family and pair with 1024 to about 30,000 candidates, at
n up to 20,000, and absolute 1/300 on [0, 1] at n = 86,550 and 86,551),
and records the rule, the
cardinality bound, every candidate's theta, tags and value (of a large
shape, their SHA-256), and the argmin,
after asserting that the minimum and argmin are the minimum and first index
of the report's own `values` (the minimum comes from `prob_min`, and
`values` are evaluated only when they are read).  For each production shape
it also records the witnesses of n + 1 around that argmin, as a search
evaluates them (`minimize._witness_minima`): every row's theta and value,
and the argmin.  With `--route grid` it runs `grid_min_coverage` on every
instance over a grid of `--cells` cells, once without and once with the
candidate points, and records each value and theta; it reports how many
differing rows moved a theta, the largest |value difference| and each
checkout's CPU seconds.  These two routes also run every instance on a copy of
its family without `cdf_batch`, whose probabilities are log-pmf sums, and
count its differences apart from the built-in families', with how many of
them are now exactly 1.0.  Each checkout is run in its own interpreter; the values
must be equal as floats (`==`), not merely close.  With `--route search` it
runs `min_sample_size` on a fixed query set (the goldens 101 / 901 / 156,
the Poisson relative query with n_min 65, the range-preserving mixed query
with n_min 96 for both seeded a, the absolute 1/100 query, log-pmf copies
of golden 101, the Poisson relative query and the first mixed one, and 48
more: Bernoulli absolute on [0, 1], Bernoulli relative on [1/10, 9/10],
Poisson relative on [1/2, 2] and Bernoulli range-preserving mixed (1/10,
eps) on [1/20, 19/20], for eps in {1/4, 1/5, 1/8, 3/10} and delta in {1/10,
1/20, 1/4}), and records each one's n_min, argmin theta, last two trace
entries, full sweeps and a SHA-256 of its whole trace (every n, value.hex()
and theta), so that a witness that differs anywhere in the walk shows too.

Run from the repository root:
    python3 scripts/compare_indicator.py --other ../old-checkout/src
    python3 scripts/compare_indicator.py --other ../old-checkout/src --route min-coverage
    python3 scripts/compare_indicator.py --other ../old-checkout/src --route grid --cells 2000
    python3 scripts/compare_indicator.py --other ../old-checkout/src --route search

The grid route's time is almost all the log-pmf copies' (a built-in
family's 10⁴-cell grid takes under a millisecond): `prob_min` drops blocks
of rows by pmf sums and stops a row's pmf sum once it exceeds the least
whole row, but a grid whose rows all lie near its minimum starts nearly
every row.  CPU time of the grid calls per checkout, measured on two shared
Xeon cores (a comparison runs two checkouts): `--instances 120 --cells 40`,
a quick run, 0.8-1.0 s; `--instances 120 --cells 1000` 4.6 s; `--instances
30` (10⁴ cells) 11.5 s; the defaults (1800 instances, 10⁴ cells) 8.8 min.
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
    """[family, pair, n, theta, indicator_coverage, coverage, acceptance_window]
    for every evaluated point."""
    sys.path[:0] = [str(src), str(ROOT)]
    import covsize
    from covsize import (DomainError, acceptance_window, candidate_set_for, coverage,
                         indicator_coverage)

    def record(entry, *args):
        """`entry(*args)` as JSON: a float as hex, a DomainError as its message."""
        try:
            value = entry(*args)
        except DomainError as exc:
            return f"error: {exc}"
        return value.hex() if isinstance(value, float) else list(value)

    if not Path(covsize.__file__).resolve().is_relative_to(src):
        sys.exit(f"covsize was imported from {covsize.__file__}, not {src}")
    from tests._reference import PAIRS, random_instance

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
        thetas += [a - (b - a) / 7, b + (b - a) / 7]
        for theta in thetas:
            out.append([family, "/".join(pair), n, str(theta),
                        record(indicator_coverage, family, n, crit, est, theta),
                        record(coverage, family, n, crit, est, theta),
                        record(acceptance_window, n, crit, est, theta)])
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


def large_shapes(seed: int) -> list:
    """(family, n, criterion, estimator, a, b) of full sweeps with 1024 to
    about 30,000 candidates, where `prob_min` bounds blocks of rows: two
    draws per family and pair, criterion-1-style but at an n up to 20,000,
    and the absolute 1/300 query on [0, 1] at n_min - 1 and n_min (about
    173,000 candidates each)."""
    from covsize import UNBIASED, Absolute, candidate_set_for
    from tests._reference import PAIRS, random_instance

    rng = random.Random(seed)
    shapes = []
    for family in ("bernoulli", "poisson"):
        for pair in PAIRS * 2:
            _, *query = random_instance(rng, pair, family)
            per_100 = len(candidate_set_for(100, *query))
            n = min(max(rng.randint(1024, 30_000) * 100 // per_100, 2), 20_000)
            shapes.append((family, n, *query))
    shapes += [("bernoulli", n, Absolute(Fraction(1, 300)), UNBIASED, Fraction(0), Fraction(1))
               for n in (86_550, 86_551)]
    return shapes


def dump_min_coverage(src: Path, count: int, seed: int) -> list:
    """[label, rule, bound, theta, tags, value.hex()] for every candidate of
    every report and [label, theta, value.hex()] for every witness row, each
    followed by [label, "argmin", min.hex(), argmin theta]; for a large
    shape, [label, rule, bound, size, SHA-256 of its candidates' rows] in
    place of the candidates' rows."""
    import hashlib

    sys.path[:0] = [str(src), str(ROOT)]
    import covsize
    from covsize import min_coverage
    from covsize.candidates import _spec
    from covsize.families import resolve_family
    from covsize.minimize import _witness_minima

    if not Path(covsize.__file__).resolve().is_relative_to(src):
        sys.exit(f"covsize was imported from {covsize.__file__}, not {src}")
    from tests._reference import PAIRS, random_instance

    rng = random.Random(seed)
    calls = []
    for i in range(count):
        family = "bernoulli" if i % 4 else "poisson"
        pair = PAIRS[i % 6]
        n, crit, est, a, b = random_instance(rng, pair, family)
        calls += [(f"{label} {'/'.join(pair)} {i}", fam, n, crit, est, a, b)
                  for label, fam in with_log_pmf_copy(family)]
    calls += [(f"production {j}", *shape) for j, shape in enumerate(production_shapes())]
    calls += [(f"large {j}", *shape) for j, shape in enumerate(large_shapes(seed))]
    out = []
    for label, family, n, crit, est, a, b in calls:
        report = min_coverage(family, n, crit, est, a, b)
        # the minimum and argmin, whichever way they were found, are those
        # of the report's own full-sum values
        values = list(report.values)
        first = values.index(min(values))
        assert report.min_coverage == values[first], label
        assert report.argmin_theta == report.candidate_set.thetas[first], label
        cset = report.candidate_set
        rows = [[label, cset.rule, str(cset.cardinality_bound), str(point.theta),
                 ",".join(point.tags), value_at.hex()]
                for point, value_at in zip(cset.points, values)]
        if label.startswith("large"):
            digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
            rows = [[label, cset.rule, str(cset.cardinality_bound), len(cset), digest]]
        out += rows
        out.append([label, "argmin", report.min_coverage.hex(), str(report.argmin_theta)])
        if label.startswith("production"):
            name = label + " witness"
            block, witness, best = _witness_minima(resolve_family(family),
                                                   _spec(crit, est, a, b), n + 1, 1,
                                                   report.argmin_theta)
            for theta, value_at in zip(block.thetas(range(len(witness))), witness.tolist()):
                out.append([name, str(theta), value_at.hex()])
            out.append([name, "argmin", float(witness[best[0]]).hex(),
                        str(block.thetas(best)[0])])
    return out


def dump_grid(src: Path, count: int, seed: int, cells: int) -> list:
    """[family, pair, n, grid min.hex(), theta, grid-and-candidates min.hex(),
    theta, CPU seconds] for every instance."""
    sys.path[:0] = [str(src), str(ROOT)]
    import time

    import covsize
    from covsize import GridSpec, grid_min_coverage

    if not Path(covsize.__file__).resolve().is_relative_to(src):
        sys.exit(f"covsize was imported from {covsize.__file__}, not {src}")
    from tests._reference import PAIRS, random_instance

    rng = random.Random(seed)
    out = []
    for i in range(count):
        family = "bernoulli" if i % 4 else "poisson"
        pair = PAIRS[i % 6]
        n, crit, est, a, b = random_instance(rng, pair, family)
        for label, fam in with_log_pmf_copy(family):
            row, start = [label, "/".join(pair), n], time.process_time()
            for include in (False, True):
                grid = GridSpec.divide(a, b, cells=cells, include_candidates=include)
                value, theta = grid_min_coverage(fam, n, crit, est, a, b, grid)
                row += [value.hex(), str(theta)]
            out.append(row + [time.process_time() - start])
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
    # log-pmf copies of the cheaper named queries: their full sweeps go
    # through the log-pmf minimum, their witnesses through full sums
    for label, q in queries[0:1] + queries[3:5]:
        copy = with_log_pmf_copy(q.family)[1][1]
        queries.append((label + LOG_PMF, dataclasses.replace(q, family=copy)))
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
              f"their log-pmf copies, the production shapes and the large shapes: "
              f"{len(diffs)} differ")
        print(log_pmf_summary(diffs))
    elif args.route == "grid":
        # the last field is the CPU time, which is reported, not compared
        cpu = [sum(row.pop() for row in rows) for rows in (mine, theirs)]
        if [row[:3] for row in mine] != [row[:3] for row in theirs]:
            sys.exit("the two checkouts drew different instances")
        diffs = [(a, b) for a, b in zip(mine, theirs) if a != b]
        print(f"{len(mine)} rows ({args.instances} instances and their log-pmf copies), "
              f"{args.cells}-cell grids with and without candidates: {len(diffs)} differ")
        # [3::2] are the two value fields, [4::2] their thetas
        moved = sum(a[4::2] != b[4::2] for a, b in diffs)
        gap = max((abs(float.fromhex(x) - float.fromhex(y)) for a, b in diffs
                   for x, y in zip(a[3::2], b[3::2])), default=0.0)
        print(f"  {moved} of them with another theta; largest |value difference| {gap:.3g}; "
              f"CPU {cpu[0]:.2f} s here, {cpu[1]:.2f} s in the other checkout")
        print(log_pmf_summary(diffs))
    else:
        if [row[:4] for row in mine] != [row[:4] for row in theirs]:
            sys.exit("the two checkouts drew different points")
        diffs = [(a, b[4:]) for a, b in zip(mine, theirs) if a[4:] != b[4:]]
        families = sorted({row[0] for row in mine})
        pairs = sorted({row[1] for row in mine})
        errors = sum(str(x).startswith("error: ") for row in mine for x in row[4:])
        print(f"{len(mine)} theta on {args.instances} instances "
              f"({', '.join(families)}; {len(pairs)} pairs), each through "
              f"indicator_coverage, coverage and acceptance_window ({errors} DomainErrors): "
              f"{len(diffs)} differ")
    # built-in families' differences first; sorted() keeps their order
    for row, other in sorted(diffs, key=lambda d: LOG_PMF in str(d[0][0]))[:10]:
        print("  ", row, "other:", other)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
