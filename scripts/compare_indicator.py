"""Compare `indicator_coverage` of two checkouts value for value.

Draws criterion-1-style instances (both families, all six criterion/
estimator pairs, with the instance generator of tests/test_acceptance.py),
and for each one evaluates `indicator_coverage` at a random sample of its
candidate points (where the acceptance window changes, so lattice theta are
included) and at a few random grid rows of [a, b].  Each checkout is run in
its own interpreter; the values must be equal as floats (`==`), not merely
close.

Run from the repository root:
    python3 scripts/compare_indicator.py --other ../old-checkout/src
"""

import argparse
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def run(src: Path, args) -> list:
    proc = subprocess.run(
        [sys.executable, __file__, "--dump", "--src", str(src),
         "--instances", str(args.instances), "--seed", str(args.seed),
         "--candidates", str(args.candidates), "--grid-rows", str(args.grid_rows)],
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
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        rows = dump(args.src.resolve(), args.instances, args.seed,
                    args.candidates, args.grid_rows)
        json.dump(rows, sys.stdout)
        return 0
    if args.other is None:
        parser.error("--other is required")
    mine, theirs = run(args.src.resolve(), args), run(args.other.resolve(), args)
    if [row[:4] for row in mine] != [row[:4] for row in theirs]:
        sys.exit("the two checkouts drew different points")
    diffs = [(a, b[4]) for a, b in zip(mine, theirs) if a[4] != b[4]]
    families = sorted({row[0] for row in mine})
    pairs = sorted({row[1] for row in mine})
    print(f"{len(mine)} theta on {args.instances} instances "
          f"({', '.join(families)}; {len(pairs)} pairs): {len(diffs)} differ")
    for row, other in diffs[:10]:
        print("  ", row, "other:", other)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
