"""Measure the error of the built-in CDFs and print `families.cdf_error`'s table.

For each band of the table (the Bernoulli's by n, the Poisson's by the mean
n * theta) it draws a seeded sample of CDF arguments (n, theta, k) with
`tests/_reference.cdf_draws`: theta anywhere, near 0 and 1 and at grid rows,
k anywhere, at window ends, in both far tails and at the ends of the range
`cdf_batch` is asked for.  Each value the family's own `cdf_batch` gives is
compared with the exact CDF at the exact value of its float theta
(`tests/_reference.cdf_error_of`: Fractions for the Bernoulli, 50-digit
Decimal at the exact mean for the Poisson).  It prints the largest error
per band with the draw that has it, and the table: each band's largest
error times 10, rounded up to one significant digit.  The factor is wide
because the errors have a long tail: over every k at 150 random (n, theta)
with 64 < n <= 256, bdtr's largest error was 1.8e-13, where a sample of 5000
draws in that band found 1.0e-13.

Run from the repository root:
    python3 scripts/measure_cdf_error.py
    python3 scripts/measure_cdf_error.py --seed 20261020 --draws 2000

The defaults (seed 20261020, 2000 draws per band) take about a minute on
one core; most of it is the Bernoulli's Fraction sums at n up to 256.
"""

import argparse
import math
import random
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from covsize.families import _BDTR_ERROR, _PDTR_ERROR, get_family  # noqa: E402
from tests._reference import cdf_draws, cdf_error_of  # noqa: E402

SAFETY = 10


def round_up(x: float) -> float:
    """x rounded up to one significant digit."""
    scale = 10.0 ** math.floor(math.log10(x))
    return math.ceil(x / scale * (1 - 1e-12)) * scale


def measure(family: str, bands: tuple, seed: int, draws: int) -> list:
    """[(top, entry)] for the family's bands, printing each band's largest error."""
    cdf = get_family(family).cdf_batch
    rng = random.Random(seed)
    table, low = [], 0
    for top, _ in bands:
        sample = cdf_draws(rng, family, low, top, draws)
        n, theta, k = (np.array(x) for x in zip(*sample))
        got = cdf(n, theta, k)
        errors = [cdf_error_of(family, *draw, value) for draw, value in zip(sample, got.tolist())]
        worst = int(np.argmax(errors))
        print(f"{family} {low} < {'n' if family == 'bernoulli' else 'n*theta'} <= {top}: "
              f"largest error {errors[worst]:.3g} of {draws} draws, at (n, theta, k) = "
              f"{sample[worst]}")
        table.append((top, round_up(SAFETY * max(errors[worst], 2.0 ** -53))))
        low = top
    return table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20261020)
    parser.add_argument("--draws", type=int, default=2000, help="draws per band")
    args = parser.parse_args()
    print(f"seed {args.seed}, {args.draws} draws per band")
    for name, family, bands in (("_BDTR_ERROR", "bernoulli", _BDTR_ERROR),
                                ("_PDTR_ERROR", "poisson", _PDTR_ERROR)):
        table = measure(family, bands, args.seed, args.draws)
        print(f"{name} = ({', '.join(f'({top}, {entry:.0e})' for top, entry in table)})")


if __name__ == "__main__":
    main()
