"""Recompute the frozen reference sample sizes through the brute-force oracle.

The values frozen into tests/test_acceptance.py come from this script, which
never consults the closed-form window formulas: every coverage number is the
grid oracle's (dense 10^4-cell theta scan merged with the candidate points,
all decisive rows evaluated through the exact indicator path).  The scan
walks n upward and applies the same strict rule as the production search,
coverage > float(1 - delta).

For each configuration the script reports the resulting n_min together with
the decision margins |min_coverage - threshold| at n_min - 1 and n_min, and
the smallest margin seen anywhere in the scan.  Margins far above 5e-10 (the
cross-route agreement tolerance) certify that both evaluation routes must
reach the same n_min.

Run from the repository root:  python3 scripts/compute_goldens.py
"""

import sys
import time
from fractions import Fraction
from pathlib import Path

# import covsize from this checkout's src/, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from covsize import Absolute, GridSpec, Relative, UNBIASED, grid_min_coverage  # noqa: E402

F = Fraction

CONFIGS = [
    ("bernoulli-absolute", "bernoulli", Absolute(F(1, 10)), F(0), F(1)),
    ("bernoulli-relative", "bernoulli", Relative(F(1, 5)), F(1, 10), F(9, 10)),
    ("poisson-absolute", "poisson", Absolute(F(1, 2)), F(1), F(10)),
]
DELTA = F(1, 20)
N_START = 2
N_MAX = 2000


def scan(label, family, criterion, a, b):
    threshold = float(1 - DELTA)
    grid = GridSpec.divide(a, b, cells=10_000, include_candidates=True)
    t0 = time.time()
    margins = []
    history = []
    n_min = None
    for n in range(N_START, N_MAX + 1):
        value, theta = grid_min_coverage(family, n, criterion, UNBIASED, a, b, grid)
        margins.append(abs(value - threshold))
        history.append((n, value))
        if value > threshold:
            n_min = n
            break
    elapsed = time.time() - t0
    if n_min is None:
        print(f"{label}: NOT FOUND up to n={N_MAX} ({elapsed:.1f}s)")
        return
    last_fail = history[-2] if len(history) > 1 else None
    print(f"{label}: n_min = {n_min}   ({elapsed:.1f}s, threshold {threshold!r})")
    if last_fail:
        print(f"  margin at n_min-1 ({last_fail[0]}): {abs(last_fail[1] - threshold):.3e}"
              f"  (coverage {last_fail[1]!r})")
    print(f"  margin at n_min   ({n_min}): {margins[-1]:.3e}"
          f"  (coverage {history[-1][1]!r})")
    print(f"  smallest margin across scan: {min(margins):.3e}")


def main():
    for config in CONFIGS:
        scan(*config)


if __name__ == "__main__":
    main()
