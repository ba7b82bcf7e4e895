"""Measure a change against a parent commit in alternating benchmark runs
and write the result as BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --parent REV --pr N [--claim TEXT]

Run from anywhere inside a checkout.  The parent side is REV exported with
`git archive` into a temporary directory; the change side is a copy of this
checkout's files (tracked and untracked, less what .gitignore excludes).
Both copies are removed at the end.  Each side runs its own
`perfbench/run.py --workload W --seed S --seconds 45 --trace 0` in its own
copy, 10 pairs on each of the workloads `certify` and `production`.
Pair i runs seed 2 with the change first when i is odd, and seed 1 with
the parent first when i is even.

The file holds, per workload and end-to-end metric, each side's median and
quartiles (inclusive method), `change_pct` (change median against parent
median), `change_wins` (pairs where the change read lower), `parent_iqr`,
every run, the machine fingerprint and the answer counts.  Top-level keys
that an existing BENCH_<pr>.json holds and this script does not write, such
as hand-recorded counts, are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("certify", "production")
PAIRS = 10
SECONDS = 45
METHOD = ("alternating parent/change runs, each from its own copy of its side's files; pair i "
          "runs seed 2 when i is odd (change first) and seed 1 when i is even (parent first); "
          "every metric in reference seconds as run.py reports it; change_wins counts pairs "
          "where the change read lower")


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(root: Path, rev: str, into: Path) -> None:
    """The files of commit `rev` of the repository at `root`, into `into`."""
    archive = subprocess.run(["git", "-C", str(root), "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def copy_checkout(root: Path, into: Path) -> None:
    """The checkout's files as they are now, less what .gitignore excludes."""
    listed = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        source = root / name
        if source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def run(side: Path, workload: str, seed: int) -> dict:
    """One benchmark run in a side's copy: its result line, with the
    fingerprint it printed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=side, check=True, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["fingerprint"] = next(json.loads(line.split(" ", 1)[1]) for line in lines
                                 if line.startswith("fingerprint "))
    return result


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(workload: str, pairs: list[tuple[dict, dict]]) -> dict:
    """One workload's entry: per metric both sides' summaries and runs."""
    metrics = {}
    for name, value in pairs[0][0]["metrics"].items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        before, after = summary(parent), summary(change)
        metrics[name] = {
            "unit": value["unit"],
            "parent": before,
            "change": after,
            "change_pct": (after["median"] / before["median"] - 1) * 100,
            "change_wins": sum(c < p for p, c in zip(parent, change)),
            "parent_iqr": before["q3"] - before["q1"],
            "parent_runs": parent,
            "change_runs": change,
        }
    fingerprint = dict(pairs[0][1]["fingerprint"], seed=None)
    fingerprint.pop("git_commit", None)
    return {
        "workload": workload,
        "seeds": [1, 2],
        "pairs": len(pairs),
        "fingerprint": fingerprint,
        "all_correct": all(p["correct"] and c["correct"] for p, c in pairs),
        "failed": sum(c["failed"] for _, c in pairs),
        "attempted": sum(c["attempted"] for _, c in pairs),
        "parent_failed": sum(p["failed"] for p, _ in pairs),
        "parent_attempted": sum(p["attempted"] for p, _ in pairs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--pr", required=True, type=int, help="N of the BENCH_N.json written")
    parser.add_argument("--claim", default="none")
    args = parser.parse_args(argv)

    root = Path(git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel"))
    out = root / f"BENCH_{args.pr}.json"
    bench = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "method": METHOD,
        "parent": git(root, "rev-parse", "--short", args.parent),
        "claim": args.claim,
        "workloads": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        parent, change = Path(scratch, "parent"), Path(scratch, "change")
        parent.mkdir()
        change.mkdir()
        export(root, args.parent, parent)
        copy_checkout(root, change)
        for workload in WORKLOADS:
            pairs = []
            for i in range(PAIRS):
                seed = 2 if i % 2 else 1
                order = (change, parent) if i % 2 else (parent, change)
                got = {side: run(side, workload, seed) for side in order}
                pairs.append((got[parent], got[change]))
                wall = [side["metrics"]["wall_s"]["value"] for side in pairs[-1]]
                print(f"{workload} pair {i} seed {seed}: wall_s parent {wall[0]:.4f} "
                      f"change {wall[1]:.4f}", flush=True)
            bench["workloads"].append(compare(workload, pairs))
    if out.exists():
        kept = json.loads(out.read_text())
        bench.update({key: value for key, value in kept.items() if key not in bench})
    out.write_text(json.dumps(bench, indent=1) + "\n")
    for entry in bench["workloads"]:
        for name, metric in entry["metrics"].items():
            print(f"{entry['workload']:<11} {name:<12} {metric['change_pct']:+7.2f} %  "
                  f"wins {metric['change_wins']}/{entry['pairs']}  parent IQR "
                  f"{metric['parent_iqr']:.4g}")
    print("wrote", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
