"""Run one covsize benchmark workload and print its metrics.

    python3 perfbench/run.py --workload production --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout: the package is imported from the
checkout's `src/`, and nothing else is read or written outside it.  The run

1. times SETUP_SAMPLES fresh interpreters that each import the package,
   build the workload and make one warm-up call (setup_s, their median);
2. answers the workload in passes, one after another, each in a fresh
   interpreter that builds the workload, answers every job in order, checks
   every answer outside the timed region (see gate.py) and reports back;
   it starts a pass while the previous one would still end within
   --seconds, and makes at least MIN_PASSES; passes alternate between the
   CPUs the process may use;
3. converts every time to reference seconds with the speed factor measured
   around it (see speed.py), and takes at each step the median of the
   passes;
4. prints every metric by name and unit, a machine fingerprint, and as the
   last line one JSON object with the keys correct, attempted, failed and
   metrics.  With --trace 0 the metrics are the end-to-end ones, measured
   with tracing off; with --trace 1 they are the per-layer ones of traced
   passes (see tracing.py).

A pass has a fresh interpreter because the deciles of step times differed
between processes more than between passes of one process: the deciles of
five 45 s runs of `production` spread by 9 % with all passes in one
process, and by 4 to 6 % with every pass in its own.

Exits 1 without a result when the checkout has no covsize sources.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
MIN_PASSES = 3
WORKLOAD_NAMES = ("production", "certify")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "call_s.p50": "s",
    "call_s.p90": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "search.n_examined": "count",
    "search.evals_per_answer": "evals",
    "search.self_s": "s",
    "minimize.calls": "count",
    "minimize.self_s": "s",
    "candidates.calls": "count",
    "candidates.points": "count",
    "candidates.s": "s",
    "coverage.evals": "count",
    "coverage.window_s": "s",
    "coverage.self_s": "s",
    "families.prob_calls": "count",
    "families.terms": "count",
    "families.prob_s": "s",
    "families.ns_per_term": "ns",
    "oracle.grid_calls": "count",
    "oracle.grid_rows": "count",
    "oracle.indicator_calls": "count",
    "oracle.flagged_rows": "count",
    "oracle.indicator_s": "s",
    "oracle.prob_s": "s",
    "oracle.vector_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload and make the warm-up call, then exit")
    parser.add_argument("--one-pass", action="store_true",
                        help="answer the workload once and print what the run needs as JSON")
    return parser.parse_args(argv)


def use_checkout_sources() -> None:
    """Import covsize from this checkout's src/, or exit without a result."""
    if not (SRC / "covsize" / "__init__.py").is_file():
        sys.exit(f"run.py: no covsize package under {SRC}")
    os.environ["COVSIZE_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import covsize

    if not Path(covsize.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"run.py: covsize was imported from {covsize.__file__}, not {SRC}")


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Time of fresh interpreters doing the set-up, one per sample, in
    reference seconds; and the speed factors.  Each child runs on one CPU,
    between two timings of the reference kernel on that CPU."""
    samples, factors = [], []
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for index in range(SETUP_SAMPLES):
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
            before = speed.kernel_s()
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--setup-only"],
                check=True, stdout=subprocess.DEVNULL, timeout=120,
            )
            elapsed = time.perf_counter() - start
            factors.append(speed.factor(before, speed.kernel_s())[0])
            samples.append(elapsed / factors[-1])
    finally:
        os.sched_setaffinity(0, cpus)
    return samples, factors


def digest(answer) -> str:
    """The exact value of an answer, fields left out of its repr included."""
    if dataclasses.is_dataclass(answer):
        answer = dataclasses.astuple(answer)
    return hashlib.sha256(repr(answer).encode()).hexdigest()


def one_pass(workload: str, seed: int, trace: bool) -> dict:
    """Build the workload in this interpreter, answer it once and check it.

    Untraced, the steps are in reference seconds with the factors of their
    blocks.  Traced, the kernel would count in the traced time, so it is
    timed only around the pass, the steps are raw seconds, and the layer
    times are divided by the pass's factor.
    """
    import gate
    import workloads

    jobs, fixed = workloads.build(workload, seed)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        before = speed.kernel_s()
        start = time.perf_counter()
        answers, steps, fixed_steps = workloads.run_pass(jobs, fixed, calibrate=not trace)
        wall = time.perf_counter() - start
        factor = speed.factor(before, speed.kernel_s())[0]
    finally:
        if tracer is not None:
            tracer.uninstall()
    done = {
        "jobs": len(jobs),
        "fixed": fixed,
        "fixed_steps": fixed_steps,
        "steps": list(steps),
        "wall": wall,
        "factors": steps.factors if not trace else [factor],
        "problems": [[index, problem]
                     for index, (job, answer) in enumerate(zip(jobs, answers))
                     for problem in gate.check(job, answer)],
        "digests": [digest(answer) for answer in answers],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        metrics = tracer.layer_metrics(1, wall)
        for name in metrics:
            if PER_LAYER_UNITS[name] in ("s", "ns"):
                metrics[name] /= factor
        done["metrics"] = metrics
        done["missing"] = tracer.missing
    return done


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Passes for about `seconds`, at least MIN_PASSES, each in a fresh
    interpreter, one at a time; see one_pass for what each returns."""
    passes = []
    # the guest's CPUs are often slowed by other guests at different times
    cpus = sorted(os.sched_getaffinity(0))
    try:
        begin = time.perf_counter()
        while True:
            os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--trace", str(int(trace)), "--one-pass"],
                check=True, capture_output=True, text=True, timeout=170,
            )
            end = time.perf_counter()
            passes.append(json.loads(done.stdout.splitlines()[-1]))
            if len(passes) >= MIN_PASSES and (end - begin) + (end - start) > seconds:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    return passes


def judge(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Every answer of every pass was checked in its pass; an answer that
    differs from the first pass's fails too.  Returns (attempted, failed,
    problems)."""
    first = passes[0]["digests"]
    failed, messages = 0, []
    for number, done in enumerate(passes):
        problems = done["problems"] + [
            [index, "answer differs from the first pass"]
            for index, value in enumerate(done["digests"]) if value != first[index]
        ]
        failed += len({index for index, _ in problems})
        messages += [f"pass {number} job {index}: {problem}" for index, problem in problems]
    return sum(done["jobs"] for done in passes), failed, messages


def layer_metrics(passes: list[dict]) -> dict[str, float]:
    """Per-layer figures of the traced passes: counts repeat exactly from
    pass to pass, and times are means per pass."""
    metrics = {}
    for name in PER_LAYER_UNITS:
        values = [done["metrics"][name] for done in passes]
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.fmean(values)
    return metrics


def end_to_end_metrics(setup: list[float], steps: list, fixed_steps: int,
                       peak_rss_mb: float) -> dict[str, float]:
    """Timings from the median of the passes at each step, which drops the
    bursts in which other work on the machine slows this process.

    wall_s and cpu_s sum every step.  The call_s deciles are over the steps
    of the fixed part only: the seeded part has nearly the same total cost
    for every seed, but its steps fall near a decile or not depending on the
    seed, so they would move the deciles between runs of the same program.
    """
    wall = [statistics.median(wall for wall, _ in same) for same in zip(*steps)]
    cpu = [statistics.median(cpu for _, cpu in same) for same in zip(*steps)]
    deciles = statistics.quantiles(wall[:fixed_steps], n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(wall),
        "call_s.p50": deciles[4],
        "call_s.p90": deciles[8],
        "cpu_s": sum(cpu),
        "peak_rss_mb": peak_rss_mb,
    }


def result_line(attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def nproc() -> str:
    if shutil.which("nproc"):
        done = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    return str(len(os.sched_getaffinity(0)))


def fingerprint(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "threads": 1,
        "COVSIZE_THREADS": os.environ.get("COVSIZE_THREADS"),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def spread(values: list[float]) -> str:
    """min / median / max of some speed factors."""
    return f"{min(values):.3f} / {statistics.median(values):.3f} / {max(values):.3f}"


def print_metrics(metrics: dict, units: dict, notes: dict) -> None:
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"{name:<26} {value:>14.6g} {units[name]:<6} {note}".rstrip())


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_sources()
    import workloads

    if args.setup_only:
        workloads.build(args.workload, args.seed)
        return 0

    speed.kernel()
    if args.one_pass:
        print(json.dumps(one_pass(args.workload, args.seed, bool(args.trace))))
        return 0

    setup, setup_factors = ([], []) if args.trace else setup_seconds(args.workload, args.seed)
    passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    steps, fixed_steps = [done["steps"] for done in passes], passes[0]["fixed_steps"]
    factors = [factor for done in passes for factor in done["factors"]]
    if args.trace:
        metrics = layer_metrics(passes)
        units = PER_LAYER_UNITS
    else:
        peak_rss_mb = max(done["rss_mb"] for done in passes)
        metrics = end_to_end_metrics(setup, steps, fixed_steps, peak_rss_mb)
        units = END_TO_END_UNITS
    attempted, failed, problems = judge(passes)

    print(f"workload {args.workload}: {passes[0]['jobs']} jobs ({passes[0]['fixed']} fixed), "
          f"{len(steps[0])} steps, {len(passes)} passes, each in a fresh interpreter, "
          f"trace {args.trace}, one caller, threads=1")
    print("pass wall times:", " ".join(f"{done['wall']:.3f}" for done in passes), "raw s")
    print("speed factors (min / median / max): passes", spread(factors),
          "set-up", spread(setup_factors) if setup_factors else "-")
    median = f"reference s, median of {len(passes)} passes at each of {len(steps[0])} steps"
    deciles = f"{median}, over the {fixed_steps} steps of the fixed part"
    notes = {
        "setup_s": f"reference s, median of {len(setup)} fresh interpreters",
        "wall_s": median,
        "cpu_s": median,
        "call_s.p50": deciles,
        "call_s.p90": deciles,
        "peak_rss_mb": f"largest of the {len(passes)} passes' interpreters",
        "trace.overhead_ratio": "estimated from the cost of one wrapped call",
    }
    if args.trace:
        notes.update({name: "reference time, mean per pass"
                      for name, unit in units.items() if unit in ("s", "ns")})
    print_metrics(metrics, units, notes)
    print(f"{'fail_ratio':<26} {failed / attempted:>14.6g} {'ratio':<6} "
          f"{failed} of {attempted} answers")
    for problem in problems[:20]:
        print("FAIL", problem)
    if args.trace and passes[0]["missing"]:
        print("trace: not found, so their time counts in their callers' self time:",
              ", ".join(passes[0]["missing"]))
    print("fingerprint", json.dumps(fingerprint(args.workload, args.seed)))
    print(result_line(attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
