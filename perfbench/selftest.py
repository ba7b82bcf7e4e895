"""Self-test of the benchmark, run in a few seconds:

    python3 perfbench/selftest.py

It shows that the correctness gate passes right answers and fails answers
checked against a wrong reference, that every metric BENCHMARK.json names is
emitted with its unit in both modes, and that a traced run's self times add
up to its traced wall time with every wrap point reached.  Prints each
failed expectation and exits 1 if there is one.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import time
from fractions import Fraction

import run

run.use_checkout_sources()

import gate  # noqa: E402
import workloads  # noqa: E402
from covsize import Absolute, Relative, UNBIASED  # noqa: E402
from tracing import WRAP_POINTS, Tracer  # noqa: E402

F = Fraction
failures: list[str] = []


def expect(condition, what: str) -> None:
    if not condition:
        failures.append(what)
        print("FAIL", what)


def gate_fails_wrong_answers() -> None:
    job = workloads.Search(
        workloads._query("bernoulli", Absolute(F(1, 10)), UNBIASED, 0, 1), expected=101,
    )
    result = job.run(workloads.Steps())
    expect(gate.check(job, result) == [], "golden 101 search passes the gate")
    expect(gate.check(dataclasses.replace(job, expected=102), result),
           "a wrong reference n_min fails")
    gapped = dataclasses.replace(result, trace=result.trace[:10] + result.trace[11:])
    expect(gate.check(job, gapped), "a trace with a gap fails")
    n, value, theta = result.trace[-1]
    shifted = dataclasses.replace(
        result, coverage_at_n_min=value + 1e-9,
        trace=result.trace[:-1] + ((n, value + 1e-9, theta),),
    )
    expect(gate.check(job, shifted), "a coverage 1e-9 off the indicator fails")
    early = dataclasses.replace(result, n_min=n - 1, trace=result.trace[:-1])
    expect(gate.check(dataclasses.replace(job, expected=None), early),
           "an n_min whose indicator is below 1 - delta fails")

    rel = Relative(F(1, 5))
    call = workloads.MinCoverage("bernoulli", 901, rel, UNBIASED, F(1, 10), F(9, 10),
                                 passes=True)
    answer = call.run(workloads.Steps())
    expect(gate.check(call, answer) == [], "golden 901 call passes the gate")
    expect(gate.check(dataclasses.replace(call, passes=False), answer),
           "a wrong reference side of 1 - delta fails")

    workloads.register_clones()
    clone = workloads.MinCoverage("bernoulli-clone", 120, rel, UNBIASED, F(1, 10),
                                  F(9, 10), reference_family="bernoulli")
    value, theta = clone.run(workloads.Steps())
    expect(gate.check(clone, (value, theta)) == [], "a clone matching its family passes")
    expect(gate.check(clone, (value, theta + F(1, 10**6))),
           "a clone with another argmin theta fails")

    instance = workloads.Certify(
        "bernoulli", *workloads.random_instance(random.Random(7), workloads.PAIRS[2],
                                                "bernoulli"))
    answer = instance.run(workloads.Steps())
    expect(gate.check(instance, answer) == [], "a certify instance passes the gate")
    expect(gate.check(instance, answer[:2] + (answer[2] + 1e-9, answer[3])),
           "a grid minimum 1e-9 off fails")


def judge_fails_differing_answers() -> None:
    passes = [
        {"jobs": 2, "digests": ["a", "b"], "problems": []},
        {"jobs": 2, "digests": ["a", "c"], "problems": [[0, "wrong n_min"]]},
    ]
    attempted, failed, _ = run.judge(passes)
    expect((attempted, failed) == (4, 2),
           "a checked problem and an answer that differs from the first pass both fail")


def emitted(metrics: dict, units: dict) -> dict:
    line = json.loads(run.result_line(1, 0, metrics, units))
    expect(set(line) == {"correct", "attempted", "failed", "metrics"},
           "the result line has exactly its four keys")
    return {name: entry["unit"] for name, entry in line["metrics"].items()
            if isinstance(entry["value"], (int, float))}


def metrics_are_emitted() -> None:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}

    steps = [[(0.001 * k, 0.001 * k) for k in range(1, 101)]] * 2
    metrics = run.end_to_end_metrics([0.5, 0.6, 0.7], steps, 80, 60.0)
    expect(emitted(metrics, run.END_TO_END_UNITS) == end_to_end,
           "every end-to-end metric is emitted with its declared unit")

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        workloads.Search(
            workloads._query("bernoulli", Absolute(F(1, 4)), UNBIASED, 0, 1)).run(workloads.Steps())
        workloads.Certify(
            "bernoulli", 12, Absolute(F(1, 8)), UNBIASED, F(1, 4), F(3, 4)).run(workloads.Steps())
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1, wall)
    expect(emitted(metrics, run.PER_LAYER_UNITS) == per_layer,
           "every per-layer metric is emitted with its declared unit")
    expect(tracer.missing == [], f"every wrap point exists: {tracer.missing}")
    layers = {layer for _, _, layer in WRAP_POINTS}
    expect(all(tracer.calls[layer] > 0 for layer in layers), "every layer is reached")
    self_times = [v for k, v in metrics.items() if run.PER_LAYER_UNITS[k] == "s"
                  and k not in ("trace.wall_s", "trace.unattributed_s")]
    total = sum(self_times) + metrics["trace.unattributed_s"]
    expect(abs(total - metrics["trace.wall_s"]) < 1e-9,
           "self times plus unattributed time add up to the traced wall time")


def main() -> int:
    gate_fails_wrong_answers()
    judge_fails_differing_answers()
    metrics_are_emitted()
    print(f"selftest: {len(failures)} failed expectation(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
