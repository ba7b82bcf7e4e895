"""Command line interface: outputs, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from covsize import UNBIASED, Absolute, min_coverage, min_sample_size
from covsize.cli import main

from test_acceptance import CLI_INVOCATIONS

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# SHA-256 of the stdout of each acceptance-suite CLI invocation in each output
# format, frozen so that refactors of the builders and renderers keep the bytes
FROZEN_CLI_DIGESTS = {
    ("sample-size", "text"): "3d368812bad4373ae3948f1e8e6e3b8ad7376d78d158c6f87c346a70d380e09f",
    ("sample-size", "json"): "bab8897af66fab8154aeb82ee40d4e36f42757007a93d29f4ae9cb61787b6013",
    ("sample-size", "csv"): "6bf45200ee98412021ce926df0013260b8e0320ca813de54a980cfcc8438283c",
    ("min-coverage", "text"): "7d65294c6d870211fa6d35425cd3b03c4c081edb1d4ef0fbf5e101668617dd12",
    ("min-coverage", "json"): "71aa88d8a0dc7c4646d2f6b1b64c2a52808db27b1fcf6b32f77af90f2695ab12",
    ("min-coverage", "csv"): "05dba58a8f5e1a9f307e524fc1294d09fa6cb679405cdd3d4a597595a315d785",
    ("coverage-curve", "text"): "f3f00be2d7c0a77ca2d7c8dc86e0163e32cd5f428fe3dcf1fd677c2a491db7a4",
    ("coverage-curve", "json"): "0c08995d788b94257fae02f33fb10d530a319ad3ea0c0ba78f852850aa5aec56",
    ("coverage-curve", "csv"): "83222e3989968e6525212ce463414b30a6dfe8f7a2b20e6f13a98836714825f8",
    ("candidates", "text"): "4e0eaf7ebcdd2f988b0717eb574e05f660d3490e78b8919ce538aca370c85afd",
    ("candidates", "json"): "6b078111decbbe82e277d6ebdfad2a102ebbb1d53e12466281678dc9d8b88e17",
    ("candidates", "csv"): "49d98f3d8103d4809b946cf0a1097e2fe314690cc1f37684c47fc0649e9a1d02",
    ("verify", "text"): "e1a04692822bda20645f9c1e3f01f48b1d1bdb10c7dd7fd9456dd1799e43dba9",
    ("verify", "json"): "b53357d88fea507177e7d0ac5a726f8fdb359470955bd2f603c767b3b0c7d358",
    ("verify", "csv"): "3bb080ba57e0b559dc66139b066c6403acf2d5b8bcbda17f59ff9dcdbe1b7e28",
}


@pytest.mark.parametrize("argv", CLI_INVOCATIONS, ids=lambda argv: argv[0])
def test_cli_invocations_reproduce_frozen_bytes(capsys, argv):
    at = argv.index("--format") + 1
    for fmt in ("text", "json", "csv"):
        code, out, err = run_cli(capsys, *argv[:at], fmt, *argv[at + 1:])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_CLI_DIGESTS[argv[0], fmt], fmt


def test_candidates_text_output(capsys):
    code, out, err = run_cli(
        capsys,
        "candidates", "--n", "10", "--abs-eps", "0.05", "--a", "0.2", "--b", "0.8",
    )
    assert code == 0 and err == ""
    assert "criterion: absolute eps=1/20" in out
    assert "points: 8 (cardinality bound 16)" in out
    assert "rule: absolute/unbiased" in out
    listed = [line.strip() for line in out.splitlines() if line.startswith("  ")]
    assert listed[0].startswith("1/5 ")
    assert listed[-1].startswith("4/5 ")
    assert "[endpoint]" in listed[0]
    assert "plus-lattice+minus-lattice" in listed[1] or "minus-lattice+plus-lattice" in listed[1]


def test_candidates_json_round_trips_exact_values(capsys):
    code, out, _ = run_cli(
        capsys,
        "candidates", "--n", "5", "--rel-eps", "1/5", "--a", "1/2", "--b", "1",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "candidates"
    assert obj["rule"] == "relative/unbiased"
    assert obj["count"] == 5
    thetas = [F(p["theta"]) for p in obj["points"]]
    assert thetas == [F(1, 2), F(2, 3), F(3, 4), F(5, 6), F(1)]
    for p in obj["points"]:
        assert p["theta_float"] == float(F(p["theta"]))


def test_candidates_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "candidates", "--n", "2", "--abs-eps", "1/4", "--a", "0", "--b", "1",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["theta_exact", "theta_float", "provenance"]
    assert [r[0] for r in rows[1:]] == ["0/1", "1/4", "3/4", "1/1"]


def test_min_coverage_json_matches_library(capsys):
    code, out, _ = run_cli(
        capsys,
        "min-coverage", "--family", "bernoulli", "--n", "12",
        "--abs-eps", "1/8", "--a", "0", "--b", "1",
        "--format", "json", "--evaluations",
    )
    assert code == 0
    obj = json.loads(out)
    report = min_coverage("bernoulli", 12, Absolute(F(1, 8)), UNBIASED, F(0), F(1))
    assert obj["min_coverage"] == report.min_coverage
    assert F(obj["argmin_theta"]) == report.argmin_theta
    assert obj["candidates"] == len(report.candidate_set)
    got = {F(e["theta"]): e["coverage"] for e in obj["evaluations"]}
    assert got == dict(report.evaluations)


def test_min_coverage_csv_header(capsys):
    code, out, _ = run_cli(
        capsys,
        "min-coverage", "--family", "bernoulli", "--n", "6",
        "--rel-eps", "1/4", "--a", "1/4", "--b", "3/4",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["theta_exact", "theta_float", "coverage", "provenance"]
    assert len(rows) > 2


def test_coverage_curve_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "coverage-curve", "--family", "bernoulli", "--n", "4",
        "--abs-eps", "1/4", "--a", "0", "--b", "1", "--cells", "10",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["theta_exact", "theta_float", "coverage", "is_candidate", "provenance"]
    body = rows[1:]
    # default format merges grid and candidate points, all sorted
    floats = [float(F(r[0])) for r in body]
    assert floats == sorted(floats)
    flagged = {r[0] for r in body if r[3] == "1"}
    assert {"0/1", "1/1", "1/4"} <= flagged
    plain = {r[0]: r[4] for r in body}
    assert plain["1/10"] == ""  # grid-only row carries no provenance


def test_coverage_curve_no_candidates(capsys):
    code, out, _ = run_cli(
        capsys,
        "coverage-curve", "--family", "bernoulli", "--n", "4",
        "--abs-eps", "1/4", "--a", "0", "--b", "1", "--cells", "10",
        "--no-candidates",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 12  # header + 11 grid rows
    assert all(r[3] == "0" for r in rows[1:])


def test_sample_size_text_trace_degenerate_clamp(capsys):
    code, out, _ = run_cli(
        capsys,
        "sample-size", "--family", "bernoulli",
        "--abs-eps", "1/2", "--estimator", "range-preserving",
        "--a", "2/5", "--b", "3/5", "--delta", "0.05",
        "--n-start", "3", "--trace",
    )
    assert code == 0
    assert "estimator: range-preserving [2/5, 3/5]" in out
    assert "n_min: 3" in out
    assert "coverage at n_min: 1.0" in out
    assert "n=3 min_coverage=1.0" in out


def test_sample_size_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        "sample-size", "--family", "bernoulli",
        "--abs-eps", "1/4", "--a", "0", "--b", "1", "--delta", "1/10",
        "--format", "json", "--trace",
    )
    assert code == 0
    obj = json.loads(out)
    from covsize import SampleSizeQuery

    result = min_sample_size(
        SampleSizeQuery(
            family="bernoulli",
            criterion=Absolute(F(1, 4)),
            estimator=UNBIASED,
            a=F(0),
            b=F(1),
            delta=F(1, 10),
        )
    )
    assert obj["found"] is True
    assert obj["n_min"] == result.n_min
    assert obj["coverage_at_n_min"] == result.coverage_at_n_min
    assert F(obj["argmin_theta"]) == result.argmin_theta
    assert obj["delta"] == "1/10"
    assert len(obj["trace"]) == len(result.trace)
    assert obj["trace"][-1][0] == result.n_min


def test_sample_size_csv_is_the_trace(capsys):
    code, out, _ = run_cli(
        capsys,
        "sample-size", "--family", "bernoulli",
        "--abs-eps", "1/4", "--a", "0", "--b", "1", "--delta", "1/10",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "min_coverage", "argmin_theta"]
    assert [int(r[0]) for r in rows[1:]] == list(range(2, 2 + len(rows) - 1))


def test_verify_ok_and_discrepancy_exit_codes(capsys):
    args = (
        "verify", "--family", "bernoulli", "--n", "9",
        "--abs-eps", "1/8", "--a", "0", "--b", "1", "--cells", "400",
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "result: OK" in out
    # an impossible tolerance turns the same comparison into a reported
    # discrepancy and exit code 4
    code, out, _ = run_cli(capsys, *args, "--tol", "-1")
    assert code == 4
    assert "result: DISCREPANCY" in out


def test_verify_json_fields(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--family", "poisson", "--n", "4",
        "--abs-eps", "1/2", "--a", "1", "--b", "3", "--cells", "300",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["discrepancy"] <= obj["tolerance"]
    assert obj["candidate_min"] == pytest.approx(obj["grid_min"], abs=5e-10)


def test_missing_margin_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "candidates", "--n", "5", "--a", "0", "--b", "1"
    )
    assert code == 2
    assert "usage error" in err
    assert "--abs-eps" in err and "--rel-eps" in err


def test_bad_number_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["candidates", "--n", "5", "--abs-eps", "0.1.2", "--a", "0", "--b", "1"])
    assert exc.value.code == 2


def test_domain_errors_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "candidates", "--n", "5", "--rel-eps", "1/2", "--a", "0", "--b", "1"
    )
    assert code == 3 and "error:" in err
    code, _, err = run_cli(
        capsys,
        "min-coverage", "--family", "geometric", "--n", "5",
        "--abs-eps", "1/4", "--a", "0", "--b", "1",
    )
    assert code == 3 and "bernoulli" in err  # unknown family names the known ones
    code, _, err = run_cli(
        capsys,
        "sample-size", "--family", "bernoulli", "--abs-eps", "1/4",
        "--a", "1/2", "--b", "1/4", "--delta", "0.05",
    )
    assert code == 3


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys,
        "candidates", "--n", "4", "--abs-eps", "1/8", "--a", "0", "--b", "1",
        "--format", "json", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text())
    assert obj["count"] == len(obj["points"])


@pytest.mark.slow
@pytest.mark.skipif(shutil.which("covsize") is None, reason="console script not on PATH")
def test_installed_script_runs_end_to_end():
    proc = subprocess.run(
        ["covsize", "candidates", "--n", "2", "--abs-eps", "1/4",
         "--a", "0", "--b", "1", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 4


@pytest.mark.slow
def test_thread_env_does_not_change_bytes():
    """min-coverage JSON is byte-identical at COVSIZE_THREADS=1 and 4 (python -m, no install)."""
    argv = [
        sys.executable, "-m", "covsize.cli", "min-coverage", "--family", "bernoulli",
        "--n", "40", "--abs-eps", "1/10", "--a", "0", "--b", "1",
        "--format", "json", "--evaluations",
    ]
    runs = []
    for threads in ("1", "4"):
        proc = subprocess.run(
            argv, capture_output=True, env=dict(os.environ, COVSIZE_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    obj = json.loads(runs[0])
    assert obj["command"] == "min-coverage"
    assert obj["evaluations"]
    assert runs[0] == runs[1]
