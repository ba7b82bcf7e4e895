"""Command line interface: outputs, exit codes, determinism."""

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from covsize import UNBIASED, Absolute, min_coverage, min_sample_size
from covsize.cli import build_parser, main

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


_SEARCH = ("sample-size", "--family", "bernoulli", "--abs-eps", "1/4", "--a", "0", "--b", "1")
_MIN_COVERAGE = ("min-coverage", "--family", "bernoulli", "--n", "45", "--rel-eps", "1/5",
                 "--a", "1/10", "--b", "9/10")
_CURVE = ("coverage-curve", "--family", "poisson", "--n", "8", "--abs-eps", "1/2",
          "--a", "1", "--b", "3", "--step", "1/3", "--no-candidates")
_CANDIDATES = ("candidates", "--n", "30", "--rel-eps", "1/3", "--a", "1/8", "--b", "7/8",
               "--estimator", "range-preserving")
_VERIFY = ("verify", "--family", "bernoulli", "--n", "25", "--abs-eps", "1/10",
           "--a", "0", "--b", "1", "--cells", "1000", "--tol", "-1")

# exit code and SHA-256 of stdout for the output paths the acceptance
# invocations above do not take: a search without its trace and one that
# finds nothing, a minimum without evaluations, a plain grid, a relative
# range-preserving candidate set, and a verification discrepancy
FROZEN_CLI_PATHS = [
    pytest.param(_SEARCH + ("--delta", "1/10"), "text", 0,
                 "4d53ed27b06c2435581e75eafda81fbef3d515a60582490675db8d489143ed29",
                 id="sample-size-text"),
    pytest.param(_SEARCH + ("--delta", "1/10"), "json", 0,
                 "8d597ca43180b958a95204d49f583bf78f762dcb4d74a55758ffdcd9f654e827",
                 id="sample-size-json"),
    pytest.param(_SEARCH + ("--delta", "1/1000", "--n-max", "4"), "text", 0,
                 "31c6bc420d2a4764be38bf55dd7f1748d5eaf97e96a8ef683281e913016cb776",
                 id="not-found-text"),
    pytest.param(_SEARCH + ("--delta", "1/1000", "--n-max", "4"), "json", 0,
                 "05ac057c939a8f8e914e3ff89eca651ea2a2e3e267e85848732e37fe36a92c77",
                 id="not-found-json"),
    pytest.param(_SEARCH + ("--delta", "1/1000", "--n-max", "4"), "csv", 0,
                 "6616e4317c943f40c5f23657d2142b71333b4d40e6589b6f31c5f244183e7bff",
                 id="not-found-csv"),
    pytest.param(_MIN_COVERAGE, "text", 0,
                 "8664152c0e7175fb8bc74f8eadfa9a6e8e481d83c4c0bdb2a9a9cdf1beb43292",
                 id="min-coverage-text"),
    pytest.param(_MIN_COVERAGE, "json", 0,
                 "bebc897dce1e705b52a277888d8e441d980230cbf88798af452cffc62169b091",
                 id="min-coverage-json"),
    pytest.param(_CURVE, "text", 0,
                 "f2d43db8f805b5d54640c2d3e484b15a25ada92e9d66eeae20465e506858ae0d",
                 id="coverage-curve-text"),
    pytest.param(_CURVE, "json", 0,
                 "7bdb86f3fd94df201fc5af4ca59818b0fc1f11789525b582a1e133eb728117f7",
                 id="coverage-curve-json"),
    pytest.param(_CANDIDATES, "text", 0,
                 "3a12d4b91f155dce430242b8b9c0055b230488a28917d31982a58c73cd687196",
                 id="candidates-text"),
    pytest.param(_VERIFY, "text", 4,
                 "90eb3218c1685b4789f601c10dac915a9cc6ec4c8dc62b669980b2b04833c1c5",
                 id="verify-text"),
    pytest.param(_VERIFY, "json", 4,
                 "7affbe208326a7620b175d2c062199498f0ed37e5a2ea50dd0809db6e0f4f838",
                 id="verify-json"),
    pytest.param(_VERIFY, "csv", 4,
                 "69ee41d9c699d06134ed8d8e5b8609cb9f136c78306240c429b53e135d211fdc",
                 id="verify-csv"),
]


@pytest.mark.parametrize("argv, fmt, exit_code, digest", FROZEN_CLI_PATHS)
def test_cli_paths_reproduce_frozen_bytes_and_exit_codes(
    capsys, tmp_path, argv, fmt, exit_code, digest
):
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code == exit_code, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    # --output writes the very bytes that go to stdout
    target = tmp_path / "out"
    code, to_stdout, _ = run_cli(capsys, *argv, "--format", fmt, "--output", str(target))
    assert code == exit_code and to_stdout == ""
    assert target.read_bytes() == out.encode()


# (default, required, choices) of every option of every subcommand; the
# order of options in --help may change, this surface may not
_COMMON_OPTIONS = {
    "--abs-eps": (None, False, None),
    "--rel-eps": (None, False, None),
    "--estimator": ("unbiased", False, ("unbiased", "range-preserving")),
    "--a": (None, True, None),
    "--b": (None, True, None),
    "--format": ("text", False, ("text", "json", "csv")),
    "--output": ("-", False, None),
}
_FAMILY_N = {"--family": (None, True, None), "--n": (None, True, None)}
_THREADS = {"--threads": (None, False, None)}
FROZEN_PARSER_SURFACE = {
    "sample-size": {
        **_COMMON_OPTIONS, **_THREADS,
        "--family": (None, True, None),
        "--delta": (None, True, None),
        "--n-start": (2, False, None),
        "--n-max": (1_000_000, False, None),
        "--guard-band": (False, False, None),
        "--trace": (False, False, None),
    },
    "min-coverage": {
        **_COMMON_OPTIONS, **_FAMILY_N, **_THREADS,
        "--evaluations": (False, False, None),
    },
    "coverage-curve": {
        **_COMMON_OPTIONS, **_FAMILY_N,
        "--format": ("csv", False, ("text", "json", "csv")),
        "--step": (None, False, None),
        "--cells": (1000, False, None),
        "--no-candidates": (False, False, None),
    },
    "candidates": {**_COMMON_OPTIONS, "--n": (None, True, None)},
    "verify": {
        **_COMMON_OPTIONS, **_FAMILY_N, **_THREADS,
        "--step": (None, False, None),
        "--cells": (10_000, False, None),
        "--tol": (5e-10, False, None),
    },
}


def test_parser_surface_is_frozen():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(FROZEN_PARSER_SURFACE)
    for command, expected in FROZEN_PARSER_SURFACE.items():
        surface = {
            "/".join(action.option_strings): (action.default, action.required, action.choices)
            for action in sub.choices[command]._actions
            if not isinstance(action, argparse._HelpAction)
        }
        assert surface == expected, command


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


@pytest.mark.parametrize("fmt,evaluations,built", [
    ("text", False, False), ("json", False, False),
    ("text", True, True), ("json", True, True), ("csv", False, True),
])
def test_min_coverage_builds_candidate_rows_only_when_printed(capsys, monkeypatch, fmt,
                                                              evaluations, built):
    # text and JSON print one line per candidate only with --evaluations, so
    # without it the report's lazy per-candidate fields stay uncomputed
    import covsize.cli as cli

    reports = []

    def capturing(*args, **kwargs):
        reports.append(min_coverage(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "min_coverage", capturing)
    argv = ["min-coverage", "--family", "bernoulli", "--n", "40", "--abs-eps", "1/10",
            "--a", "0", "--b", "1", "--format", fmt]
    code, out, _ = run_cli(capsys, *argv, *(["--evaluations"] if evaluations else []))
    assert code == 0 and out
    (report,) = reports
    assert ("evaluations" in report.__dict__) is built
    assert ("points" in report.candidate_set.__dict__) is built
    assert ("thetas" in report.candidate_set.__dict__) is built


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


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_verify_rejects_a_non_finite_tolerance(capsys, tol):
    # a NaN tolerance used to print "tolerance": NaN, which is not JSON, and
    # report a discrepancy of 0.0 as a failure
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "bernoulli", "--n", "9", "--abs-eps", "1/8",
              "--a", "0", "--b", "1", "--cells", "400", f"--tol={tol}", "--format", "json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("tol", ["-1e-3", "-2.5E+1", "-1."])
def test_verify_takes_a_negative_tolerance_in_any_float_form(capsys, tol):
    # argparse reads "-1e-3" as an option unless told it is a number
    code, out, err = run_cli(
        capsys, "verify", "--family", "bernoulli", "--n", "9", "--abs-eps", "1/8",
        "--a", "0", "--b", "1", "--cells", "400", "--tol", tol, "--format", "json",
    )
    assert (code, err) == (4, "")
    assert json.loads(out)["tolerance"] == float(tol)


@pytest.mark.parametrize("tol", ["-inf", "-Infinity", "-nan"])
def test_verify_rejects_a_separate_non_finite_tolerance_token(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "bernoulli", "--n", "9", "--abs-eps", "1/8",
              "--a", "0", "--b", "1", "--cells", "400", "--tol", tol])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a finite number" in captured.err


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


@pytest.mark.parametrize("argv, message", [
    (["candidates", "--n", "5", "--abs-eps", "0.1.2"], "0.1.2"),
    (["candidates", "--n", "0", "--abs-eps", "1/8"], "expected a positive integer, got 0"),
    (["verify", "--family", "bernoulli", "--n", "9", "--abs-eps", "1/8", "--tol", "x"],
     "expected a number, got 'x'"),
], ids=["margin", "n", "tol"])
def test_bad_number_is_argparse_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--a", "0", "--b", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


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


@pytest.mark.parametrize("bounds, message", [
    (["--a", "1/2", "--b", "1/2"], "need a < b"),
    (["--a", "1/2", "--b", "1/4"], "need a < b"),
    (["--a", "0", "--b", "1/2", "--step", "0"], "step must lie in (0, b-a]"),
    (["--a", "0", "--b", "1/2", "--step", "3/4"], "step must lie in (0, b-a]"),
])
def test_coverage_curve_rejects_an_empty_interval_and_a_step_outside_it(capsys, bounds,
                                                                        message):
    code, out, err = run_cli(capsys, "coverage-curve", "--family", "bernoulli", "--n", "5",
                             "--abs-eps", "1/4", *bounds)
    assert code == 3 and out == "" and message in err


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
def test_console_script_target_runs_end_to_end():
    """The `covsize` entry point of pyproject.toml, run as the installed
    script would run it, from a plain checkout."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["covsize"]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.argv[0] = 'covsize'; sys.exit({func}())"
    proc = subprocess.run(
        [sys.executable, "-c", code, "candidates", "--n", "2", "--abs-eps", "1/4",
         "--a", "0", "--b", "1", "--format", "json"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert proc.returncode == 0, proc.stderr
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


@pytest.mark.parametrize("command", ["verify", "coverage-curve"])
def test_a_grid_of_more_than_a_million_rows_exits_3(capsys, command):
    # 10**12 rows would exhaust memory or run for hours; the row count is
    # checked before any row is built
    code, out, err = run_cli(
        capsys, command, "--family", "bernoulli", "--n", "5", "--abs-eps", "1/4",
        "--a", "0", "--b", "1", "--step", "1/1000000000000",
    )
    assert code == 3 and out == ""
    assert "1000000000001 rows" in err and "at most 1000000" in err


@pytest.mark.parametrize("command, extra, message", [
    ("min-coverage", [], "at most 10000000 points"),
    ("verify", [], "at most 10000000 points"),
    ("coverage-curve", [], "at most 10000000 points"),
    ("coverage-curve", ["--no-candidates"], "does not fit in int64"),
])
def test_extreme_inputs_exit_3(capsys, command, extra, message):
    code, out, err = run_cli(capsys, command, "--family", "poisson", "--n", "10",
                             "--rel-eps", "1/5", "--a", str(10**30), "--b", str(2 * 10**30),
                             *extra)
    assert code == 3 and out == "" and message in err
