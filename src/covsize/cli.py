"""Command line interface.

Subcommands:
  sample-size     smallest n with worst-case coverage above 1 - delta
  min-coverage    worst-case coverage at a fixed n
  coverage-curve  coverage along a theta grid, merged with candidate points
  candidates      the candidate set itself, with provenance
  verify          candidate-set minimum against the brute-force grid minimum

Exact numbers (margins, interval endpoints, delta, steps) are written as
decimal or ratio strings, e.g. 0.05 or 1/20.  Exit codes: 0 success, 2 bad
usage, 3 domain error, 4 verification discrepancy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Optional

from ._exact import exact, ratio_str
from .candidates import CandidateSet, candidate_set_for
from .coverage import (
    Absolute,
    ErrorCriterion,
    EstimatorKind,
    Mixed,
    RangePreserving,
    Relative,
    Unbiased,
    coverage,
)
from .errors import DomainError
from .minimize import min_coverage
from .oracle import GridSpec, grid_min_coverage
from .search import SampleSizeQuery, min_sample_size


def _rational(text: str) -> Fraction:
    try:
        return exact(text, name="value")
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _add_interval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=_rational, required=True, help="interval lower endpoint")
    p.add_argument("--b", type=_rational, required=True, help="interval upper endpoint")


def _add_criterion_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--abs-eps", type=_rational, default=None,
                   help="absolute margin; combine with --rel-eps for the mixed criterion")
    p.add_argument("--rel-eps", type=_rational, default=None,
                   help="relative margin in (0, 1)")


def _add_estimator_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--estimator", choices=("unbiased", "range-preserving"),
                   default="unbiased",
                   help="range-preserving clamps the estimate to [a, b]")


def _add_output_args(p: argparse.ArgumentParser, default_format: str = "text") -> None:
    p.add_argument("--format", choices=("text", "json", "csv"), default=default_format)
    p.add_argument("--output", default="-", help="output path, - for stdout")


def _criterion_from(args: argparse.Namespace) -> ErrorCriterion:
    if args.abs_eps is not None and args.rel_eps is not None:
        return Mixed(args.abs_eps, args.rel_eps)
    if args.abs_eps is not None:
        return Absolute(args.abs_eps)
    if args.rel_eps is not None:
        return Relative(args.rel_eps)
    raise UsageError("one of --abs-eps or --rel-eps (or both) is required")


def _estimator_from(args: argparse.Namespace) -> EstimatorKind:
    if args.estimator == "range-preserving":
        return RangePreserving(args.a, args.b)
    return Unbiased()


class UsageError(Exception):
    pass


def _write(path: str, content: str) -> None:
    if path == "-":
        sys.stdout.write(content)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _criterion_text(crit: ErrorCriterion) -> str:
    match crit:
        case Absolute(eps=eps):
            return f"absolute eps={eps}"
        case Relative(eps=eps):
            return f"relative eps={eps}"
        case Mixed():
            return f"mixed eps_abs={crit.eps_abs} eps_rel={crit.eps_rel}"
    return repr(crit)


def _criterion_json(crit: ErrorCriterion) -> dict:
    match crit:
        case Absolute(eps=eps):
            return {"kind": "absolute", "eps": ratio_str(eps)}
        case Relative(eps=eps):
            return {"kind": "relative", "eps": ratio_str(eps)}
        case Mixed():
            return {
                "kind": "mixed",
                "eps_abs": ratio_str(crit.eps_abs),
                "eps_rel": ratio_str(crit.eps_rel),
            }
    return {"kind": "unknown"}


def _estimator_text(est: EstimatorKind) -> str:
    if isinstance(est, RangePreserving):
        return f"range-preserving [{est.lower}, {est.upper}]"
    return "unbiased"


def _estimator_json(est: EstimatorKind) -> dict:
    if isinstance(est, RangePreserving):
        return {
            "kind": "range-preserving",
            "lower": ratio_str(est.lower),
            "upper": ratio_str(est.upper),
        }
    return {"kind": "unbiased"}


def _header_lines(args: argparse.Namespace, crit: ErrorCriterion, est: EstimatorKind,
                  family: Optional[str]) -> list[str]:
    lines = []
    if family is not None:
        lines.append(f"family: {family}")
    lines.append(f"criterion: {_criterion_text(crit)}")
    lines.append(f"estimator: {_estimator_text(est)}")
    lines.append(f"interval: [{args.a}, {args.b}]")
    return lines


def _provenance(tags: tuple[str, ...]) -> str:
    return "+".join(tags)


def _json_dump(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# sample-size

def _cmd_sample_size(args: argparse.Namespace) -> int:
    crit = _criterion_from(args)
    est = _estimator_from(args)
    query = SampleSizeQuery(
        family=args.family,
        criterion=crit,
        estimator=est,
        a=args.a,
        b=args.b,
        delta=args.delta,
        n_start=args.n_start,
        n_max=args.n_max,
        guard_band=args.guard_band,
    )
    # a printed trace holds each n's full minimum, not the witness that rejected it
    full_trace = args.trace or args.format == "csv"
    result = min_sample_size(query, threads=args.threads, full_trace=full_trace)
    if args.format == "json":
        obj = {
            "command": "sample-size",
            "family": args.family,
            "criterion": _criterion_json(crit),
            "estimator": _estimator_json(est),
            "interval": {"a": ratio_str(args.a), "b": ratio_str(args.b)},
            "delta": ratio_str(args.delta),
            "n_start": args.n_start,
            "n_max": args.n_max,
            "guard_band": args.guard_band,
            "found": result.found,
            "n_min": result.n_min,
            "coverage_at_n_min": result.coverage_at_n_min,
            "argmin_theta": (
                None if result.argmin_theta is None else ratio_str(result.argmin_theta)
            ),
            "argmin_theta_float": (
                None if result.argmin_theta is None else float(result.argmin_theta)
            ),
        }
        if args.trace:
            obj["trace"] = [
                [n, cov, ratio_str(theta)] for n, cov, theta in result.trace
            ]
        _write(args.output, _json_dump(obj))
    elif args.format == "csv":
        rows = [[str(n), repr(cov), ratio_str(theta)] for n, cov, theta in result.trace]
        _write(args.output, _csv_text(["n", "min_coverage", "argmin_theta"], rows))
    else:
        lines = _header_lines(args, crit, est, args.family)
        lines.append(f"delta: {args.delta}")
        if args.trace:
            for n, cov, theta in result.trace:
                lines.append(f"  n={n} min_coverage={cov!r} argmin={ratio_str(theta)}")
        if result.found:
            lines.append(f"n_min: {result.n_min}")
            lines.append(
                f"coverage at n_min: {result.coverage_at_n_min!r} "
                f"at theta = {ratio_str(result.argmin_theta)}"
            )
        else:
            lines.append(f"n_min: not found up to n_max={args.n_max}")
        _write(args.output, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# min-coverage

def _cmd_min_coverage(args: argparse.Namespace) -> int:
    crit = _criterion_from(args)
    est = _estimator_from(args)
    report = min_coverage(args.family, args.n, crit, est, args.a, args.b,
                          threads=args.threads)
    cset = report.candidate_set
    if args.format == "json":
        obj = {
            "command": "min-coverage",
            "family": args.family,
            "criterion": _criterion_json(crit),
            "estimator": _estimator_json(est),
            "interval": {"a": ratio_str(args.a), "b": ratio_str(args.b)},
            "n": args.n,
            "min_coverage": report.min_coverage,
            "argmin_theta": ratio_str(report.argmin_theta),
            "argmin_theta_float": float(report.argmin_theta),
            "candidates": len(cset),
            "cardinality_bound": ratio_str(cset.cardinality_bound),
        }
        if args.evaluations:
            obj["evaluations"] = [
                {
                    "theta": ratio_str(point.theta),
                    "theta_float": float(point.theta),
                    "coverage": value,
                    "provenance": _provenance(point.tags),
                }
                for point, (_, value) in zip(cset.points, report.evaluations)
            ]
        _write(args.output, _json_dump(obj))
    elif args.format == "csv":
        rows = [
            [ratio_str(p.theta), repr(float(p.theta)), repr(v), _provenance(p.tags)]
            for p, (_, v) in zip(cset.points, report.evaluations)
        ]
        _write(args.output, _csv_text(
            ["theta_exact", "theta_float", "coverage", "provenance"], rows))
    else:
        lines = _header_lines(args, crit, est, args.family)
        lines.append(f"n: {args.n}")
        lines.append(
            f"candidates: {len(cset)} (cardinality bound {cset.cardinality_bound})"
        )
        if args.evaluations:
            for point, (_, value) in zip(cset.points, report.evaluations):
                lines.append(
                    f"  {ratio_str(point.theta)} ({float(point.theta)!r}) "
                    f"coverage={value!r} [{_provenance(point.tags)}]"
                )
        lines.append(
            f"min coverage: {report.min_coverage!r} "
            f"at theta = {ratio_str(report.argmin_theta)} "
            f"({float(report.argmin_theta)!r})"
        )
        _write(args.output, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# coverage-curve

def _cmd_coverage_curve(args: argparse.Namespace) -> int:
    crit = _criterion_from(args)
    est = _estimator_from(args)
    a, b = args.a, args.b
    if not a < b:
        raise DomainError(f"need a < b, got a={a}, b={b}")
    step = args.step if args.step is not None else (b - a) / args.cells
    if step <= 0 or step > b - a:
        raise DomainError(f"step must lie in (0, b-a], got {step}")

    marks: dict[Fraction, tuple[str, ...]] = {}
    j = 0
    theta = a
    while theta <= b:
        marks[theta] = ()
        j += 1
        theta = a + j * step
    if not args.no_candidates:
        cset = candidate_set_for(args.n, crit, est, a, b)
        for point in cset.points:
            marks[point.theta] = point.tags

    points = []
    for theta in sorted(marks):
        value = coverage(args.family, args.n, crit, est, theta)
        points.append((theta, value, marks[theta]))

    if args.format == "json":
        obj = {
            "command": "coverage-curve",
            "family": args.family,
            "criterion": _criterion_json(crit),
            "estimator": _estimator_json(est),
            "interval": {"a": ratio_str(a), "b": ratio_str(b)},
            "n": args.n,
            "points": [
                {
                    "theta": ratio_str(t),
                    "theta_float": float(t),
                    "coverage": v,
                    "is_candidate": bool(tags),
                    "provenance": _provenance(tags),
                }
                for t, v, tags in points
            ],
        }
        _write(args.output, _json_dump(obj))
    elif args.format == "csv":
        rows = [
            [ratio_str(t), repr(float(t)), repr(v),
             "1" if tags else "0", _provenance(tags)]
            for t, v, tags in points
        ]
        _write(args.output, _csv_text(
            ["theta_exact", "theta_float", "coverage", "is_candidate", "provenance"],
            rows))
    else:
        lines = _header_lines(args, crit, est, args.family)
        lines.append(f"n: {args.n}")
        for t, v, tags in points:
            mark = f" [{_provenance(tags)}]" if tags else ""
            lines.append(f"  {ratio_str(t)} ({float(t)!r}) coverage={v!r}{mark}")
        _write(args.output, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# candidates

def _cmd_candidates(args: argparse.Namespace) -> int:
    crit = _criterion_from(args)
    est = _estimator_from(args)
    cset: CandidateSet = candidate_set_for(args.n, crit, est, args.a, args.b)
    if args.format == "json":
        obj = {
            "command": "candidates",
            "criterion": _criterion_json(crit),
            "estimator": _estimator_json(est),
            "interval": {"a": ratio_str(args.a), "b": ratio_str(args.b)},
            "n": args.n,
            "rule": cset.rule,
            "count": len(cset),
            "cardinality_bound": ratio_str(cset.cardinality_bound),
            "points": [
                {
                    "theta": ratio_str(p.theta),
                    "theta_float": float(p.theta),
                    "provenance": _provenance(p.tags),
                }
                for p in cset.points
            ],
        }
        _write(args.output, _json_dump(obj))
    elif args.format == "csv":
        rows = [
            [ratio_str(p.theta), repr(float(p.theta)), _provenance(p.tags)]
            for p in cset.points
        ]
        _write(args.output, _csv_text(["theta_exact", "theta_float", "provenance"], rows))
    else:
        lines = _header_lines(args, crit, est, None)
        lines.append(f"n: {args.n}")
        lines.append(f"rule: {cset.rule}")
        lines.append(
            f"points: {len(cset)} (cardinality bound {cset.cardinality_bound})"
        )
        for p in cset.points:
            lines.append(
                f"  {ratio_str(p.theta)} ({float(p.theta)!r}) [{_provenance(p.tags)}]"
            )
        _write(args.output, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args: argparse.Namespace) -> int:
    crit = _criterion_from(args)
    est = _estimator_from(args)
    report = min_coverage(args.family, args.n, crit, est, args.a, args.b,
                          threads=args.threads)
    if args.step is not None:
        grid = GridSpec(step=args.step)
    else:
        grid = GridSpec.divide(args.a, args.b, cells=args.cells)
    grid_min, grid_theta = grid_min_coverage(
        args.family, args.n, crit, est, args.a, args.b, grid)
    discrepancy = abs(report.min_coverage - grid_min)
    ok = discrepancy <= args.tol
    if args.format == "json":
        obj = {
            "command": "verify",
            "family": args.family,
            "criterion": _criterion_json(crit),
            "estimator": _estimator_json(est),
            "interval": {"a": ratio_str(args.a), "b": ratio_str(args.b)},
            "n": args.n,
            "candidate_min": report.min_coverage,
            "candidate_argmin": ratio_str(report.argmin_theta),
            "grid_min": grid_min,
            "grid_argmin": ratio_str(grid_theta),
            "discrepancy": discrepancy,
            "tolerance": args.tol,
            "ok": ok,
        }
        _write(args.output, _json_dump(obj))
    elif args.format == "csv":
        rows = [
            ["candidate_min", repr(report.min_coverage)],
            ["candidate_argmin", ratio_str(report.argmin_theta)],
            ["grid_min", repr(grid_min)],
            ["grid_argmin", ratio_str(grid_theta)],
            ["discrepancy", repr(discrepancy)],
            ["tolerance", repr(args.tol)],
            ["ok", "1" if ok else "0"],
        ]
        _write(args.output, _csv_text(["quantity", "value"], rows))
    else:
        lines = _header_lines(args, crit, est, args.family)
        lines.append(f"n: {args.n}")
        lines.append(
            f"candidate minimum: {report.min_coverage!r} "
            f"at theta = {ratio_str(report.argmin_theta)}"
        )
        lines.append(
            f"grid minimum:      {grid_min!r} at theta = {ratio_str(grid_theta)}"
        )
        lines.append(f"discrepancy: {discrepancy!r} (tolerance {args.tol!r})")
        lines.append("result: OK" if ok else "result: DISCREPANCY")
        _write(args.output, "\n".join(lines) + "\n")
    return 0 if ok else 4


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covsize",
        description="Exact worst-case coverage and minimum sample sizes for "
                    "mean estimation of integer-valued distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-size", help="smallest n meeting the confidence level")
    p.add_argument("--family", required=True)
    _add_criterion_args(p)
    _add_estimator_args(p)
    _add_interval_args(p)
    p.add_argument("--delta", type=_rational, required=True,
                   help="allowed miss probability; requires coverage > 1 - delta")
    p.add_argument("--n-start", type=_positive_int, default=2)
    p.add_argument("--n-max", type=_positive_int, default=1_000_000)
    p.add_argument("--guard-band", action="store_true",
                   help="raise the pass threshold by 1e-12 to absorb float noise")
    p.add_argument("--trace", action="store_true",
                   help="include every examined n, each with its full minimum, in "
                        "the output (CSV always has it); each n is then swept in full")
    p.add_argument("--threads", type=_positive_int, default=None)
    _add_output_args(p)
    p.set_defaults(handler=_cmd_sample_size)

    p = sub.add_parser("min-coverage", help="worst-case coverage at fixed n")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    _add_criterion_args(p)
    _add_estimator_args(p)
    _add_interval_args(p)
    p.add_argument("--evaluations", action="store_true",
                   help="include every candidate evaluation in the output")
    p.add_argument("--threads", type=_positive_int, default=None)
    _add_output_args(p)
    p.set_defaults(handler=_cmd_min_coverage)

    p = sub.add_parser("coverage-curve", help="coverage along a theta grid")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    _add_criterion_args(p)
    _add_estimator_args(p)
    _add_interval_args(p)
    p.add_argument("--step", type=_rational, default=None,
                   help="grid spacing (exact); default (b-a)/cells")
    p.add_argument("--cells", type=_positive_int, default=1000)
    p.add_argument("--no-candidates", action="store_true",
                   help="plain grid only, skip candidate points")
    _add_output_args(p, default_format="csv")
    p.set_defaults(handler=_cmd_coverage_curve)

    p = sub.add_parser("candidates", help="candidate points with provenance")
    p.add_argument("--n", type=_positive_int, required=True)
    _add_criterion_args(p)
    _add_estimator_args(p)
    _add_interval_args(p)
    _add_output_args(p)
    p.set_defaults(handler=_cmd_candidates)

    p = sub.add_parser("verify", help="candidate minimum vs brute-force grid minimum")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    _add_criterion_args(p)
    _add_estimator_args(p)
    _add_interval_args(p)
    p.add_argument("--step", type=_rational, default=None,
                   help="grid spacing (exact); default (b-a)/cells")
    p.add_argument("--cells", type=_positive_int, default=10_000)
    p.add_argument("--tol", type=float, default=5e-10,
                   help="largest acceptable |candidate min - grid min|")
    p.add_argument("--threads", type=_positive_int, default=None)
    _add_output_args(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
