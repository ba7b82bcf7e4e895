"""Command line interface.

Subcommands:
  sample-size     smallest n with worst-case coverage above 1 - delta
  min-coverage    worst-case coverage at a fixed n
  coverage-curve  coverage along a theta grid, merged with candidate points
  candidates      the candidate set itself, with provenance
  verify          candidate-set minimum against the brute-force grid minimum

Each command fills one `Record`, and `write` renders it as text, JSON or CSV.
Exact numbers (margins, interval endpoints, delta, steps) are written as
decimal or ratio strings, e.g. 0.05 or 1/20.  Exit codes: 0 success, 2 bad
usage, 3 domain error, 4 verification discrepancy.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import re
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

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
    acceptance_windows,
)
from .errors import DomainError
from .families import prob_ranges, resolve_family
from .minimize import min_coverage
from .oracle import GridSpec, grid_min_coverage, grid_rows
from .search import SampleSizeQuery, min_sample_size


class UsageError(Exception):
    pass


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


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


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


# ---------------------------------------------------------------------------
# one record per command, rendered in every format

@dataclasses.dataclass
class Record:
    """A command's output: the JSON object, the CSV table and the text lines."""

    obj: dict
    lines: list[str]
    header: list[str] = dataclasses.field(default_factory=list)
    # one list of JSON values per CSV row
    rows: list[list] = dataclasses.field(default_factory=list)
    code: int = 0


def _head(args: argparse.Namespace, crit: ErrorCriterion, est: EstimatorKind) -> Record:
    """Record holding the command, family, criterion, estimator, interval and n."""
    rec = Record({"command": args.command}, [])
    family = getattr(args, "family", None)
    if family is not None:
        rec.obj["family"] = family
        rec.lines.append(f"family: {family}")
    kind = type(crit).__name__.lower()
    margins = dataclasses.asdict(crit)
    rec.obj["criterion"] = {"kind": kind, **{k: ratio_str(v) for k, v in margins.items()}}
    margins_text = " ".join(f"{k}={v}" for k, v in margins.items())
    rec.lines.append(f"criterion: {kind} {margins_text}")
    rec.obj["estimator"] = {"kind": args.estimator}
    text = args.estimator
    if isinstance(est, RangePreserving):
        rec.obj["estimator"].update(lower=ratio_str(est.lower), upper=ratio_str(est.upper))
        text += f" [{est.lower}, {est.upper}]"
    rec.lines.append(f"estimator: {text}")
    rec.obj["interval"] = {"a": ratio_str(args.a), "b": ratio_str(args.b)}
    rec.lines.append(f"interval: [{args.a}, {args.b}]")
    if hasattr(args, "n"):
        rec.obj["n"] = args.n
        rec.lines.append(f"n: {args.n}")
    return rec


def _add_points(rec: Record, key: str, thetas: list[str], floats: list[float],
                provenance: list[str], *, values: Optional[list[float]] = None,
                candidate: Optional[list[bool]] = None, show: bool = True) -> None:
    """Make the points (exact theta as a ratio string, its float, coverage,
    whether it is a candidate, provenance; the middle two when given) the CSV
    table and, when shown, the JSON list under `key` and indented text lines."""
    columns = {"theta_exact": thetas, "theta_float": floats}
    if values is not None:
        columns["coverage"] = values
    if candidate is not None:
        columns["is_candidate"] = [int(x) for x in candidate]  # 1 or 0 in CSV
    columns["provenance"] = provenance
    rec.header = list(columns)
    rec.rows = list(zip(*columns.values()))
    if not show:
        return
    objs = []
    for i, (theta, x, tags) in enumerate(zip(thetas, floats, provenance)):
        obj = {"theta": theta, "theta_float": x}
        text = f"  {theta} ({x!r})"
        if values is not None:
            obj["coverage"] = values[i]
            text += f" coverage={values[i]!r}"
        if candidate is not None:
            obj["is_candidate"] = candidate[i]
        obj["provenance"] = tags
        if candidate is None or candidate[i]:
            text += f" [{tags}]"
        objs.append(obj)
        rec.lines.append(text)
    rec.obj[key] = objs


def _candidate_columns(cset: CandidateSet) -> tuple[list[str], list[float], list[str]]:
    """Each candidate's exact theta as a ratio string, its float and provenance."""
    g = np.gcd(cset.numerators, cset.den)
    thetas = [f"{x}/{d}"
              for x, d in zip((cset.numerators // g).tolist(), (cset.den // g).tolist())]
    joined = {tags: "+".join(tags) for tags in set(cset.tags)}
    return thetas, cset.floats.tolist(), [joined[tags] for tags in cset.tags]


def write(rec: Record, fmt: str, path: str) -> None:
    """Render the record in `fmt` to `path`, - for stdout."""
    if fmt == "json":
        content = json.dumps(rec.obj, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rec.header)
        writer.writerows(rec.rows)
        content = buf.getvalue()
    else:
        content = "\n".join(rec.lines) + "\n"
    if path == "-":
        sys.stdout.write(content)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)


# ---------------------------------------------------------------------------
# commands

def _cmd_sample_size(args: argparse.Namespace, crit: ErrorCriterion,
                     est: EstimatorKind, rec: Record) -> None:
    query = SampleSizeQuery(
        family=args.family, criterion=crit, estimator=est, a=args.a, b=args.b,
        delta=args.delta, n_start=args.n_start, n_max=args.n_max, guard_band=args.guard_band,
    )
    # a printed trace holds each n's full minimum, not the witness that rejected it
    full_trace = args.trace or args.format == "csv"
    result = min_sample_size(query, threads=args.threads, full_trace=full_trace)
    theta = result.argmin_theta
    rec.obj.update(
        delta=ratio_str(args.delta), n_start=args.n_start, n_max=args.n_max,
        guard_band=args.guard_band, found=result.found, n_min=result.n_min,
        coverage_at_n_min=result.coverage_at_n_min,
        argmin_theta=None if theta is None else ratio_str(theta),
        argmin_theta_float=None if theta is None else float(theta),
    )
    rec.header = ["n", "min_coverage", "argmin_theta"]
    rec.rows = [[n, cov, ratio_str(t)] for n, cov, t in result.trace]
    rec.lines.append(f"delta: {args.delta}")
    if args.trace:
        rec.obj["trace"] = rec.rows
        rec.lines += [f"  n={n} min_coverage={cov!r} argmin={t}" for n, cov, t in rec.rows]
    if result.found:
        rec.lines.append(f"n_min: {result.n_min}")
        rec.lines.append(
            f"coverage at n_min: {result.coverage_at_n_min!r} at theta = {ratio_str(theta)}"
        )
    else:
        rec.lines.append(f"n_min: not found up to n_max={args.n_max}")


def _cmd_min_coverage(args: argparse.Namespace, crit: ErrorCriterion,
                      est: EstimatorKind, rec: Record) -> None:
    report = min_coverage(args.family, args.n, crit, est, args.a, args.b,
                          threads=args.threads)
    cset = report.candidate_set
    theta = report.argmin_theta
    rec.obj.update(min_coverage=report.min_coverage, argmin_theta=ratio_str(theta),
                   argmin_theta_float=float(theta), candidates=len(cset),
                   cardinality_bound=ratio_str(cset.cardinality_bound))
    rec.lines.append(f"candidates: {len(cset)} (cardinality bound {cset.cardinality_bound})")
    # a row per candidate is read only by CSV and --evaluations
    if args.evaluations or args.format == "csv":
        _add_points(rec, "evaluations", *_candidate_columns(cset),
                    values=list(report.values), show=args.evaluations)
    rec.lines.append(f"min coverage: {report.min_coverage!r} at theta = {ratio_str(theta)} "
                     f"({float(theta)!r})")


def _cmd_coverage_curve(args: argparse.Namespace, crit: ErrorCriterion,
                        est: EstimatorKind, rec: Record) -> None:
    a, b = args.a, args.b
    if not a < b:
        raise DomainError(f"need a < b, got a={a}, b={b}")
    step = args.step if args.step is not None else (b - a) / args.cells
    if step <= 0 or step > b - a:
        raise DomainError(f"step must lie in (0, b-a], got {step}")
    marks: dict[Fraction, tuple[str, ...]] = {
        a + j * step: () for j in range(grid_rows(a, b, step))}
    if not args.no_candidates:
        for point in candidate_set_for(args.n, crit, est, a, b).points:
            marks[point.theta] = point.tags
    thetas = sorted(marks)
    fam = resolve_family(args.family)
    floats = [float(fam.require_theta(t)) for t in thetas]
    # each point's coverage: the windows at every theta, then one probability batch
    values = prob_ranges(fam, args.n, np.array(floats),
                         *acceptance_windows(args.n, crit, est, thetas))
    _add_points(rec, "points", [ratio_str(t) for t in thetas], floats,
                ["+".join(marks[t]) for t in thetas], values=values.tolist(),
                candidate=[bool(marks[t]) for t in thetas])


def _cmd_candidates(args: argparse.Namespace, crit: ErrorCriterion,
                    est: EstimatorKind, rec: Record) -> None:
    cset = candidate_set_for(args.n, crit, est, args.a, args.b)
    rec.obj.update(rule=cset.rule, count=len(cset),
                   cardinality_bound=ratio_str(cset.cardinality_bound))
    rec.lines.append(f"rule: {cset.rule}")
    rec.lines.append(f"points: {len(cset)} (cardinality bound {cset.cardinality_bound})")
    _add_points(rec, "points", *_candidate_columns(cset))


def _cmd_verify(args: argparse.Namespace, crit: ErrorCriterion,
                est: EstimatorKind, rec: Record) -> None:
    report = min_coverage(args.family, args.n, crit, est, args.a, args.b,
                          threads=args.threads)
    grid = (GridSpec(step=args.step) if args.step is not None
            else GridSpec.divide(args.a, args.b, cells=args.cells))
    grid_min, grid_theta = grid_min_coverage(
        args.family, args.n, crit, est, args.a, args.b, grid)
    discrepancy = abs(report.min_coverage - grid_min)
    ok = discrepancy <= args.tol
    quantities = {
        "candidate_min": report.min_coverage,
        "candidate_argmin": ratio_str(report.argmin_theta),
        "grid_min": grid_min,
        "grid_argmin": ratio_str(grid_theta),
        "discrepancy": discrepancy,
        "tolerance": args.tol,
        "ok": ok,
    }
    rec.obj.update(quantities)
    rec.header = ["quantity", "value"]
    rec.rows = [list(item) for item in quantities.items()]
    rec.rows[-1][1] = int(ok)  # 1 or 0 in CSV
    rec.lines += [
        f"candidate minimum: {report.min_coverage!r} "
        f"at theta = {quantities['candidate_argmin']}",
        f"grid minimum:      {grid_min!r} at theta = {quantities['grid_argmin']}",
        f"discrepancy: {discrepancy!r} (tolerance {args.tol!r})",
        "result: OK" if ok else "result: DISCREPANCY",
    ]
    rec.code = 0 if ok else 4


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covsize",
        description="Exact worst-case coverage and minimum sample sizes for "
                    "mean estimation of integer-valued distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *, family=True, n=True, threads=True,
                cells=None, default_format="text"):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if family:
            p.add_argument("--family", required=True)
        if n:
            p.add_argument("--n", type=_positive_int, required=True)
        p.add_argument("--abs-eps", type=_rational, default=None,
                       help="absolute margin; combine with --rel-eps for the mixed criterion")
        p.add_argument("--rel-eps", type=_rational, default=None,
                       help="relative margin in (0, 1)")
        p.add_argument("--estimator", choices=("unbiased", "range-preserving"),
                       default="unbiased",
                       help="range-preserving clamps the estimate to [a, b]")
        p.add_argument("--a", type=_rational, required=True, help="interval lower endpoint")
        p.add_argument("--b", type=_rational, required=True, help="interval upper endpoint")
        if cells is not None:
            p.add_argument("--step", type=_rational, default=None,
                           help="grid spacing (exact); default (b-a)/cells")
            p.add_argument("--cells", type=_positive_int, default=cells)
        if threads:
            p.add_argument("--threads", type=_positive_int, default=None)
        p.add_argument("--format", choices=("text", "json", "csv"), default=default_format)
        p.add_argument("--output", default="-", help="output path, - for stdout")
        return p

    p = command("sample-size", _cmd_sample_size,
                "smallest n meeting the confidence level", n=False)
    p.add_argument("--delta", type=_rational, required=True,
                   help="allowed miss probability; requires coverage > 1 - delta")
    p.add_argument("--n-start", type=_positive_int, default=2)
    p.add_argument("--n-max", type=_positive_int, default=1_000_000)
    p.add_argument("--guard-band", action="store_true",
                   help="raise the pass threshold by 1e-12 to absorb float noise")
    p.add_argument("--trace", action="store_true",
                   help="include every examined n, each with its full minimum, in "
                        "the output (CSV always has it); each n is then swept in full")

    p = command("min-coverage", _cmd_min_coverage, "worst-case coverage at fixed n")
    p.add_argument("--evaluations", action="store_true",
                   help="include every candidate evaluation in the output")

    p = command("coverage-curve", _cmd_coverage_curve, "coverage along a theta grid",
                threads=False, cells=1000, default_format="csv")
    p.add_argument("--no-candidates", action="store_true",
                   help="plain grid only, skip candidate points")

    command("candidates", _cmd_candidates, "candidate points with provenance",
            family=False, threads=False)

    p = command("verify", _cmd_verify, "candidate minimum vs brute-force grid minimum",
                cells=10_000)
    p.add_argument("--tol", type=_finite_float, default=5e-10,
                   help="largest acceptable |candidate min - grid min| (finite)")
    # argparse takes only -1 and -.5 shapes for negative numbers; widen that so
    # "--tol -1e-3" is a value and "--tol -inf" reaches the finiteness check
    p._negative_number_matcher = re.compile(
        r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        crit, est = _criterion_from(args), _estimator_from(args)
        rec = _head(args, crit, est)
        args.handler(args, crit, est, rec)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    write(rec, args.format, args.output)
    return rec.code


if __name__ == "__main__":
    sys.exit(main())
