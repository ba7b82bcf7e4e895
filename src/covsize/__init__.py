"""Exact minimum sample sizes for mean estimation of integer-valued variables.

Given i.i.d. observations whose sum Y_n takes integer values (Bernoulli and
Poisson built in), this package computes the worst-case probability that the
estimate Y_n / n, or its range-preserving clamp, lands within an absolute,
relative, or mixed margin of the true mean theta over an interval [a, b],
and the smallest n for which that probability clears 1 - delta.  The
minimization over theta is exact: it reduces to evaluating coverage on a
finite candidate set, and an independent brute-force oracle is included to
certify the reduction on any configuration.
"""

from __future__ import annotations

from ._exact import exact, ratio_str
from .candidates import (
    CandidatePoint,
    CandidateSet,
    candidate_set_for,
)
from .coverage import (
    Absolute,
    ErrorCriterion,
    EstimatorKind,
    Mixed,
    RangePreserving,
    Relative,
    UNBIASED,
    Unbiased,
    acceptance_window,
    coverage,
)
from .errors import CovsizeError, DomainError
from .families import (
    BERNOULLI,
    POISSON,
    DistributionFamily,
    ParamSpace,
    available_families,
    get_family,
    peak_count,
    pmf,
    prob_range,
    register_family,
)
from .minimize import CoverageReport, min_coverage
from .oracle import GridSpec, grid_min_coverage, indicator_coverage
from .search import SampleSizeQuery, SampleSizeResult, min_sample_size

__version__ = "0.1.0"

__all__ = [
    "Absolute",
    "BERNOULLI",
    "CandidatePoint",
    "CandidateSet",
    "CoverageReport",
    "CovsizeError",
    "DistributionFamily",
    "DomainError",
    "ErrorCriterion",
    "EstimatorKind",
    "GridSpec",
    "Mixed",
    "POISSON",
    "ParamSpace",
    "RangePreserving",
    "Relative",
    "SampleSizeQuery",
    "SampleSizeResult",
    "UNBIASED",
    "Unbiased",
    "acceptance_window",
    "available_families",
    "candidate_set_for",
    "coverage",
    "exact",
    "get_family",
    "grid_min_coverage",
    "indicator_coverage",
    "min_coverage",
    "min_sample_size",
    "peak_count",
    "pmf",
    "prob_range",
    "ratio_str",
    "register_family",
]
