"""CSV and manifest emission with byte-stable bodies.

Floats are written with repr (shortest round-trip form), '.' decimal
separator, no grouping; column orders are fixed.  Timestamps never appear
in CSV bodies, only in the run manifest.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .critical import PcResult
from .experiments import RegimeSummary, SprinkleReport, SweepRecord
from .lemmas import SuiteResult
from .stats import RadialProfile, TriangleReport

__all__ = [
    "fmt",
    "write_csv",
    "write_manifest",
    "pc_result_rows",
    "pc_trace_rows",
    "sweep_rows",
    "summary_rows",
    "sprinkle_rows",
    "profile_rows",
    "triangle_rows",
    "suite_rows",
]


def fmt(value: Any) -> str:
    """Canonical cell text: empty for None, repr for floats, str otherwise."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(cell) for cell in row])


def write_manifest(path: Path | str, entries: Mapping[str, Any]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {fmt(value)}\n")


PC_RESULT_HEADER = ["n", "lambda", "p_hat", "ci_half_width", "replicates_used",
                    "chi_mean", "chi_se", "chi_replicates", "converged"]


def pc_result_rows(result: PcResult) -> list[list[Any]]:
    return [[result.n, result.lam, result.p_hat, result.ci_half_width,
             result.replicates_used, result.chi_at_p_hat.mean,
             result.chi_at_p_hat.std_error, result.chi_at_p_hat.replicates,
             result.converged]]


PC_TRACE_HEADER = ["iteration", "lo", "hi", "midpoint", "chi_mean", "chi_se", "replicates"]


def pc_trace_rows(result: PcResult) -> list[list[Any]]:
    return [[t.iteration, t.lo, t.hi, t.midpoint, t.chi_mean, t.chi_se, t.replicates]
            for t in result.trace]


SWEEP_HEADER = ["epsilon", "Lambda", "p", "regime", "skipped",
                "chi_mean", "chi_se", "cmax_mean", "cmax_median", "c2_mean",
                "theta_mean", "theta_se", "z_mean", "z_se", "n_alpha",
                "ref_below", "ref_inside", "ref_above"]


def _est(estimate) -> tuple[Any, Any]:
    if estimate is None:
        return None, None
    return estimate.mean, estimate.std_error


def sweep_rows(records: list[SweepRecord]) -> list[list[Any]]:
    rows = []
    for rec in records:
        chi_m, chi_s = _est(rec.chi)
        th_m, th_s = _est(rec.theta)
        z_m, z_s = _est(rec.z_geq)
        rows.append([
            rec.epsilon, rec.Lambda, rec.p, rec.regime, rec.skipped,
            chi_m, chi_s, rec.cmax_mean, rec.cmax_median, rec.c2_mean,
            th_m, th_s, z_m, z_s, rec.n_alpha_cut,
            rec.ref_below, rec.ref_inside, rec.ref_above,
        ])
    return rows


SUMMARY_HEADER = ["regime", "metric", "value", "rows"]


def summary_rows(summary: RegimeSummary) -> list[list[Any]]:
    return [[e.regime, e.metric, e.value, e.rows] for e in summary.entries]


SPRINKLE_HEADER = ["replicate", "n", "epsilon", "alpha", "p", "p_minus",
                   "M", "cmax_before", "cmax_after", "c2_after", "merged_fraction"]


def sprinkle_rows(reports: list[SprinkleReport]) -> list[list[Any]]:
    return [[i, r.n, r.epsilon, r.alpha, r.p, r.p_minus,
             r.M, r.cmax_before, r.cmax_after, r.c2_after, r.merged_fraction]
            for i, r in enumerate(reports)]


PROFILE_HEADER = ["k", "t_k"]


def profile_rows(profile: RadialProfile) -> list[list[Any]]:
    return [[k, float(v)] for k, v in enumerate(profile.values)]


TRIANGLE_HEADER = ["p", "nabla_diag", "nabla_offdiag", "a0", "k1", "k2", "chi_used"]


def triangle_rows(reports: list[TriangleReport]) -> list[list[Any]]:
    return [[r.p, r.nabla_diag, r.nabla_offdiag, r.a0, r.k1, r.k2, r.chi_used]
            for r in reports]


SUITE_HEADER = ["suite", "instances", "violations", "first_failure"]


def suite_rows(results: list[SuiteResult]) -> list[list[Any]]:
    return [[r.name, r.instances, r.violations, r.first_failure] for r in results]
