"""Serialization of results: CSV records, JSON summaries, text tables.

JSON keeps every rate as an exact rational ({"num": ..., "den": ...});
CSV and rendered tables round to fixed decimals.  Outputs carry no
timestamps so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .branches import (
    BranchInfo,
    PrecisionRecord,
    StudyDiagnostics,
    WinnerRateBin,
)
from .evaluation import (
    EvaluationRecord,
    ExperimentResult,
    PairedVerdict,
    aggregate_rates,
    map_all,
    map_app,
    repo_level_winner,
    wilcoxon_signed_rank,
)

RECORD_COLUMNS = [
    "commit",
    "oracle",
    "query",
    "strategy",
    "outcome",
    "oracle_rank",
    "average_precision",
    "n_recommendations",
    "n_rules",
]


def frac_json(value: Fraction | None) -> dict | None:
    if value is None:
        return None
    return {"num": value.numerator, "den": value.denominator}


def fmt_decimal(value: Fraction | float | None, places: int = 3) -> str:
    if value is None:
        return "n/a"
    return f"{float(value):.{places}f}"


def _record_row(record: EvaluationRecord) -> list[str]:
    case = record.test_case
    return [
        case.commit,
        case.oracle,
        ";".join(sorted(case.query)),
        record.strategy.value,
        record.outcome.value,
        "" if record.oracle_rank is None else str(record.oracle_rank),
        f"{float(record.average_precision):.6f}",
        str(record.n_recommendations),
        str(record.n_rules),
    ]


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as UTF-8 CSV with LF line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_records_csv(result: ExperimentResult, path: str | Path) -> None:
    """One row per record; each test case contributes both strategies'
    rows back to back, in experiment order."""
    write_csv(
        path,
        RECORD_COLUMNS,
        (_record_row(r) for pair in zip(result.records_a, result.records_b) for r in pair),
    )


def _strategy_summary(
    records: Sequence[EvaluationRecord], wins: int
) -> dict:
    """Per-strategy rates; every rate is None when there are no records."""
    rates, m_all, m_app = (None,) * 5, None, None
    if records:
        rates, m_all = aggregate_rates(records), map_all(records)
        try:
            m_app = map_app(records)
        except ValueError:
            pass
    success, failure, no_pred, mean_recs, mean_rules = rates
    return {
        "events": len(records),
        "wins": wins,
        "mean_recommendations": frac_json(mean_recs),
        "mean_rules": frac_json(mean_rules),
        "success_rate": frac_json(success),
        "failure_rate": frac_json(failure),
        "no_prediction_rate": frac_json(no_pred),
        "map_all": frac_json(m_all),
        "map_app": frac_json(m_app),
    }


def summarize_experiment(result: ExperimentResult) -> dict:
    """JSON-ready summary of one paired evaluation run."""
    a, b = result.strategy_a, result.strategy_b
    tally = Counter(result.verdicts)
    summary = {
        "repo_label": result.repo_label,
        "strategy_pair": [a.value, b.value],
        "fairness": result.fairness,
        "events": result.events,
        "commits_considered": result.commits_considered,
        "commits_eligible": result.commits_eligible,
        "ineligible_reasons": dict(sorted(result.ineligible_reasons.items())),
        "per_strategy": {
            a.value: _strategy_summary(result.records_a, tally[PairedVerdict.WIN_A]),
            b.value: _strategy_summary(result.records_b, tally[PairedVerdict.WIN_B]),
        },
        "draws": tally[PairedVerdict.DRAW],
        "errors": [
            {"commit": cid, "error": msg} for cid, msg in result.errors
        ],
    }
    if result.events:
        pairs = [
            (ra.average_precision, rb.average_precision)
            for ra, rb in zip(result.records_a, result.records_b)
        ]
        stat = wilcoxon_signed_rank(pairs)
        summary["wilcoxon_map"] = {
            "statistic": stat.statistic,
            "p_value": stat.p_value,
        }
        summary["repo_winner"] = {
            metric: _winner_name(result, metric)
            for metric in ("success_rate", "map_all", "wins")
        }
    else:
        summary["wilcoxon_map"] = None
        summary["repo_winner"] = None
    return summary


def _winner_name(result: ExperimentResult, metric) -> str:
    verdict = repo_level_winner(result.records_a, result.records_b, metric)
    if verdict is PairedVerdict.WIN_A:
        return result.strategy_a.value
    if verdict is PairedVerdict.WIN_B:
        return result.strategy_b.value
    return "draw"


def write_json(payload, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def write_winner_rate_csv(
    bins: Sequence[WinnerRateBin], path: str | Path
) -> None:
    write_csv(
        path,
        ["bin_low", "bin_high", "wins_full", "wins_fp", "draws", "n"],
        ([b.low, b.high, b.wins_a, b.wins_b, b.draws, b.n] for b in bins),
    )


def write_precision_csv(
    records: Sequence[tuple[PrecisionRecord, BranchInfo]], path: str | Path
) -> None:
    write_csv(
        path,
        ["merge_id", "mode", "branch_length", "merge_size", "mean_precision"],
        (
            [record.merge, record.mode.value, info.branch_length,
             info.merge_size, f"{float(record.mean_precision):.6f}"]
            for record, info in records
        ),
    )


def precision_summary(
    records: Sequence[tuple[PrecisionRecord, BranchInfo]],
    diagnostics: StudyDiagnostics,
    horizon: int,
) -> dict:
    per_mode: dict[str, list[Fraction]] = {}
    for record, _ in records:
        per_mode.setdefault(record.mode.value, []).append(record.mean_precision)
    modes = {}
    for mode, values in sorted(per_mode.items()):
        modes[mode] = {
            "merges": len(values),
            "mean_precision": frac_json(Fraction(sum(values), len(values))),
        }
    return {
        "horizon": horizon,
        "modes": modes,
        "records": [
            {
                "merge": record.merge,
                "mode": record.mode.value,
                "branch_length": info.branch_length,
                "merge_size": info.merge_size,
                "mean_precision": frac_json(record.mean_precision),
                "per_file": {
                    f: frac_json(v)
                    for f, v in sorted(record.per_file_precision.items())
                },
            }
            for record, info in records
        ],
        "diagnostics": asdict(diagnostics),
    }


def errors_line(count: int, commit: str, message: str) -> str:
    """The one-line report of a run's per-commit errors."""
    return f"errors: {count} (first: {commit}: {message})"


def _frac_of(value: dict | None) -> Fraction | None:
    if value is None:
        return None
    return Fraction(value["num"], value["den"])


def render_summary_tables(summaries: Sequence[dict]) -> str:
    """Human-readable tables for one or more evaluation summaries."""
    out: list[str] = []
    for summary in summaries:
        label = summary.get("repo_label") or "(unlabelled)"
        pair = summary.get("strategy_pair", ["?", "?"])
        out.append(f"== {label}: {pair[0]} vs {pair[1]} "
                   f"(fairness {'on' if summary.get('fairness') else 'off'}) ==")
        errors = summary.get("errors")
        if errors:
            first = errors[0]
            out.append(errors_line(len(errors), first["commit"], first["error"]))
        if not summary.get("events"):
            out.append("no eligible events")
            out.append("")
            continue
        out.append(f"events: {summary['events']}  "
                   f"commits: {summary['commits_eligible']} eligible "
                   f"of {summary['commits_considered']}")
        header = (
            f"{'strategy':<14}{'events':>8}{'recs':>8}{'rules':>8}"
            f"{'success':>9}{'failure':>9}{'no-pred':>9}"
            f"{'map_all':>9}{'map_app':>9}{'wins':>6}"
        )
        out.append(header)
        for name in pair:
            s = summary["per_strategy"][name]
            out.append(
                f"{name:<14}{s['events']:>8}"
                f"{fmt_decimal(_frac_of(s['mean_recommendations'])):>8}"
                f"{fmt_decimal(_frac_of(s['mean_rules'])):>8}"
                f"{fmt_decimal(_frac_of(s['success_rate'])):>9}"
                f"{fmt_decimal(_frac_of(s['failure_rate'])):>9}"
                f"{fmt_decimal(_frac_of(s['no_prediction_rate'])):>9}"
                f"{fmt_decimal(_frac_of(s['map_all'])):>9}"
                f"{fmt_decimal(_frac_of(s['map_app'])):>9}"
                f"{s['wins']:>6}"
            )
        out.append(f"draws: {summary['draws']}")
        wilcoxon = summary.get("wilcoxon_map")
        if wilcoxon and wilcoxon.get("p_value") is not None:
            out.append(
                f"signed-rank on AP: statistic={wilcoxon['statistic']:.1f} "
                f"p={wilcoxon['p_value']:.5f}"
            )
        winner = summary.get("repo_winner") or {}
        if winner:
            parts = [f"{metric}={name}" for metric, name in winner.items()]
            out.append("repo winner: " + "  ".join(parts))
        out.append("")
    if len(summaries) > 1:
        out.append("== repo-level winner counts ==")
        metrics = ("success_rate", "map_all", "wins")
        out.append(f"{'metric':<14}{'winner':<40}")
        counts = {m: Counter() for m in metrics}
        for summary in summaries:
            winner = summary.get("repo_winner") or {}
            for m in metrics:
                counts[m][winner.get(m, "n/a")] += 1
        for m in metrics:
            pairs = "  ".join(
                f"{name}:{count}" for name, count in sorted(counts[m].items())
            )
            out.append(f"{m:<14}{pairs}")
        out.append("")
    return "\n".join(out)
