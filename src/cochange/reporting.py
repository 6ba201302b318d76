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
    METRICS,
    EvaluationRecord,
    ExperimentResult,
    PairedVerdict,
    _mean,
    _verdict,
    aggregate_rates,
    map_all,
    map_app,
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


def frac_json(value: Fraction) -> dict:
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


_RATES = ("success_rate", "failure_rate", "no_prediction_rate",
          "mean_recommendations", "mean_rules")  # in aggregate_rates' order


def _strategy_figures(records: Sequence[EvaluationRecord], wins: int) -> dict:
    """Per-strategy counts and exact rates; every rate is None when there
    are no records, and ``map_app`` also when none has recommendations."""
    figures = dict.fromkeys(_RATES + ("map_all", "map_app"))
    figures.update(events=len(records), wins=wins)
    if records:
        figures.update(zip(_RATES, aggregate_rates(records)), map_all=map_all(records))
        try:
            figures["map_app"] = map_app(records)
        except ValueError:
            pass
    return figures


def summarize_experiment(result: ExperimentResult) -> dict:
    """JSON-ready summary of one paired evaluation run: each figure is computed
    once, and ``_verdict`` reads the winners off them."""
    a, b = result.strategy_a, result.strategy_b
    tally = Counter(result.verdicts)
    fig_a = _strategy_figures(result.records_a, tally[PairedVerdict.WIN_A])
    fig_b = _strategy_figures(result.records_b, tally[PairedVerdict.WIN_B])
    summary = {
        "repo_label": result.repo_label,
        "strategy_pair": [a.value, b.value],
        "fairness": result.fairness,
        "events": result.events,
        "commits_considered": result.commits_considered,
        "commits_eligible": result.commits_eligible,
        "ineligible_reasons": dict(sorted(result.ineligible_reasons.items())),
        "per_strategy": {
            s.value: {k: frac_json(v) if isinstance(v, Fraction) else v
                      for k, v in figures.items()}
            for s, figures in ((a, fig_a), (b, fig_b))
        },
        "draws": tally[PairedVerdict.DRAW],
        "errors": [{"commit": c, "error": m} for c, m in result.errors],
        "wilcoxon_map": None,
        "repo_winner": None,
    }
    if result.events:
        stat = wilcoxon_signed_rank([
            (ra.average_precision, rb.average_precision)
            for ra, rb in zip(result.records_a, result.records_b)
        ])
        summary["wilcoxon_map"] = stat._asdict()
        verdicts = {m: _verdict(m, fig_a[m], fig_b[m], stat.p_value) for m in METRICS}
        names = {PairedVerdict.WIN_A: a.value, PairedVerdict.WIN_B: b.value}
        summary["repo_winner"] = {m: names.get(v, "draw") for m, v in verdicts.items()}
    return summary


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
            "mean_precision": frac_json(_mean(values)),
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


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", bool: "true or false",
               int: "an integer", float: "a float", type(None): "null"}


class _Fields:
    """Checked reads from one JSON object or list of a summary: a missing
    key, or a value of none of the JSON types asked for, raises ValueError
    naming the dotted key, e.g. ``per_strategy.full.map_all``."""

    def __init__(self, container, path: str = ""):
        self.container, self.path = container, path

    def __call__(self, key, *types: type):
        path = f"{self.path}{key}"
        try:
            value = self.container[key]
        except (KeyError, IndexError):
            raise ValueError(f"{path}: missing") from None
        if type(value) not in types:  # exact, so JSON true is no integer
            raise ValueError(f"{path}: must be {' or '.join(map(_JSON_TYPES.get, types))}")
        if type(value) is str and any("\ud800" <= c <= "\udfff" for c in value):
            raise ValueError(f"{path}: holds a lone surrogate, not text")
        return value

    def nested(self, key, kind: type = dict) -> "_Fields":
        return _Fields(self(key, kind), f"{self.path}{key}.")

    def fraction(self, key, nullable: bool = True) -> Fraction | None:
        """A ``frac_json`` rational that a float can hold, or null if ``nullable``."""
        if self(key, dict, *[type(None)] * nullable) is None:
            return None
        frac = self.nested(key)
        try:
            value = Fraction(frac("num", int), frac("den", int))
            float(value)
        except (ZeroDivisionError, OverflowError):
            raise ValueError(f"{self.path}{key}: not a finite rational") from None
        return value


# (per-strategy key, column heading, width) of each rate in the table.
_RATE_COLUMNS = (("mean_recommendations", "recs", 8), ("mean_rules", "rules", 8),
                 ("success_rate", "success", 9), ("failure_rate", "failure", 9),
                 ("no_prediction_rate", "no-pred", 9), ("map_all", "map_all", 9),
                 ("map_app", "map_app", 9))


def _summary_block(summary: dict) -> tuple[list[str], dict | None]:
    """One summary's table lines and its repo winners (None without
    events), every field read through ``_Fields``.  The figures must
    agree: each strategy's events and the wins plus draws equal
    ``events``, and each winner is the one ``_verdict`` reads off the
    strategies' figures and the signed-rank p-value."""
    s = _Fields(summary)
    pair = s.nested("strategy_pair", list)
    if len(pair.container) != 2 or pair.container[0] == pair.container[1]:
        raise ValueError("strategy_pair: must name two strategies")
    names = [pair(0, str), pair(1, str)]
    out = [f"== {s('repo_label', str) or '(unlabelled)'}: {names[0]} vs "
           f"{names[1]} (fairness {'on' if s('fairness', bool) else 'off'}) =="]
    errors = s.nested("errors", list)
    if errors.container:
        first = errors.nested(0)
        out.append(errors_line(len(errors.container), first("commit", str),
                               first("error", str)))
    events = s("events", int)
    if not events:
        return out + ["no eligible events", ""], None
    out += [f"events: {events}  commits: {s('commits_eligible', int)} eligible "
            f"of {s('commits_considered', int)}",
            f"{'strategy':<14}{'events':>8}"
            + "".join(f"{head:>{w}}" for _, head, w in _RATE_COLUMNS) + f"{'wins':>6}"]
    per_strategy = s.nested("per_strategy")
    figures = []  # each strategy's rates and wins
    for name in names:
        if name not in per_strategy.container:
            raise ValueError(f"strategy_pair: {name!r} is not in per_strategy")
        f = per_strategy.nested(name)
        if f("events", int) != events:
            raise ValueError(
                f"per_strategy.{name}.events: must equal events ({events})")
        fig = {"wins": f("wins", int)}  # the rates a verdict reads are never null
        fig.update((key, f.fraction(key, key not in METRICS)) for key, _, _ in _RATE_COLUMNS)
        figures.append(fig)
        out.append(f"{name:<14}{events:>8}"
                   + "".join(f"{fmt_decimal(fig[key]):>{w}}" for key, _, w in _RATE_COLUMNS)
                   + f"{fig['wins']:>6}")
    draws = s("draws", int)
    if sum(fig["wins"] for fig in figures) + draws != events:
        raise ValueError(f"per_strategy.{names[0]}.wins + per_strategy.{names[1]}.wins"
                         f" + draws: must add up to events ({events})")
    out.append(f"draws: {draws}")
    wilcoxon = s.nested("wilcoxon_map")
    p_value = wilcoxon("p_value", float, type(None))
    if p_value is not None:
        out.append(f"signed-rank on AP: statistic="
                   f"{wilcoxon('statistic', float):.1f} p={p_value:.5f}")
    winner = s.nested("repo_winner")
    winners = {metric: winner(metric, str) for metric in METRICS}
    by_verdict = {PairedVerdict.WIN_A: names[0], PairedVerdict.WIN_B: names[1]}
    for metric, name in winners.items():
        if name not in (*names, "draw"):
            raise ValueError(f"repo_winner.{metric}: must name a strategy of "
                             "strategy_pair or draw")
        a, b = (fig[metric] for fig in figures)
        expected = by_verdict.get(_verdict(metric, a, b, p_value), "draw")
        if name != expected:
            raise ValueError(f"repo_winner.{metric}: {name} contradicts "
                             f"per_strategy and wilcoxon_map, which give {expected}")
    out.append("repo winner: " + "  ".join(f"{m}={n}" for m, n in winners.items()))
    return out + [""], winners


def _render_blocks(blocks: Sequence[tuple[list[str], dict | None]]) -> str:
    """The summaries' blocks, then, for several, the winner counts."""
    out = [line for lines, _ in blocks for line in lines]
    if len(blocks) > 1:
        out += ["== repo-level winner counts ==", f"{'metric':<14}{'winner':<40}"]
        for m in METRICS:
            counts = Counter(w[m] if w else "n/a" for _, w in blocks)
            out.append(f"{m:<14}" + "  ".join(
                f"{name}:{count}" for name, count in sorted(counts.items())))
        out.append("")
    return "\n".join(out)


def render_summary_tables(summaries: Sequence[dict]) -> str:
    """Human-readable tables for one or more evaluation summaries; a
    field that is missing or of the wrong JSON type, or figures that
    disagree, raise ValueError."""
    return _render_blocks([_summary_block(s) for s in summaries])
