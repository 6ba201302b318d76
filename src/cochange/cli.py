"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable snapshot,
unknown commit, git failure).  Every run that writes files also writes a
``run_metadata.json`` describing the exact configuration; result files
themselves carry no timestamps, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import Counter
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__
from .branches import (
    CausalDiagnosis,
    CauseAttributionError,
    Cohort,
    CochangeMode,
    added_cochange_count,
    branch_info,
    diagnose_causes,
    median_cap,
    sample_heavy_merges,
    cochange_study,
    winner_rate_table,
)
from .evaluation import ExperimentResult, _scored_cases, run_experiment
from .history import Strategy
from .ingest import (
    IngestError,
    SnapshotError,
    ingest_repository,
    load_snapshot,
    save_snapshot,
)
from .mining import _validate_threshold
from .recommend import Collector, Query, RecommenderConfig, recommend
from .reporting import (
    _Fields,
    _render_blocks,
    _summary_block,
    errors_line,
    fmt_decimal,
    frac_json,
    precision_summary,
    render_summary_tables,
    summarize_experiment,
    write_json,
    write_precision_csv,
    write_csv,
    write_records_csv,
    write_winner_rate_csv,
)

OUTPUT_DIR_ENV = "COCHANGE_OUTPUT_DIR"

_STRATEGIES = {s.value: s for s in Strategy}
_COLLECTORS = {c.value: c for c in Collector}

# Marks a case whose differing collections no merge explains.
_UNATTRIBUTED = object()

# Experiment profiles bind the collector and the fairness adjustment to
# the strategy pair; overriding either needs --unsafe-override.
_PROFILES = {
    ("full", "fp-no-merge"): (Collector.SEQUENTIAL, True),
    ("full", "fp-merge"): (Collector.PER_FILE_SLICE, False),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this toolkit reserves 2 for data
    errors, so usage problems exit 1 instead."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _threshold(text: str) -> Fraction:
    try:
        return _validate_threshold("threshold", Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1]: {text!r}")


def _int_at_least(low: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}: {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(1, text)


def _cap_value(text: str):
    return text if text in ("none", "median") else _int_at_least(0, text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cochange",
        description="Co-change recommendation and branch handling analysis "
        "over git history snapshots.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="read a git repository into a snapshot")
    p.add_argument("--repo", required=True, help="path to the git repository")
    p.add_argument("--ref", default="HEAD", help="history head (default HEAD)")
    p.add_argument("--out", required=True, help="snapshot file to write")
    p.add_argument("--label", default=None, help="snapshot label (default: dir name)")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("snapshot-validate", help="check a snapshot file")
    p.add_argument("snapshot", help="snapshot file to validate")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("recommend", help="recommend files for a query")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--strategy", required=True, choices=sorted(_STRATEGIES))
    p.add_argument("--at", required=True, metavar="COMMIT",
                   help="history cut point (full id or unique prefix)")
    p.add_argument("--files", required=True,
                   help="comma-separated files being changed")
    p.add_argument("--json", action="store_true", help="print JSON instead of text")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("evaluate", help="paired strategy evaluation")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--pair", required=True,
                   choices=["full,fp-no-merge", "full,fp-merge"],
                   help="strategy pair; selects the experiment profile")
    p.add_argument("--fairness", choices=["on", "off"], default=None,
                   help="override the profile's fairness adjustment")
    p.add_argument("--unsafe-override", action="store_true",
                   help="allow overriding profile-bound settings")
    p.add_argument("--out", default=None, help="output directory")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("analyze-branches",
                       help="winner rates by branch length and merge size")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--cap", type=_cap_value, default="none",
                   help="keep cases with at most CAP first-parent commits; "
                        "'median' recomputes the cap from the data (default none)")
    p.add_argument("--bins", type=_positive_int, default=5,
                   help="equal-frequency bins for the single-cause cohort")
    p.add_argument("--multi-threshold", type=_positive_int, default=6,
                   help="minimum causes for the multi-cause cohort")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_analyze_branches)

    p = sub.add_parser("analyze-cochange",
                       help="precision of merge vs branch co-change data")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--horizon", type=_positive_int, default=100,
                   help="future commits to score against (default 100)")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None,
                   help="JSON config file (only output_dir is read)")
    p.set_defaults(func=_cmd_analyze_cochange)

    p = sub.add_parser("sample-merges",
                       help="sample merges that add many co-change pairs")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--min-added", type=int, default=7,
                   help="minimum added co-change pairs (default 7)")
    p.add_argument("--n", type=_positive_int, default=40, help="sample size (default 40)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None,
                   help="JSON config file (only output_dir is read)")
    p.set_defaults(func=_cmd_sample_merges)

    p = sub.add_parser("report", help="render summary JSON files as tables")
    p.add_argument("--summary", nargs="+", required=True,
                   help="summary.json files from evaluate runs")
    p.set_defaults(func=_cmd_report)

    return parser


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None,
                   help="JSON config file; explicit flags take precedence")
    p.add_argument("--minsup", type=_threshold, default=None)
    p.add_argument("--minconf", type=_threshold, default=None)
    p.add_argument("--max-commits", type=_positive_int, default=None)
    p.add_argument("--max-changeset-size", type=_positive_int, default=None)
    p.add_argument("--max-rules", type=_positive_int, default=None)
    p.add_argument("--collector", choices=sorted(_COLLECTORS), default=None,
                   help="override the default or profile collector")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"config file is not valid JSON: {exc.msg}")
    if not isinstance(raw, dict):
        raise SnapshotError("config file must hold a JSON object")
    return raw


def _config_fraction(value) -> Fraction:
    # JSON numbers arrive as float/int; go through the decimal string so
    # 0.1 means exactly 1/10.
    return Fraction(str(value))


def _config_int(value) -> int:
    if type(value) is not int:  # JSON true and 2.5 are not counts
        raise ValueError(value)
    return value


# RecommenderConfig field -> converter.  Each field comes from the flag
# of the same name, else the config file key of the same name, else the
# default.
_CONFIG_FIELDS = {
    "minsup": _config_fraction,
    "minconf": _config_fraction,
    "max_changeset_size": _config_int,
    "max_commits": _config_int,
    "max_rules": _config_int,
    "collector": _COLLECTORS.__getitem__,
}


def _build_recommender_config(
    args, file_config: dict, default_collector: Collector
) -> RecommenderConfig:
    values = {"collector": default_collector}
    for key, convert in _CONFIG_FIELDS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = convert(flag)
        elif key in file_config:
            try:
                values[key] = convert(file_config[key])
            except (ValueError, TypeError, KeyError, ZeroDivisionError):
                raise ValueError(
                    f"config key {key!r} has a malformed value: "
                    f"{file_config[key]!r}"
                ) from None
    return RecommenderConfig(**values)


def _resolve_out_dir(args, file_config: dict) -> Path:
    out = getattr(args, "out", None)
    if out is None:
        out = os.environ.get(OUTPUT_DIR_ENV)
    if out is None:
        out = file_config.get("output_dir")
        if out is not None and not isinstance(out, str):
            raise ValueError(f"config key 'output_dir' must be a string: {out!r}")
    if out is None:
        raise SystemExit(_error(
            "no output directory: pass --out, set "
            f"{OUTPUT_DIR_ENV}, or put output_dir in the config file"
        ))
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _error(message: str, code: int = 1) -> int:
    """Report ``message``; return ``code`` (1 usage error, 2 data error)."""
    print(f"cochange: error: {message}", file=sys.stderr)
    return code


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_metadata(
    out_dir: Path,
    command: str,
    snapshot: str | None,
    settings: dict,
    outputs: list[str],
) -> None:
    payload = {
        "tool": "cochange",
        "version": __version__,
        "command": command,
        "settings": settings,
        "snapshot_path": snapshot,
        "snapshot_sha256": _sha256(snapshot) if snapshot else None,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "outputs": sorted(outputs),
    }
    write_json(payload, out_dir / "run_metadata.json")


def _config_echo(config: RecommenderConfig) -> dict:
    return {
        "minsup": frac_json(config.minsup),
        "minconf": frac_json(config.minconf),
        "max_changeset_size": config.max_changeset_size,
        "max_commits": config.max_commits,
        "max_rules": config.max_rules,
        "collector": config.collector.value,
    }


def _resolve_commit(graph, text: str) -> str:
    if text in graph.commits:
        return text
    matches = [cid for cid in graph.commits if cid.startswith(text)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise KeyError(f"unknown commit id: {text}")
    raise KeyError(f"ambiguous commit prefix: {text}")


def _graph_line(graph) -> str:
    merges = sum(1 for c in graph.commits.values() if c.is_merge)
    return (
        f"{len(graph.commits)} commits ({merges} merges), "
        f"{len(graph.boundaries)} boundary parents, head {graph.head}"
    )


def _cmd_ingest(args) -> int:
    graph = ingest_repository(args.repo, args.ref, args.label)
    save_snapshot(graph, args.out)
    print(f"wrote {args.out}: {_graph_line(graph)}")
    return 0


def _cmd_validate(args) -> int:
    print(f"ok: {_graph_line(load_snapshot(args.snapshot))}")
    return 0


def _cmd_recommend(args) -> int:
    graph = load_snapshot(args.snapshot)
    file_config = _load_config_file(args.config)
    config = _build_recommender_config(args, file_config, Collector.SEQUENTIAL)
    at = _resolve_commit(graph, args.at)
    files = frozenset(f for f in args.files.split(",") if f)
    if not files:
        return _error("--files must name at least one file")
    query = Query(files, at)
    rec = recommend(graph, query, _STRATEGIES[args.strategy], config)
    if args.json:
        payload = {
            "strategy": rec.strategy.value,
            "at_commit": at,
            "query": sorted(files),
            "entries": [
                {
                    "rank": i + 1,
                    "file": e.file,
                    "score": frac_json(e.score),
                    "rule": {
                        "antecedent": sorted(e.via_rule.antecedent),
                        "consequent": sorted(e.via_rule.consequent),
                        "support": frac_json(e.via_rule.support),
                        "confidence": frac_json(e.via_rule.confidence),
                    },
                }
                for i, e in enumerate(rec.entries)
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not rec.entries:
        print("no recommendation")
        return 0
    for i, e in enumerate(rec.entries, start=1):
        rule = e.via_rule
        print(
            f"{i:>2}. {e.file}  support={fmt_decimal(e.score)} "
            f"confidence={fmt_decimal(rule.confidence)} "
            f"({', '.join(sorted(rule.antecedent))} -> {e.file})"
        )
    return 0


def _pair_settings(
    args, file_config: dict
) -> tuple[tuple[Strategy, Strategy], RecommenderConfig, bool]:
    """Strategy pair, resolved recommender config and fairness.

    A collector (from a flag or the config file) or fairness that
    contradicts the pair's profile needs --unsafe-override.
    """
    names = tuple(args.pair.split(","))
    default_collector, default_fairness = _PROFILES[names]
    config = _build_recommender_config(args, file_config, default_collector)
    fairness = (
        default_fairness if args.fairness is None else args.fairness == "on"
    )
    overrides = []
    if config.collector is not default_collector:
        overrides.append("collector")
    if fairness != default_fairness:
        overrides.append("fairness")
    if not args.unsafe_override:
        _refuse_overrides(
            overrides, args.pair, "; pass --unsafe-override to proceed"
        )
    return (_STRATEGIES[names[0]], _STRATEGIES[names[1]]), config, fairness


def _refuse_overrides(overrides: list[str], pair: str, hint: str = "") -> None:
    if overrides:
        raise SystemExit(_error(
            f"{' and '.join(overrides)} contradict the {pair} profile{hint}"))


def _cmd_evaluate(args) -> int:
    graph = load_snapshot(args.snapshot)
    file_config = _load_config_file(args.config)
    strategies, config, fairness = _pair_settings(args, file_config)
    out_dir = _resolve_out_dir(args, file_config)
    result = run_experiment(graph, strategies, config, fairness, graph.label)
    write_records_csv(result, out_dir / "records.csv")
    summary = summarize_experiment(result)
    write_json(summary, out_dir / "summary.json")
    _write_metadata(
        out_dir,
        "evaluate",
        args.snapshot,
        {
            "pair": list(args.pair.split(",")),
            "fairness": fairness,
            "recommender": _config_echo(config),
        },
        ["records.csv", "summary.json"],
    )
    print(render_summary_tables([summary]))
    return 0


def _cmd_analyze_branches(args) -> int:
    file_config = _load_config_file(args.config)
    strategies = (Strategy.FULL, Strategy.FIRST_PARENT_MERGE)
    collector, fairness = _PROFILES[("full", "fp-merge")]
    config = _build_recommender_config(args, file_config, collector)
    if config.collector is not collector:
        _refuse_overrides(["collector"], "full,fp-merge")
    graph = load_snapshot(args.snapshot)
    out_dir = _resolve_out_dir(args, file_config)
    # One constant-size row per case, in case order (winner_rate_table
    # breaks ties by position): first-parent collection size, diagnosis
    # (None for equal collections), verdict.  The collections themselves
    # are dropped as soon as the case is diagnosed.
    rows = []
    result = ExperimentResult(*strategies, fairness)
    for case, run_a, run_b, verdict in _scored_cases(graph, config, result):
        try:
            diagnosis = diagnose_causes(graph, case, run_a.db, run_b.db)
        except CauseAttributionError:
            diagnosis = _UNATTRIBUTED
        rows.append((len(run_b.db), diagnosis, verdict))

    if args.cap == "median":
        cap = median_cap([size for size, _, _ in rows])
    else:
        cap = None if args.cap == "none" else args.cap
    kept = [(d, v) for size, d, v in rows if cap is None or size <= cap]
    pairs = [(d, v) for d, v in kept if isinstance(d, CausalDiagnosis)]
    equal_collections = sum(d is None for d, _ in kept)
    unattributed = sum(d is _UNATTRIBUTED for d, _ in kept)
    hist = Counter(d.n_causing for d, _ in pairs)

    outputs = []
    for characteristic in ("branch_length", "merge_size"):
        for cohort in (Cohort.SINGLE, Cohort.SIX_PLUS):
            bins = winner_rate_table(
                pairs,
                characteristic,
                cohort,
                n_bins=args.bins,
                multi_threshold=args.multi_threshold,
            )
            name = f"winner_rate_{characteristic}_{cohort.value.replace('-', '_')}.csv"
            write_winner_rate_csv(bins, out_dir / name)
            outputs.append(name)
    summary = {
        "strategy_pair": [s.value for s in strategies],
        "cap": cap,
        "cases_evaluated": len(rows),
        "cases_after_cap": len(kept),
        "cases_diagnosed": len(pairs),
        "cases_equal_collections": equal_collections,
        "cases_unattributed": unattributed,
        "causing_merges_histogram": {str(k): hist[k] for k in sorted(hist)},
    }
    write_json(summary, out_dir / "branch_analysis.json")
    outputs.append("branch_analysis.json")
    _write_metadata(
        out_dir,
        "analyze-branches",
        args.snapshot,
        {
            "cap": cap,
            "bins": args.bins,
            "multi_threshold": args.multi_threshold,
            "recommender": _config_echo(config),
        },
        outputs,
    )
    if result.errors:
        print(errors_line(len(result.errors), *result.errors[0]),
              file=sys.stderr)
    print(
        f"{len(pairs)} diagnosed cases ({equal_collections} with equal "
        f"collections, {unattributed} unattributed) -> {out_dir}"
    )
    return 0


def _cmd_analyze_cochange(args) -> int:
    graph = load_snapshot(args.snapshot)
    file_config = _load_config_file(args.config)
    out_dir = _resolve_out_dir(args, file_config)
    records, diagnostics = cochange_study(graph, args.horizon)
    summary = precision_summary(records, diagnostics, args.horizon)
    write_precision_csv(records, out_dir / "precision.csv")
    write_json(summary, out_dir / "cochange.json")
    _write_metadata(
        out_dir,
        "analyze-cochange",
        args.snapshot,
        {"horizon": args.horizon},
        ["precision.csv", "cochange.json"],
    )
    for mode in (CochangeMode.FROM_MERGE.value, CochangeMode.FROM_BRANCH.value):
        stats = summary["modes"].get(mode, {"merges": 0, "mean_precision": None})
        mean = fmt_decimal(_Fields(stats).fraction("mean_precision"))
        print(f"{mode}: {stats['merges']} merges, mean precision {mean}")
    return 0


def _cmd_sample_merges(args) -> int:
    graph = load_snapshot(args.snapshot)
    file_config = _load_config_file(args.config)
    out_dir = _resolve_out_dir(args, file_config)
    sampled = sample_heavy_merges(graph, args.min_added, args.n, args.seed)
    rows = []
    for cid in sampled:
        info = branch_info(graph, cid)
        rows.append([cid, added_cochange_count(graph, cid),
                     info.branch_length, info.merge_size])
    write_csv(
        out_dir / "sampled_merges.csv",
        ["merge_id", "added_cochanges", "branch_length", "merge_size"],
        rows,
    )
    _write_metadata(
        out_dir,
        "sample-merges",
        args.snapshot,
        {"min_added": args.min_added, "n": args.n, "seed": args.seed},
        ["sampled_merges.csv"],
    )
    for cid in sampled:
        print(cid)
    print(f"{len(sampled)} merges -> {out_dir / 'sampled_merges.csv'}")
    return 0


def _cmd_report(args) -> int:
    """Check every summary, then print their tables, as ``evaluate`` does."""
    blocks = []
    for path in args.summary:
        try:
            summary = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(summary, dict):
                return _error(f"{path} does not hold a JSON object", 2)
            blocks.append(_summary_block(summary))
        except json.JSONDecodeError as exc:
            return _error(f"{path} is not valid JSON: {exc.msg}", 2)
        except ValueError as exc:  # a malformed field, or text that is not UTF-8
            return _error(f"{path}: {exc}", 2)
    print(_render_blocks(blocks))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:  # an unreadable input or unusable output path
        return _error(f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc), 2)
    except (SnapshotError, IngestError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        return _error(str(message), 2)
    except ValueError as exc:
        return _error(str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
