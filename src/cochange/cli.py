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
from datetime import datetime, timezone
from enum import Enum
from fractions import Fraction
from pathlib import Path

from . import __version__
from .branches import (
    CochangeMode,
    added_cochange_count,
    analyze_branches,
    branch_info,
    sample_heavy_merges,
    cochange_study,
)
from .evaluation import ExperimentResult, run_experiment
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

# Experiment profiles bind the collector and the fairness adjustment to
# the strategy pair; overriding either needs evaluate's --unsafe-override.
_PROFILES = {
    "full,fp-no-merge": (Collector.SEQUENTIAL, True),
    "full,fp-merge": (Collector.PER_FILE_SLICE, False),
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


def _non_negative_int(text: str) -> int:
    return _int_at_least(0, text)


def _cap_value(text: str):
    if text == "none":
        return None
    return text if text == "median" else _non_negative_int(text)


def _ingest_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--repo", required=True, help="path to the git repository")
    p.add_argument("--ref", default="HEAD", help="history head (default HEAD)")
    p.add_argument("--out", required=True, help="snapshot file to write")
    p.add_argument("--label", default=None, help="snapshot label (default: dir name)")
    p.set_defaults(func=_cmd_ingest)


def _validate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("snapshot", help="snapshot file to validate")
    p.set_defaults(func=_cmd_validate)


def _recommend_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--snapshot", required=True)
    p.add_argument("--strategy", required=True,
                   choices=sorted(s.value for s in Strategy))
    p.add_argument("--at", required=True, metavar="COMMIT",
                   help="history cut point (full id or unique prefix)")
    p.add_argument("--files", required=True,
                   help="comma-separated files being changed")
    p.add_argument("--json", action="store_true", help="print JSON instead of text")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_recommend)


def _evaluate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--snapshot", required=True)
    p.add_argument("--pair", required=True, choices=list(_PROFILES),
                   help="strategy pair; selects the experiment profile")
    p.add_argument("--fairness", choices=["on", "off"], default=None,
                   help="override the profile's fairness adjustment")
    p.add_argument("--unsafe-override", action="store_true",
                   help="allow overriding profile-bound settings")
    p.add_argument("--out", default=None, help="output directory")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_evaluate)


def _analyze_branches_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--snapshot", required=True)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--cap", type=_cap_value, default=None,
                   help="keep cases with at most CAP first-parent commits; "
                        "'median' recomputes the cap from the data (default none)")
    p.add_argument("--bins", type=_positive_int, default=5,
                   help="equal-frequency bins for the single-cause cohort")
    p.add_argument("--multi-threshold", type=_positive_int, default=6,
                   help="minimum causes for the multi-cause cohort")
    _add_config_flags(p)
    # The fixed profile, with no --fairness and no --unsafe-override.
    p.set_defaults(func=_cmd_analyze_branches, pair="full,fp-merge")


def _analyze_cochange_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--snapshot", required=True)
    p.add_argument("--horizon", type=_positive_int, default=100,
                   help="future commits to score against (default 100)")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None,
                   help="JSON config file (only output_dir is read)")
    p.set_defaults(func=_cmd_analyze_cochange)


def _sample_merges_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--snapshot", required=True)
    p.add_argument("--min-added", type=_non_negative_int, default=7,
                   help="minimum added co-change pairs (default 7)")
    p.add_argument("--n", type=_positive_int, default=40, help="sample size (default 40)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None,
                   help="JSON config file (only output_dir is read)")
    p.set_defaults(func=_cmd_sample_merges)


def _report_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--summary", nargs="+", required=True,
                   help="summary.json files from evaluate runs")
    p.set_defaults(func=_cmd_report)


# Subcommand -> (its help line, the function that adds its arguments),
# in the order the full parser lists them.
_COMMANDS = {
    "ingest": ("read a git repository into a snapshot", _ingest_args),
    "snapshot-validate": ("check a snapshot file", _validate_args),
    "recommend": ("recommend files for a query", _recommend_args),
    "evaluate": ("paired strategy evaluation", _evaluate_args),
    "analyze-branches": ("winner rates by branch length and merge size",
                         _analyze_branches_args),
    "analyze-cochange": ("precision of merge vs branch co-change data",
                         _analyze_cochange_args),
    "sample-merges": ("sample merges that add many co-change pairs",
                      _sample_merges_args),
    "report": ("render summary JSON files as tables", _report_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; given a subcommand name, with only that subparser.

    A narrowed parser still names every subcommand in its usage line,
    so its usage and error texts are the full parser's.
    """
    parser = _Parser(
        prog="cochange",
        description="Co-change recommendation and branch handling analysis "
        "over git history snapshots.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}",
    )
    for name, (help_line, add_args) in _COMMANDS.items():
        if command in (None, name):
            add_args(sub.add_parser(name, help=help_line))
    return parser


def _config_fraction(value) -> Fraction:
    # JSON numbers arrive as float/int; go through the decimal string so
    # 0.1 means exactly 1/10.
    return Fraction(str(value))


def _config_int(value) -> int:
    if type(value) is not int:  # JSON true and 2.5 are not counts
        raise ValueError(value)
    return value


# RecommenderConfig field -> (its flag's argparse keywords, the converter
# of a flag or config-file value), in flag order.  Each field comes from
# the flag of the same name, else the config file key of the same name,
# else the default.
_CONFIG_FIELDS = {
    "minsup": ({"type": _threshold}, _config_fraction),
    "minconf": ({"type": _threshold}, _config_fraction),
    "max_commits": ({"type": _positive_int}, _config_int),
    "max_changeset_size": ({"type": _positive_int}, _config_int),
    "max_rules": ({"type": _positive_int}, _config_int),
    "collector": ({"choices": sorted(c.value for c in Collector),
                   "help": "override the default or profile collector"}, Collector),
}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None,
                   help="JSON config file; explicit flags take precedence")
    for key, (keywords, _) in _CONFIG_FIELDS.items():
        p.add_argument(f"--{key.replace('_', '-')}", default=None, **keywords)


def _read_json_object(path: str) -> dict:
    """The JSON object held by the file at ``path``; text that is not
    UTF-8 or not JSON, or another JSON value, raises ValueError naming
    the file."""
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, a huge int, deep nesting
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return value


def _file_config(args) -> dict:
    """The ``--config`` object; a key no command reads is refused."""
    if args.config is None:
        return {}
    config = _read_json_object(args.config)
    unknown = sorted(config.keys() - {*_CONFIG_FIELDS, "output_dir"})
    if unknown:
        raise ValueError(f"{args.config}: unknown config key {unknown[0]!r}")
    return config


def _build_recommender_config(
    args, file_config: dict, default_collector: Collector
) -> RecommenderConfig:
    values = {"collector": default_collector}
    for key, (_, convert) in _CONFIG_FIELDS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = convert(flag)
        elif key in file_config:
            try:
                values[key] = convert(file_config[key])
            except (ValueError, TypeError, ZeroDivisionError):
                raise ValueError(
                    f"config key {key!r} has a malformed value: "
                    f"{file_config[key]!r}"
                ) from None
    return RecommenderConfig(**values)


def _load_for_output(args, file_config: dict):
    """The loaded snapshot and the output directory: ``--out``, then the
    environment, then ``output_dir``.  The directory is resolved before
    the snapshot is read and created only once it has loaded.  An empty
    environment value counts as unset; an empty ``--out`` or
    ``output_dir`` is refused, since ``Path("")`` is the working
    directory."""
    out = getattr(args, "out", None)
    if out == "":
        raise SystemExit(_error("--out must name a directory"))
    if out is None:
        out = os.environ.get(OUTPUT_DIR_ENV) or None
    if out is None:
        out = file_config.get("output_dir")
        if out is not None and not isinstance(out, str):
            raise ValueError(f"config key 'output_dir' must be a string: {out!r}")
        if out == "":
            raise ValueError("config key 'output_dir' must name a directory")
    if out is None:
        raise SystemExit(_error(
            "no output directory: pass --out, set "
            f"{OUTPUT_DIR_ENV}, or put output_dir in the config file"
        ))
    graph = load_snapshot(args.snapshot)
    Path(out).mkdir(parents=True, exist_ok=True)
    return graph, Path(out)


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


def _write_metadata(out_dir: Path, args, settings: dict, outputs: list[str]) -> None:
    payload = {
        "tool": "cochange",
        "version": __version__,
        "command": args.command,
        "settings": settings,
        "snapshot_path": args.snapshot,
        "snapshot_sha256": _sha256(args.snapshot),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "outputs": sorted(outputs),
    }
    write_json(payload, out_dir / "run_metadata.json")


def _config_echo(config: RecommenderConfig) -> dict:
    """The resolved settings as JSON: rationals as ``frac_json``, enums
    by value."""
    echo = {}
    for key in _CONFIG_FIELDS:
        value = getattr(config, key)
        if isinstance(value, Fraction):
            value = frac_json(value)
        echo[key] = value.value if isinstance(value, Enum) else value
    return echo


def _resolve_commit(graph, text: str) -> str:
    """The commit a full id or a unique prefix names; like git, in any
    letter case."""
    key = text.lower()
    if key in graph.commits:
        return key
    matches = [cid for cid in graph.commits if cid.startswith(key)]
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
    file_config = _file_config(args)
    config = _build_recommender_config(args, file_config, Collector.SEQUENTIAL)
    files = frozenset(f for f in args.files.split(",") if f)
    if not files:
        return _error("--files must name at least one file")
    if not args.at:  # the empty prefix would match every commit
        return _error("--at must name a commit")
    graph = load_snapshot(args.snapshot)
    at = _resolve_commit(graph, args.at)
    query = Query(files, at)
    rec = recommend(graph, query, Strategy(args.strategy), config)
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
    contradicts the pair's profile exits 1, unless --unsafe-override is
    given where the command has it.
    """
    default_collector, default_fairness = _PROFILES[args.pair]
    config = _build_recommender_config(args, file_config, default_collector)
    fairness = getattr(args, "fairness", None)
    fairness = default_fairness if fairness is None else fairness == "on"
    overrides = []
    if config.collector is not default_collector:
        overrides.append("collector")
    if fairness != default_fairness:
        overrides.append("fairness")
    if overrides and not getattr(args, "unsafe_override", False):
        hint = ("; pass --unsafe-override to proceed"
                if "unsafe_override" in args else "")
        raise SystemExit(_error(
            f"{' and '.join(overrides)} contradict the {args.pair} profile{hint}"))
    a, b = args.pair.split(",")
    return (Strategy(a), Strategy(b)), config, fairness


def _cmd_evaluate(args) -> int:
    file_config = _file_config(args)
    strategies, config, fairness = _pair_settings(args, file_config)
    graph, out_dir = _load_for_output(args, file_config)
    result = run_experiment(graph, strategies, config, fairness, graph.label)
    write_records_csv(result, out_dir / "records.csv")
    summary = summarize_experiment(result)
    write_json(summary, out_dir / "summary.json")
    _write_metadata(out_dir, args, {"pair": args.pair.split(","), "fairness": fairness,
                                    "recommender": _config_echo(config)},
                    ["records.csv", "summary.json"])
    print(render_summary_tables([summary]))
    return 0


def _cmd_analyze_branches(args) -> int:
    file_config = _file_config(args)
    strategies, config, fairness = _pair_settings(args, file_config)
    graph, out_dir = _load_for_output(args, file_config)
    result = ExperimentResult(*strategies, fairness)
    tables, summary = analyze_branches(graph, config, result, args.cap,
                                       args.bins, args.multi_threshold)
    for name, bins in tables.items():
        write_winner_rate_csv(bins, out_dir / name)
    write_json(summary, out_dir / "branch_analysis.json")
    _write_metadata(out_dir, args, {"cap": summary["cap"], "bins": args.bins,
                                    "multi_threshold": args.multi_threshold,
                                    "recommender": _config_echo(config)},
                    [*tables, "branch_analysis.json"])
    if result.errors:
        print(errors_line(len(result.errors), *result.errors[0]), file=sys.stderr)
    print(f"{summary['cases_diagnosed']} diagnosed cases "
          f"({summary['cases_equal_collections']} with equal collections, "
          f"{summary['cases_unattributed']} unattributed) -> {out_dir}")
    return 0


def _cmd_analyze_cochange(args) -> int:
    graph, out_dir = _load_for_output(args, _file_config(args))
    records, diagnostics = cochange_study(graph, args.horizon)
    summary = precision_summary(records, diagnostics, args.horizon)
    write_precision_csv(records, out_dir / "precision.csv")
    write_json(summary, out_dir / "cochange.json")
    _write_metadata(out_dir, args, {"horizon": args.horizon},
                    ["precision.csv", "cochange.json"])
    for mode in (CochangeMode.FROM_MERGE.value, CochangeMode.FROM_BRANCH.value):
        stats = summary["modes"].get(mode, {"merges": 0, "mean_precision": None})
        mean = fmt_decimal(_Fields(stats).fraction("mean_precision"))
        print(f"{mode}: {stats['merges']} merges, mean precision {mean}")
    return 0


def _cmd_sample_merges(args) -> int:
    graph, out_dir = _load_for_output(args, _file_config(args))
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
    _write_metadata(out_dir, args,
                    {"min_added": args.min_added, "n": args.n, "seed": args.seed},
                    ["sampled_merges.csv"])
    for cid in sampled:
        print(cid)
    print(f"{len(sampled)} merges -> {out_dir / 'sampled_merges.csv'}")
    return 0


def _cmd_report(args) -> int:
    """Check every summary, then print their tables, as ``evaluate`` does."""
    blocks = []
    for path in args.summary:
        summary = _read_json_object(path)
        try:
            blocks.append(_summary_block(summary))
        except ValueError as exc:  # a malformed field, or figures that disagree
            return _error(f"{path}: {exc}", 2)
    print(_render_blocks(blocks))
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Only the named subcommand's parser; anything else gets the full one.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
