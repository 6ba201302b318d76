#!/usr/bin/env python3
"""Benchmark for the cochange toolkit.

    python3 bench/run.py --workload eval-squash --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all

Run from the root of a checkout; the toolkit is imported from ``src/``.
Each run builds its workload's inputs from the seed (set-up is timed
seven times and reported as the median ``setup_s``), then repeats timed
passes of the workload's command sequence until ``--seconds`` is used
up.  Every pass is checked once its clock has stopped and the tracer, if
any, is removed.  The report goes to stdout; its last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, measured
untraced; with ``--trace 1`` traced and untraced passes alternate and
the metrics are the per-layer ones.  Scratch files live in
``.bench_work/`` and are removed; the spans of the last traced pass are
kept in ``.bench_out/``.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock
from clock import Calibration, PassClock
from tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7


def _quantiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _measure(workload, state, work: Path, seconds: float, tracer=None):
    """Timed passes until the next one would overrun ``seconds``; the
    first pass always runs.  With a tracer, untraced and traced passes
    alternate, starting untraced."""
    start = time.perf_counter()
    plain, traced, first_digests = [], [], None
    layer_rows = []
    calibration = Calibration()
    while True:
        use_tracer = tracer is not None and len(plain) > len(traced)
        out = work / f"pass-{len(plain) + len(traced)}"
        began = time.perf_counter()
        if use_tracer:
            tracer.reset()
            tracer.install()
            try:
                result = workload.run_pass(state, out, PassClock(calibration),
                                           tracer)
            finally:
                tracer.remove()
            layer_rows.append(_layer_row(tracer, result))
        else:
            result = workload.run_pass(state, out, PassClock(calibration))
        workload.check_pass(state, out, result, first_digests)
        if first_digests is None:
            first_digests = result.digests
        (traced if use_tracer else plain).append(result)
        shutil.rmtree(out, ignore_errors=True)
        elapsed = time.perf_counter() - start
        step = time.perf_counter() - began
        need_traced = tracer is not None and not traced
        if elapsed + step > seconds and not need_traced:
            break
    return plain, traced, layer_rows, calibration.measured


def _layer_row(tracer, result) -> dict:
    """Per-layer figures of one traced pass, before the tracer resets."""
    return {
        "wall_s": result.wall_s,
        "stats": {k: list(v) for k, v in tracer.stats.items()},
        "counters": {k: (len(v) if isinstance(v, set) else v)
                     for k, v in tracer.counters.items()},
        "spans": len(tracer.spans) + tracer.dropped,
    }


def end_to_end(workload, setups: list[float], passes,
               calibrations: list[float]) -> tuple[dict, list[str]]:
    """The gated metrics and a report naming every end-to-end figure.

    ``setups`` and the passes' ``ref_wall_s`` are calibrated seconds; the
    raw medians are printed beside them.
    """
    walls = [p.ref_wall_s for p in passes]
    wall = statistics.median(walls)
    cases = statistics.median(p.cases for p in passes)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": _metric(wall, "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "cases_per_s": _metric(cases / wall, "1/s"),
        "peak_rss_mib": _metric(rss_mib, "MiB"),
    }
    q1, _, q3 = _quantiles(walls)
    raw = statistics.median(p.wall_s for p in passes)
    lines = [
        f"  wall_s        {wall:10.4f} s     median of {len(walls)} passes "
        f"(quartiles {q1:.4f} .. {q3:.4f}; uncalibrated {raw:.4f})",
        f"  setup_s       {metrics['setup_s']['value']:10.4f} s     "
        f"median of {len(setups)} set-ups",
        f"  cases_per_s   {metrics['cases_per_s']['value']:10.2f} 1/s   "
        f"{cases:g} {'queries' if workload.name == 'repo-session' else 'cases'} "
        "per pass / median wall_s",
        f"  peak_rss_mib  {rss_mib:10.1f} MiB   peak resident set of this process",
        f"  calibration   {statistics.median(calibrations):10.4f} s     "
        f"median of {len(calibrations)}; reference {clock.REFERENCE_S} s",
    ]
    ingest = [p.ingest_s for p in passes if p.ingest_s is not None]
    queries = [ms for p in passes for ms in p.query_ms]
    if ingest:
        lines.append(f"  ingest_s      {statistics.median(ingest):10.4f} s     "
                     f"median of {len(ingest)} ingests")
    else:
        lines.append("  ingest_s             n/a       this workload does not ingest")
    if len(queries) >= 2:
        pct = statistics.quantiles(queries, n=100)
        beyond = sum(1 for q in queries if q > pct[94])
        lines.append(f"  query_p50_ms  {statistics.median(queries):10.3f} ms    "
                     f"{len(queries)} recommend calls")
        lines.append(f"  query_p95_ms  {pct[94]:10.3f} ms    "
                     f"{beyond} of {len(queries)} calls beyond it")
    else:
        lines.append("  query_p50_ms         n/a       no recommend calls")
        lines.append("  query_p95_ms         n/a       no recommend calls")
    return metrics, lines


PER_LAYER_FUNCTIONS = (
    "cli.main",
    "ingest.ingest_repository", "ingest.save_snapshot", "ingest.load_snapshot",
    "history.strategy_walk", "history.ancestors_all",
    "history.ancestors_first_parent", "history.branch_commits",
    "history.merge_base",
    "recommend.recommend",
    "mining.single_consequent_rules", "mining.filter_rules",
    "evaluation.run_experiment", "evaluation.generate_test_cases",
    "evaluation.classify", "evaluation.pairwise_verdict",
    "evaluation.wilcoxon_signed_rank",
    "branches.diagnose_causes", "branches.commit_cap_filter",
    "branches.fp_collection_size", "branches.cochange_study",
    "branches.sample_heavy_merges", "branches.added_cochange_count",
    "branches.winner_rate_table",
)


def per_layer(rows: list[dict], plain_walls: list[float],
              traced_walls: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, averaged per pass.

    Times are given as shares of the traced pass wall time (``*_frac``),
    so a function that a workload never calls reads 0 rather than a
    zero duration; ``trace.wall_s`` turns a share back into seconds.
    """
    n = len(rows)
    wall = sum(r["wall_s"] for r in rows)
    stats: dict[str, list] = {}
    for r in rows:
        for name, (calls, total, self_s) in r["stats"].items():
            row = stats.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
    c = {k: sum(r["counters"][k] for r in rows) for k in rows[0]["counters"]}

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for name in PER_LAYER_FUNCTIONS:
        calls, total, self_s = stats.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = _metric(calls / n, "count")
        metrics[f"{name}.self_frac"] = _metric(self_s / wall, "ratio")
        metrics[f"{name}.total_frac"] = _metric(total / wall, "ratio")
    for layer in LAYERS:
        self_s = sum(v[2] for k, v in stats.items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_frac"] = _metric(self_s / wall, "ratio")
    mining_calls = stats.get("mining.single_consequent_rules", [0])[0]
    branch_calls = stats.get("history.branch_commits", [0])[0]
    ingest_total = stats.get("ingest.ingest_repository", [0, 0.0])[1]
    untraced = statistics.median(plain_walls)
    traced = statistics.median(traced_walls)
    metrics.update({
        "mining.raw_rules": _metric(c["raw_rules"] / n, "count"),
        "mining.rank_yield": _metric(ratio(c["kept_rules"], c["raw_rules"]), "ratio"),
        "history.walk_entries": _metric(c["walk_entries"] / n, "count"),
        "recommend.collect_yield": _metric(
            ratio(c["mined_transactions"], c["walk_entries"]), "ratio"),
        "history.branch_commits.unique_frac": _metric(
            ratio(c["branch_merges"], branch_calls), "ratio"),
        "ingest.git_calls": _metric(c["git_calls"] / n, "count"),
        "ingest.git_wait_frac": _metric(ratio(c["git_wait_s"], ingest_total), "ratio"),
        "ingest.snapshot_bytes": _metric(c["snapshot_bytes"] / n, "bytes"),
        "evaluation.commits_considered": _metric(c["commits_considered"] / n, "count"),
        "evaluation.eligible_frac": _metric(
            ratio(c["commits_eligible"], c["commits_considered"]), "ratio"),
        "evaluation.mining_calls_per_case": _metric(
            ratio(mining_calls, c["cases"]), "ratio"),
        "trace.wall_s": _metric(traced, "s"),
        "trace.overhead_frac": _metric(traced / untraced - 1.0, "ratio"),
        "trace.spans": _metric(sum(r["spans"] for r in rows) / n, "count"),
    })
    lines = [f"  {'function':40s} {'calls':>10s} {'self_s':>9s} {'total_s':>9s}  "
             f"(per traced pass, {n} traced / {len(plain_walls)} untraced passes)"]
    for name, (calls, total, self_s) in sorted(stats.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"  {name:40s} {calls / n:10.0f} {self_s / n:9.4f} {total / n:9.4f}")
    lines.append(f"  trace.overhead_frac {traced / untraced - 1.0:+.3f} "
                 f"(traced {traced:.4f} s vs untraced {untraced:.4f} s)")
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> dict:
    """One benchmark run in this process; returns the result object plus
    the report lines and the digests of every pass."""
    import workloads  # imports cochange, so only once src/ is on sys.path

    workload = workloads.WORKLOADS[name](scale)
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups, state = [], None
        calibration = Calibration()
        for k in range(1 if trace else SETUP_REPEATS):
            target = work / f"setup-{k}"
            target.mkdir(parents=True)
            began = time.perf_counter()
            state = workload.setup(seed, target)
            setups.append(calibration.scale(time.perf_counter() - began))
        state["seed"] = seed
        tracer = Tracer() if trace else None
        plain, traced, rows, calibrations = _measure(workload, state, work,
                                                     seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    passes = plain + traced
    problems = [p for r in passes for p in r.problems]
    # Every pass repeats the same operations: count each once, and as
    # failed if it failed in any pass.
    attempted = len(set().union(*(r.attempted for r in passes)))
    failed = len(set().union(*(r.failed for r in passes)))
    paths = max(r.path_mismatches for r in passes)
    lines = [f"workload {name}  seed {seed}  scale {scale:g}  "
             f"{len(plain)} untraced / {len(traced)} traced passes"]
    if trace:
        metrics, detail = per_layer(rows, [p.ref_wall_s for p in plain],
                                    [p.ref_wall_s for p in traced])
        spans = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.json"
        tracer.write_spans(spans)
        detail.append(f"  spans of the last traced pass: {spans.relative_to(ROOT)}")
    else:
        metrics, detail = end_to_end(workload, setups, plain, calibrations)
    lines += detail
    lines.append(f"  failed_frac   {failed / attempted:10.4f}        "
                 f"{failed} of {attempted} operations failed "
                 f"(counted once per run; every pass, {len(passes)} here, "
                 "checks each)")
    if paths:
        bad = sum(1 for key in set().union(*(r.failed for r in passes))
                  if key.startswith("path "))
        lines.append(f"    of which {bad} paths, in the {paths} ingested commits "
                     "that differ from the generated ones (known C-quoting defect)")
    for problem in sorted(set(problems))[:10]:
        lines.append(f"    problem: {problem}")
    return {
        "result": {"correct": not problems, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
        "report": lines,
        "digests": [r.digests for r in passes],
        "traced_digests": [r.digests for r in traced],
    }


def _run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    import workloads  # imports cochange, so only once src/ is on sys.path

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {proc.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="eval-squash, eval-linear, branches, repo-session or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cochange" / "__init__.py").is_file():
        print(f"error: no cochange sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if shutil.which("git") is None:
        print("error: git is not on PATH", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return _run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(run["report"]))
    print(json.dumps(run["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
