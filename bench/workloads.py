"""The benchmark's workloads: set-up, one timed pass, and its checks.

Every pass drives the toolkit the way a user does, through
``cochange.cli.main``, and is checked after its clock stops: exit codes,
the sha256 of every result file, per-commit errors in ``summary.json``,
and in ``repo-session`` the ingested paths and a recomputation of sampled
answers from the public reference functions.  The checks that call into
the toolkit run in ``check_pass``, after a traced pass's wrappers are
gone, so the per-layer figures count only the pass's own work.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import subprocess
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import corpus
from cochange import (
    Query,
    RecommenderConfig,
    Strategy,
    apriori,
    collect_commits,
    filter_rules,
    load_snapshot,
    save_snapshot,
)

REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass
class PassResult:
    """What one timed pass did and what its checks found.

    Every check is an operation with a key that names it; every pass of
    a run repeats the same operations, so a run counts each key once
    however many passes fit in its time.  ``failed`` holds the keys of
    failed operations; ``problems`` names the ones that break agreement
    with the references (wrong exit code, changed output, oracle
    mismatch).  Path-fidelity mismatches are failed operations but not
    problems: they measure a known ingest defect against the generated
    truth, not a regression.
    """

    wall_s: float
    ref_wall_s: float  # wall_s in calibrated seconds
    cases: int
    digests: dict[str, str]
    attempted: set[str] = field(default_factory=set)
    failed: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    ingest_s: float | None = None
    query_ms: list[float] = field(default_factory=list)
    answers: list[str] = field(default_factory=list)  # recommend --json output
    path_mismatches: int = 0  # ingested commits whose changeset differs

    def check(self, key: str, ok: bool, problem: str | None) -> None:
        """Record operation ``key``; ``problem`` is None for a failure
        that is a known defect rather than a regression."""
        self.attempted.add(key)
        if not ok:
            self.failed.add(key)
            if problem is not None:
                self.problems.append(problem)


def cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; looked up per call so a traced
    pass goes through the wrapper."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = importlib.import_module("cochange.cli").main(argv)
    return code, out.getvalue()


def digest_outputs(out: Path) -> dict[str, str]:
    """sha256 of every result file under ``out``; run_metadata.json
    carries a timestamp and paths, so it is left out."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "run_metadata.json"
    }


def _load_reference() -> dict:
    if REFERENCE_FILE.exists():
        return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return {}


def _check_commands(result: PassResult, codes: list[tuple[str, int]]) -> None:
    for i, (command, code) in enumerate(codes):
        result.check(f"exit {i} {command}", code == 0, f"{command} exited {code}")


def _check_summary_errors(result: PassResult, k: int, summary: dict) -> None:
    """Each commit history ``k`` considered is an operation; each recorded
    per-commit error is a failed one."""
    for j in range(summary["commits_considered"]):
        result.attempted.add(f"history {k} commit {j}")
    for e in summary.get("errors", []):
        result.failed.add(f"history {k} error {e['commit']}")
        result.problems.append(f"commit {e['commit']}: {e['error']}")


class Workload:
    """One benchmark workload.  Subclasses set the corpus shape and the
    command sequence; ``scale`` shrinks every size for smoke tests."""

    name = ""

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = scale

    def sized(self, n: int, floor: int) -> int:
        return max(floor, round(n * self.scale))

    def setup(self, seed: int, work: Path) -> dict:
        raise NotImplementedError

    def run_pass(self, state: dict, out: Path, clock, tracer=None) -> PassResult:
        """Run the command sequence once, timing it on ``clock``."""
        raise NotImplementedError

    def check_pass(self, state: dict, out: Path, result: PassResult,
                   first: dict | None) -> None:
        """Check a pass's outputs, while they are still under ``out``.

        The digests are compared with the committed reference for this
        seed when there is one (full size only), else with the run's
        first pass, which then passes trivially; so every pass checks
        the same outputs."""
        expected = None
        if self.scale == 1.0:
            expected = _load_reference().get(self.name, {}).get(str(state["seed"]))
        if expected is None:
            expected = first if first is not None else result.digests
        for name in sorted(set(expected) | set(result.digests)):
            result.check(f"output {name}",
                         expected.get(name) == result.digests.get(name),
                         f"{name}: output differs from the reference")


class _FromSnapshot(Workload):
    """Set-up generates ``histories`` seeded histories of ``shape`` and
    saves their snapshots; a pass runs its commands on each in turn, so
    the histories' differences in cost average out."""

    shape = corpus.Shape(n_commits=0)
    histories = 1

    def setup(self, seed: int, work: Path) -> dict:
        shape = replace(self.shape, n_commits=self.sized(self.shape.n_commits, 40))
        snapshots = []
        for k in range(self.histories):
            sub_seed = seed * self.histories + k
            snapshot = work / f"history-{k}.jsonl"
            save_snapshot(corpus.to_graph(sub_seed, corpus.generate(sub_seed, shape)),
                          snapshot)
            snapshots.append(snapshot)
        return {"snapshots": snapshots}


class _Evaluate(_FromSnapshot):
    pair = ""

    def run_pass(self, state: dict, out: Path, clock, tracer=None) -> PassResult:
        codes = []
        for k, snapshot in enumerate(state["snapshots"]):
            with clock.section():
                code, _ = cli(["evaluate", "--snapshot", str(snapshot),
                               "--pair", self.pair, "--out", str(out / str(k))])
            codes.append(("evaluate", code))
        summaries = [json.loads((out / str(k) / "summary.json").read_text(encoding="utf-8"))
                     for k in range(len(state["snapshots"]))]
        result = PassResult(clock.wall_s, clock.ref_wall_s,
                            sum(s["events"] for s in summaries), digest_outputs(out))
        _check_commands(result, codes)
        for k, summary in enumerate(summaries):
            _check_summary_errors(result, k, summary)
        return result


class EvalSquash(_Evaluate):
    name = "eval-squash"
    pair = "full,fp-merge"
    shape = corpus.Shape(n_commits=360)


class EvalLinear(_Evaluate):
    name = "eval-linear"
    pair = "full,fp-no-merge"
    shape = corpus.Shape(n_commits=800, module_files=3)


MERGE_HEAVY = corpus.Shape(n_commits=400, n_modules=12, module_files=3,
                           branches_per_block=12, branch_lengths=(1, 2, 3),
                           max_files=3)


class Branches(_FromSnapshot):
    name = "branches"
    shape = MERGE_HEAVY
    histories = 2

    def run_pass(self, state: dict, out: Path, clock, tracer=None) -> PassResult:
        codes = []
        for k, snapshot in enumerate(state["snapshots"]):
            snap, dest = str(snapshot), out / str(k)
            for command, extra in (
                ("analyze-branches", ["--cap", "median", "--out", str(dest / "branches")]),
                ("analyze-cochange", ["--out", str(dest / "cochange")]),
                ("sample-merges", ["--out", str(dest / "merges")]),
            ):
                with clock.section():
                    code, _ = cli([command, "--snapshot", snap, *extra])
                codes.append((command, code))
        cases = sum(
            json.loads((out / str(k) / "branches" / "branch_analysis.json")
                       .read_text(encoding="utf-8"))["cases_evaluated"]
            for k in range(len(state["snapshots"])))
        result = PassResult(clock.wall_s, clock.ref_wall_s, cases, digest_outputs(out))
        _check_commands(result, codes)
        return result


class RepoSession(Workload):
    name = "repo-session"
    shape = replace(MERGE_HEAVY, n_commits=600)
    n_queries = 100
    queries_per_section = 25  # recommend calls timed between two calibrations
    oracle_every = 10  # every tenth query is recomputed from the reference

    def setup(self, seed: int, work: Path) -> dict:
        shape = replace(self.shape, n_commits=self.sized(self.shape.n_commits, 40))
        history = corpus.generate(seed, shape)
        stream = work / "history.fi"
        corpus.write_fast_import(history, stream)
        repo = work / "repo"
        subprocess.run(["git", "init", "-q", "-b", "main", str(repo)], check=True)
        marks = work / "marks"
        with open(stream, "rb") as fh:
            subprocess.run(["git", "fast-import", "--quiet",
                            f"--export-marks={marks}"],
                           cwd=repo, stdin=fh, check=True)
        ids = {}
        for line in marks.read_text(encoding="ascii").splitlines():
            mark, sha = line.split()
            ids[int(mark[1:]) - 1] = sha
        return {"repo": repo, "history": history, "ids": ids,
                "queries": self._queries(seed, history, ids)}

    def _queries(self, seed: int, history, ids) -> list[list[str]]:
        """Seeded queries: a first-parent commit, one or two of its files,
        strategies in turn."""
        rng = random.Random(seed)
        chain = []
        i = len(history) - 1
        while history[i].parents:
            chain.append(i)
            i = history[i].parents[0]
        strategies = [s.value for s in Strategy]
        queries = []
        for q in range(self.sized(self.n_queries, 6)):
            at = rng.choice(chain)
            files = sorted(history[at].changeset)
            picked = rng.sample(files, min(len(files), rng.choice((1, 2))))
            queries.append([strategies[q % len(strategies)], ids[at],
                            ",".join(sorted(picked))])
        return queries

    def run_pass(self, state: dict, out: Path, clock, tracer=None) -> PassResult:
        out.mkdir(parents=True, exist_ok=True)
        snapshot = out / "snapshot.jsonl"
        codes = []
        answers = []
        latencies = []
        counting = tracer.count_git() if tracer else contextlib.nullcontext()
        with clock.section(), counting:
            code, _ = cli(["ingest", "--repo", str(state["repo"]),
                           "--out", str(snapshot), "--label", "bench"])
        ingest_s = clock.wall_s
        codes.append(("ingest", code))
        with clock.section():
            code, _ = cli(["snapshot-validate", str(snapshot)])
        codes.append(("snapshot-validate", code))
        queries = state["queries"]
        for first in range(0, len(queries), self.queries_per_section):
            with clock.section():
                for strategy, at, files in queries[first:first + self.queries_per_section]:
                    sent = time.perf_counter()
                    code, text = cli(["recommend", "--snapshot", str(snapshot),
                                      "--strategy", strategy, "--at", at,
                                      "--files", files, "--json"])
                    latencies.append((time.perf_counter() - sent) * 1000.0)
                    codes.append(("recommend", code))
                    answers.append(text)
        (out / "recommend.json").write_text("".join(answers), encoding="utf-8")
        result = PassResult(clock.wall_s, clock.ref_wall_s, len(answers),
                            digest_outputs(out), ingest_s=ingest_s,
                            query_ms=latencies, answers=answers)
        _check_commands(result, codes)
        return result

    def check_pass(self, state: dict, out: Path, result: PassResult,
                   first: dict | None) -> None:
        super().check_pass(state, out, result, first)
        graph = load_snapshot(out / "snapshot.jsonl")
        self._check_paths(result, graph, state)
        self._check_oracle(result, graph, state["queries"], result.answers)

    @staticmethod
    def _check_paths(result: PassResult, graph, state: dict) -> None:
        """Each path in the generated or the ingested history is an
        operation; it fails unless the same commits, matched through the
        fast-import marks, touch it in both.  Counting paths rather than
        commits keeps the count the same for every seed: all 36 paths
        are touched whatever the seed, while the number of commits
        touching a quoted name is not."""
        generated: dict[str, set[str]] = {}
        ingested: dict[str, set[str]] = {}
        for i, gen in enumerate(state["history"]):
            sha = state["ids"][i]
            for path in gen.changeset:
                generated.setdefault(path, set()).add(sha)
            commit = graph.commits.get(sha)
            for path in commit.changeset if commit else ():
                ingested.setdefault(path, set()).add(sha)
            if commit is None or commit.changeset != gen.changeset:
                result.path_mismatches += 1
        for path in sorted(set(generated) | set(ingested)):
            result.check(f"path {path!r}",
                         generated.get(path) == ingested.get(path), None)

    def _check_oracle(self, result: PassResult, graph, queries, answers) -> None:
        """Recompute sampled answers with collect_commits -> apriori ->
        filter_rules -> antecedent within the query -> first rule per file."""
        config = RecommenderConfig()
        for q in range(0, len(queries), self.oracle_every):
            strategy, at, files = queries[q]
            query = Query(frozenset(files.split(",")), at)
            db = collect_commits(graph, query, Strategy(strategy), config)
            rules = (filter_rules(apriori(db, config.minsup, config.minconf),
                                  config.max_rules) if db else [])
            expected, seen = [], set()
            for rule in rules:
                (consequent,) = rule.consequent
                if rule.antecedent <= query.files and consequent not in seen:
                    seen.add(consequent)
                    expected.append([consequent, rule.support.numerator,
                                     rule.support.denominator,
                                     sorted(rule.antecedent)])
            try:
                entries = json.loads(answers[q])["entries"]
            except json.JSONDecodeError:
                entries = []  # the command failed; its exit code is counted
            got = [[e["file"], e["score"]["num"], e["score"]["den"],
                    e["rule"]["antecedent"]] for e in entries]
            result.check(f"oracle {q}", got == expected,
                         f"recommend answer {q} differs from the reference pipeline")


WORKLOADS = {w.name: w for w in (EvalSquash, EvalLinear, Branches, RepoSession)}
