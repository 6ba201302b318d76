"""Leave-one-out evaluation of change recommendation strategies.

Every historical commit with 2..N changed files yields one test case per
file: hide the file, query with the rest, and check whether the hidden
file comes back.  Two strategies are always evaluated on identical test
cases so their outcomes can be compared pairwise and with a signed-rank
test.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterator, Literal, NamedTuple, Sequence

from .history import CommitGraph, Strategy, ancestors_first_parent
from .mining import Transaction
from .recommend import (
    PipelineRun,
    Query,
    Recommendation,
    RecommenderConfig,
    _fair_pair,
    _run_pipeline,
    _walk_before,
)


class Outcome(Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    NO_PREDICTION = "no-prediction"


class PairedVerdict(Enum):
    WIN_A = "win-a"
    WIN_B = "win-b"
    DRAW = "draw"


@dataclass(frozen=True)
class TestCase:
    """Leave-one-out case: ``oracle`` is hidden from ``commit``'s changeset."""

    commit: str
    query: frozenset[str]
    oracle: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "query", frozenset(self.query))
        if not self.query:
            raise ValueError("test case query must be non-empty")
        if self.oracle in self.query:
            raise ValueError("oracle file must not be part of the query")


@dataclass(frozen=True)
class EvaluationRecord:
    test_case: TestCase
    strategy: Strategy
    outcome: Outcome
    oracle_rank: int | None
    average_precision: Fraction
    n_recommendations: int
    n_rules: int


def generate_test_cases(
    graph: CommitGraph, commit: str, max_files: int = 10
) -> list[TestCase]:
    """One case per changed file, ordered by oracle path.

    Commits changing fewer than 2 or more than ``max_files`` files yield
    nothing.
    """
    changeset = graph.commit(commit).changeset
    if not (2 <= len(changeset) <= max_files):
        return []
    return [
        TestCase(commit, changeset - {f}, f) for f in sorted(changeset)
    ]


# Reason strings are part of the reporting surface; keep them stable.
_REASON_SIZE = "changeset size out of range"
_REASON_IDENTICAL = "identical changesets"
_REASON_TOO_FEW = "fewer than five changesets"
_REASON_NO_RULES = "no association rules generated"

_MIN_TRANSACTIONS = 5


def _db_fingerprint(db: list[Transaction]) -> list[tuple[str, frozenset[str]]]:
    return [(t.source_commit, t.files) for t in db]


@dataclass
class _CommitRuns:
    """Per-test-case pipeline results for both strategies of one commit."""

    cases: list[TestCase]
    runs: dict[tuple[int, Strategy], PipelineRun]

    def db(self, case_index: int, strategy: Strategy) -> list[Transaction]:
        return self.runs[(case_index, strategy)].db


def _prepare_commit(
    graph: CommitGraph,
    commit: str,
    strategies: tuple[Strategy, Strategy],
    config: RecommenderConfig,
) -> _CommitRuns:
    cases = generate_test_cases(graph, commit, config.max_changeset_size)
    walks = {s: _walk_before(graph, commit, s) for s in strategies}
    runs: dict[tuple[int, Strategy], PipelineRun] = {}
    for i, case in enumerate(cases):
        query = Query(case.query, case.commit)
        for s in strategies:
            runs[(i, s)] = _run_pipeline(walks[s], query, s, config)
    return _CommitRuns(cases, runs)


def _eligibility_reason(
    prepared: _CommitRuns, strategies: tuple[Strategy, Strategy]
) -> str | None:
    a, b = strategies
    if not prepared.cases:
        return _REASON_SIZE
    differs = any(
        _db_fingerprint(prepared.db(i, a)) != _db_fingerprint(prepared.db(i, b))
        for i in range(len(prepared.cases))
    )
    if not differs:
        return _REASON_IDENTICAL
    enough = any(
        len(prepared.db(i, s)) >= _MIN_TRANSACTIONS
        for i in range(len(prepared.cases))
        for s in strategies
    )
    if not enough:
        return _REASON_TOO_FEW
    any_rules = any(
        prepared.runs[(i, s)].n_raw_rules
        for i in range(len(prepared.cases))
        for s in strategies
    )
    if not any_rules:
        return _REASON_NO_RULES
    return None


def eligible(
    graph: CommitGraph,
    commit: str,
    strategies: tuple[Strategy, Strategy],
    config: RecommenderConfig,
) -> tuple[bool, str | None]:
    """Whether ``commit`` qualifies as an evaluation event source.

    Checks, in order: changeset size within 2..max, the two strategies
    collect different changeset lists for at least one query, at least
    five changesets are collected somewhere, and at least one association
    rule is generated somewhere.  Returns (False, reason) naming the
    first failed condition.
    """
    a, b = strategies
    if a is b:
        raise ValueError("eligibility needs two distinct strategies")
    prepared = _prepare_commit(graph, commit, strategies, config)
    reason = _eligibility_reason(prepared, strategies)
    return (reason is None), reason


def classify(
    recommendation: Recommendation, test_case: TestCase
) -> tuple[Outcome, int | None, Fraction]:
    """Outcome, 1-based oracle rank, and average precision for one case.

    Recommended files that are part of the query are stripped before
    ranking.
    """
    effective = [
        e for e in recommendation.entries if e.file not in test_case.query
    ]
    if not effective:
        return Outcome.NO_PREDICTION, None, Fraction(0)
    for rank, entry in enumerate(effective, start=1):
        if entry.file == test_case.oracle:
            return Outcome.SUCCESS, rank, Fraction(1, rank)
    return Outcome.FAILURE, None, Fraction(0)


def aggregate_rates(
    records: Sequence[EvaluationRecord],
) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
    """(success, failure, no-prediction) rates plus mean recommendation
    and rule counts, all exact."""
    if not records:
        raise ValueError("cannot aggregate zero records")
    n = len(records)
    by_outcome = Counter(r.outcome for r in records)
    return (
        Fraction(by_outcome[Outcome.SUCCESS], n),
        Fraction(by_outcome[Outcome.FAILURE], n),
        Fraction(by_outcome[Outcome.NO_PREDICTION], n),
        Fraction(sum(r.n_recommendations for r in records), n),
        Fraction(sum(r.n_rules for r in records), n),
    )


def map_all(records: Sequence[EvaluationRecord]) -> Fraction:
    """Mean average precision over every record."""
    if not records:
        raise ValueError("map_all is undefined on zero records")
    return Fraction(sum(r.average_precision for r in records), len(records))


def map_app(records: Sequence[EvaluationRecord]) -> Fraction:
    """Mean average precision over records that produced recommendations."""
    applicable = [r for r in records if r.outcome is not Outcome.NO_PREDICTION]
    if not applicable:
        raise ValueError("map_app is undefined: no record has recommendations")
    return Fraction(
        sum(r.average_precision for r in applicable), len(applicable)
    )


def pairwise_verdict(
    rec_a: EvaluationRecord, rec_b: EvaluationRecord
) -> PairedVerdict:
    """Who won one test case.

    Higher average precision wins.  When both are zero, producing no
    (false) recommendation beats producing wrong ones; otherwise a draw.
    """
    if rec_a.test_case != rec_b.test_case:
        raise ValueError("pairwise verdict requires records of the same case")
    if rec_a.average_precision != rec_b.average_precision:
        return (
            PairedVerdict.WIN_A
            if rec_a.average_precision > rec_b.average_precision
            else PairedVerdict.WIN_B
        )
    if rec_a.average_precision == 0:
        a_silent = rec_a.outcome is Outcome.NO_PREDICTION
        b_silent = rec_b.outcome is Outcome.NO_PREDICTION
        if a_silent and not b_silent:
            return PairedVerdict.WIN_A
        if b_silent and not a_silent:
            return PairedVerdict.WIN_B
    return PairedVerdict.DRAW


class WilcoxonResult(NamedTuple):
    statistic: float
    p_value: float | None  # None: every difference was zero, no decision


def _signed_rank_parts(
    diffs: Sequence[Fraction],
) -> tuple[list[Fraction], Fraction, Fraction, list[int]]:
    """Average ranks of |d|, the two rank sums, and tie group sizes."""
    order = sorted(range(len(diffs)), key=lambda i: abs(diffs[i]))
    ranks: list[Fraction] = [Fraction(0)] * len(diffs)
    ties: list[int] = []
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and abs(diffs[order[j]]) == abs(diffs[order[i]]):
            j += 1
        avg = Fraction(i + 1 + j, 2)  # mean of ranks i+1 .. j
        for k in range(i, j):
            ranks[order[k]] = avg
        ties.append(j - i)
        i = j
    w_pos = sum((r for d, r in zip(diffs, ranks) if d > 0), Fraction(0))
    w_neg = sum((r for d, r in zip(diffs, ranks) if d < 0), Fraction(0))
    return ranks, w_pos, w_neg, ties


def _exact_p(ranks: Sequence[Fraction], w_low: Fraction) -> float:
    """Two-sided exact p over all 2^n sign assignments.

    Uses doubled ranks (integers) and a subset-sum distribution, which is
    the enumeration's distribution computed without materialising 2^n
    assignments.
    """
    doubled = [int(2 * r) for r in ranks]
    total = sum(doubled)
    dist: dict[int, int] = {0: 1}
    for d in doubled:
        nxt: dict[int, int] = {}
        for s, c in dist.items():
            nxt[s] = nxt.get(s, 0) + c
            nxt[s + d] = nxt.get(s + d, 0) + c
        dist = nxt
    lo = 2 * w_low
    hi = total - lo
    count = sum(c for s, c in dist.items() if s <= lo or s >= hi)
    return count / (2 ** len(ranks))


def _approx_p(
    n: int, ties: Sequence[int], t_stat: Fraction
) -> float:
    """Normal approximation with tie and continuity corrections."""
    mu = Fraction(n * (n + 1), 4)
    var = Fraction(n * (n + 1) * (2 * n + 1), 24) - Fraction(
        sum(t**3 - t for t in ties), 48
    )
    sigma = math.sqrt(float(var))
    z = (float(t_stat) - float(mu) + 0.5) / sigma
    p = 2 * 0.5 * math.erfc(-z / math.sqrt(2))
    return min(1.0, p)


def wilcoxon_signed_rank(
    pairs: Sequence[tuple[Fraction, Fraction]],
    method: Literal["auto", "exact", "approx"] = "auto",
) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired values.

    Zero differences are dropped; tied magnitudes share average ranks.
    ``auto`` enumerates the exact distribution below 10 remaining pairs
    and falls back to the tie- and continuity-corrected normal
    approximation otherwise.
    """
    diffs = [Fraction(a) - Fraction(b) for a, b in pairs]
    diffs = [d for d in diffs if d != 0]
    n = len(diffs)
    if n == 0:
        return WilcoxonResult(0.0, None)
    ranks, w_pos, w_neg, ties = _signed_rank_parts(diffs)
    t_stat = min(w_pos, w_neg)
    if method == "auto":
        method = "exact" if n < 10 else "approx"
    if method == "exact":
        if n > 25:
            raise ValueError("exact method is limited to 25 non-zero pairs")
        p = _exact_p(ranks, t_stat)
    else:
        p = _approx_p(n, ties, t_stat)
    return WilcoxonResult(float(t_stat), p)


Metric = Literal["success_rate", "map_all", "wins"]

ALPHA = 0.05


def repo_level_winner(
    records_a: Sequence[EvaluationRecord],
    records_b: Sequence[EvaluationRecord],
    metric: Metric,
) -> PairedVerdict:
    """Repository-level winner under one metric.

    ``success_rate`` and ``wins`` compare strictly; ``map_all`` requires
    a significant signed-rank test (two-sided, alpha 0.05) before the
    higher mean wins.
    """
    if len(records_a) != len(records_b) or not records_a:
        raise ValueError("paired, non-empty record lists required")
    if metric == "success_rate":
        sa = aggregate_rates(records_a)[0]
        sb = aggregate_rates(records_b)[0]
        if sa == sb:
            return PairedVerdict.DRAW
        return PairedVerdict.WIN_A if sa > sb else PairedVerdict.WIN_B
    if metric == "map_all":
        pairs = [
            (a.average_precision, b.average_precision)
            for a, b in zip(records_a, records_b)
        ]
        result = wilcoxon_signed_rank(pairs)
        if result.p_value is None or result.p_value >= ALPHA:
            return PairedVerdict.DRAW
        ma, mb = map_all(records_a), map_all(records_b)
        if ma == mb:
            return PairedVerdict.DRAW
        return PairedVerdict.WIN_A if ma > mb else PairedVerdict.WIN_B
    if metric == "wins":
        verdicts = Counter(
            pairwise_verdict(a, b) for a, b in zip(records_a, records_b)
        )
        wa, wb = verdicts[PairedVerdict.WIN_A], verdicts[PairedVerdict.WIN_B]
        if wa == wb:
            return PairedVerdict.DRAW
        return PairedVerdict.WIN_A if wa > wb else PairedVerdict.WIN_B
    raise ValueError(f"unknown metric: {metric}")


@dataclass
class ExperimentResult:
    """Everything one evaluation run produced, per strategy and paired."""

    strategy_a: Strategy
    strategy_b: Strategy
    fairness: bool
    records_a: list[EvaluationRecord] = field(default_factory=list)
    records_b: list[EvaluationRecord] = field(default_factory=list)
    verdicts: list[PairedVerdict] = field(default_factory=list)
    commits_considered: int = 0
    commits_eligible: int = 0
    ineligible_reasons: Counter = field(default_factory=Counter)
    errors: list[tuple[str, str]] = field(default_factory=list)
    repo_label: str = ""

    @property
    def events(self) -> int:
        return len(self.verdicts)


def _eligible_cases(
    graph: CommitGraph,
    strategies: tuple[Strategy, Strategy],
    config: RecommenderConfig,
    result: ExperimentResult,
) -> Iterator[tuple[TestCase, PipelineRun, PipelineRun]]:
    """Each case of every eligible commit, in ``run_experiment`` order,
    with both strategies' pipeline runs.  Commit counters, ineligibility
    reasons and per-commit errors go into ``result``."""
    a, b = strategies
    for commit in ancestors_first_parent(graph, graph.head):
        result.commits_considered += 1
        try:
            prepared = _prepare_commit(graph, commit, strategies, config)
            reason = _eligibility_reason(prepared, strategies)
        except Exception as exc:  # keep going; the report names the commit
            result.errors.append((commit, f"{type(exc).__name__}: {exc}"))
            continue
        if reason is not None:
            result.ineligible_reasons[reason] += 1
            continue
        result.commits_eligible += 1
        for i, case in enumerate(prepared.cases):
            yield case, prepared.runs[(i, a)], prepared.runs[(i, b)]


def _paired_records(
    case: TestCase,
    strategies: tuple[Strategy, Strategy],
    runs: tuple[PipelineRun, PipelineRun],
    fairness: bool,
) -> list[EvaluationRecord]:
    """One record per strategy; with ``fairness`` both recommendations
    are first cut to the shorter length."""
    recs = tuple(run.recommendation for run in runs)
    if fairness:
        recs = _fair_pair(*recs)
    records = []
    for strategy, rec, run in zip(strategies, recs, runs):
        outcome, rank, ap = classify(rec, case)
        records.append(EvaluationRecord(
            test_case=case,
            strategy=strategy,
            outcome=outcome,
            oracle_rank=rank,
            average_precision=ap,
            n_recommendations=len(rec.entries),
            n_rules=len(run.rules),
        ))
    return records


def run_experiment(
    graph: CommitGraph,
    strategies: tuple[Strategy, Strategy],
    config: RecommenderConfig,
    fairness: bool,
    repo_label: str = "",
) -> ExperimentResult:
    """Evaluate two strategies over every eligible first-parent commit.

    Commits are visited newest first along the first-parent chain of the
    graph head.  A failing commit is recorded and skipped; the run
    continues.
    """
    a, b = strategies
    if a is b:
        raise ValueError("run_experiment needs two distinct strategies")
    result = ExperimentResult(a, b, fairness, repo_label=repo_label or graph.label)
    for case, run_a, run_b in _eligible_cases(graph, strategies, config, result):
        row_a, row_b = _paired_records(case, strategies, (run_a, run_b), fairness)
        result.records_a.append(row_a)
        result.records_b.append(row_b)
        result.verdicts.append(pairwise_verdict(row_a, row_b))
    return result

