"""Leave-one-out evaluation of change recommendation strategies.

Every historical commit with 2..N changed files yields one test case per
file: hide the file, query with the rest, and check whether the hidden
file comes back.  Two strategies are always evaluated on identical test
cases so their outcomes can be compared pairwise and with a signed-rank
test.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import sub
from typing import Collection, Iterable, Iterator, Literal, NamedTuple, Sequence, get_args

from .history import CommitGraph, Strategy, _entry, _newest_first, ancestors_first_parent
from .mining import Transaction, _ranked
from .recommend import (
    Collector,
    PipelineRun,
    RecommenderConfig,
    _fire,
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

_CaseRow = tuple[TestCase, PipelineRun, PipelineRun]


class _ChainWalk:
    """One strategy's walk, spliced along the first-parent chain of
    ``head`` and indexed by file, for collecting every case of every
    chain commit.

    The walk is held oldest first: ``_order`` lists the commit ids,
    ``_pos`` maps each to its position and ``_transactions`` holds each
    position's changeset (None when the commit contributes nothing),
    shared by every query.  ``_positions`` lists each file's positions in
    ascending order; the sequential index leaves out oversized
    changesets, which that collector never takes, and the per-file index
    keeps them, since they still take a slot there.

    Construction splices in the chain commits, oldest first, so the walk
    ends at ``head``, and logs each splice.  ``at(commit)`` undoes
    splices back to an older chain commit; ``collect`` reads the history
    strictly before the commit the walk is at, for all of its cases at
    once.
    """

    def __init__(
        self,
        graph: CommitGraph,
        strategy: Strategy,
        config: RecommenderConfig,
        head: str,
    ) -> None:
        self.graph = graph
        self.strategy = strategy
        self.config = config
        self._order: list[str] = []
        self._pos: dict[str, int] = {}
        self._transactions: list[Transaction | None] = []
        self._positions: defaultdict[str, list[int]] = defaultdict(list)
        self._log: list[tuple[int, list[str]]] = []  # (pushed, removed)
        for commit in reversed(ancestors_first_parent(graph, head)):
            if strategy is Strategy.FULL:
                new, k = _newest_first(graph, [commit], self._pos)
            else:
                new, k = [commit], 0
            removed = self._order[len(self._order) - k:]
            self._pop(k)
            self._push(reversed(new))
            self._log.append((len(new), removed))

    def _indexed(self, t: Transaction | None) -> frozenset[str]:
        """The files a position holding ``t`` is indexed under."""
        if t is None or (len(t.files) > self.config.max_changeset_size
                         and self.config.collector is Collector.SEQUENTIAL):
            return frozenset()
        return t.files

    def _push(self, commits: Iterable[str]) -> None:
        order, positions = self._order, self._positions
        for cid in commits:
            e = _entry(self.graph, cid, self.strategy)
            t = Transaction(e.files, cid) if e else None
            self._pos[cid] = len(order)
            for f in self._indexed(t):
                positions[f].append(len(order))
            order.append(cid)
            self._transactions.append(t)

    def _pop(self, k: int) -> None:
        for _ in range(k):
            del self._pos[self._order.pop()]
            for f in self._indexed(self._transactions.pop()):
                self._positions[f].pop()

    def at(self, commit: str) -> None:
        """Undo splices until the walk ends at ``commit``, a chain commit
        no newer than the one it is at."""
        while self._order[-1] != commit:
            pushed, removed = self._log.pop()
            self._pop(pushed)
            self._push(removed)

    def collect(
        self, changeset: frozenset[str]
    ) -> tuple[list[list[Transaction]], list[int]]:
        """The collections of the leave-one-out cases of ``changeset``,
        the changes of the commit the walk is at: the distinct lists, and
        for each case, ordered by oracle as ``generate_test_cases`` orders
        them, the index of its list.  A case's list is
        ``_collect(_walk_before(graph, commit, strategy), changeset -
        {oracle}, config)``.

        Each changed file is bisected once: its slice is up to
        ``max_commits`` of its positions below the commit's own, less the
        oversized ones under the per-file collector (they took their slot
        first).  A case's positions are the union of its query files'
        slices: the union of every slice less the positions that only the
        oracle's slice holds, newest first, which the sequential collector
        cuts to ``max_commits``.  Cases whose positions agree share one
        list."""
        config = self.config
        take = config.max_commits
        sequential = config.collector is Collector.SEQUENTIAL
        cap = config.max_changeset_size
        end = len(self._order) - 1
        transactions = self._transactions
        # position -> the one file whose slice holds it, None when several do
        only: dict[int, str | None] = {}
        for f in changeset:
            at = self._positions.get(f)
            if at:
                i = bisect_left(at, end)
                for p in at[max(i - take, 0):i]:
                    if sequential or len(transactions[p].files) <= cap:
                        only[p] = None if p in only else f
        newest = sorted(only, reverse=True)
        owners = set(only.values())
        lists: dict[tuple[int, ...], int] = {}
        dbs: list[list[Transaction]] = []
        index = []
        for oracle in sorted(changeset):
            kept = tuple([p for p in newest if only[p] != oracle]
                         if oracle in owners else newest)
            if sequential:
                kept = kept[:take]
            k = lists.setdefault(kept, len(dbs))
            if k == len(dbs):
                dbs.append([transactions[p] for p in kept])
            index.append(k)
        return dbs, index


def _prepare_commit(
    graph: CommitGraph,
    commit: str,
    walks: tuple[_ChainWalk, _ChainWalk],
    config: RecommenderConfig,
) -> tuple[str | None, list[_CaseRow]]:
    """The first eligibility reason ``commit`` fails, or None and each of
    its test cases with both strategies' pipeline runs.  ``walks`` are
    both strategies' walks, already at ``commit``.  The reasons that need
    only the collections are decided before anything is mined, and each
    strategy ranks each distinct collection once; the fire test runs per
    case."""
    cases = generate_test_cases(graph, commit, config.max_changeset_size)
    if not cases:
        return _REASON_SIZE, []
    changeset = graph.commit(commit).changeset
    collected = [walk.collect(changeset) for walk in walks]
    (dbs_a, of_a), (dbs_b, of_b) = collected
    if all(dbs_a[i] == dbs_b[j] for i, j in zip(of_a, of_b)):
        return _REASON_IDENTICAL, []
    if not any(len(db) >= _MIN_TRANSACTIONS for dbs, _ in collected for db in dbs):
        return _REASON_TOO_FEW, []
    ranked = [
        [_ranked(db, config.minsup, config.minconf, config.max_rules) for db in dbs]
        for dbs, _ in collected
    ]
    if not any(best for bests in ranked for best in bests):
        return _REASON_NO_RULES, []
    runs = [
        [_fire(dbs[i], bests[i], case.query) for i, case in zip(of, cases)]
        for (dbs, of), bests in zip(collected, ranked)
    ]
    return None, list(zip(cases, *runs))


def _classify(
    files: Iterable[str], test_case: TestCase
) -> tuple[Outcome, int | None, Fraction]:
    """Outcome, 1-based oracle rank, and average precision for one case,
    given the recommended ``files``, best first.  Files in the query are
    stripped before ranking."""
    rank = 0
    for f in files:
        if f not in test_case.query:
            rank += 1
            if f == test_case.oracle:
                return Outcome.SUCCESS, rank, Fraction(1, rank)
    return (Outcome.FAILURE if rank else Outcome.NO_PREDICTION), None, Fraction(0)


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
        _mean([r.n_recommendations for r in records]),
        _mean([r.n_rules for r in records]),
    )


def _mean(values: Collection[Fraction | int]) -> Fraction:
    """The exact mean of ``values``, building one ``Fraction``: each
    numerator is added to a running total for its denominator, and the
    totals meet over the lcm of those denominators."""
    totals: defaultdict[int, int] = defaultdict(int)
    for v in values:
        totals[v.denominator] += v.numerator
    den = math.lcm(*totals)
    total = sum(num * (den // d) for d, num in totals.items())
    return Fraction(total, den * len(values))


def map_all(records: Sequence[EvaluationRecord]) -> Fraction:
    """Mean average precision over every record."""
    if not records:
        raise ValueError("map_all is undefined on zero records")
    return _mean([r.average_precision for r in records])


def map_app(records: Sequence[EvaluationRecord]) -> Fraction:
    """Mean average precision over records that produced recommendations."""
    applicable = [r.average_precision for r in records
                  if r.outcome is not Outcome.NO_PREDICTION]
    if not applicable:
        raise ValueError("map_app is undefined: no record has recommendations")
    return _mean(applicable)


def pairwise_verdict(
    rec_a: EvaluationRecord, rec_b: EvaluationRecord
) -> PairedVerdict:
    """Who won one test case.

    Higher average precision wins.  When both are zero, producing no
    (false) recommendation beats producing wrong ones; otherwise a draw.
    """
    if rec_a.test_case != rec_b.test_case:
        raise ValueError("pairwise verdict requires records of the same case")
    ap_a, ap_b = rec_a.average_precision, rec_b.average_precision
    if ap_a == ap_b == 0:
        return _compare(
            rec_a.outcome is Outcome.NO_PREDICTION,
            rec_b.outcome is Outcome.NO_PREDICTION,
        )
    return _compare(ap_a, ap_b)


def _compare(a, b) -> PairedVerdict:
    """WIN_A when ``a`` is greater, WIN_B when ``b`` is, else DRAW."""
    if a == b:
        return PairedVerdict.DRAW
    return PairedVerdict.WIN_A if a > b else PairedVerdict.WIN_B


class WilcoxonResult(NamedTuple):
    statistic: float
    p_value: float | None  # None: every difference was zero, no decision


def _signed_rank_parts(diffs: Sequence[int]) -> tuple[list[int], int, list[int]]:
    """Doubled average ranks of |d|, the doubled positive rank sum, and
    tie group sizes, for non-zero integer differences."""
    sizes = Counter(map(abs, diffs))
    doubled: dict[int, int] = {}
    below = 0
    for m in sorted(sizes):
        t = sizes[m]
        doubled[m] = 2 * below + t + 1  # twice the mean of ranks below+1 .. below+t
        below += t
    w_pos = sum(doubled[d] for d in diffs if d > 0)
    return [doubled[abs(d)] for d in diffs], w_pos, list(sizes.values())


def _exact_p(doubled: Sequence[int], w_low: int) -> float:
    """Two-sided exact p over all 2^n sign assignments.

    Uses doubled ranks and rank sums (integers) and a subset-sum
    distribution, which is the enumeration's distribution computed
    without materialising 2^n assignments.
    """
    total = sum(doubled)
    dist: dict[int, int] = {0: 1}
    for d in doubled:
        nxt: dict[int, int] = {}
        for s, c in dist.items():
            nxt[s] = nxt.get(s, 0) + c
            nxt[s + d] = nxt.get(s + d, 0) + c
        dist = nxt
    hi = total - w_low
    count = sum(c for s, c in dist.items() if s <= w_low or s >= hi)
    return count / (2 ** len(doubled))


def _approx_p(
    n: int, ties: Sequence[int], t_stat: float
) -> float:
    """Normal approximation with tie and continuity corrections."""
    mu = Fraction(n * (n + 1), 4)
    var = Fraction(n * (n + 1) * (2 * n + 1), 24) - Fraction(
        sum(t**3 - t for t in ties), 48
    )
    sigma = math.sqrt(float(var))
    z = (t_stat - float(mu) + 0.5) / sigma
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
    approximation otherwise.  The differences are ranked as integers,
    scaled by the lcm of every value's denominator: scaling keeps their
    order and ties, so the ranks are those of the exact differences.
    """
    if method not in ("auto", "exact", "approx"):
        raise ValueError(f"unknown signed-rank method: {method!r}")
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v)
              for a, b in pairs for v in (a, b)]
    den = math.lcm(*{v.denominator for v in values})
    scaled = [v.numerator * (den // v.denominator) for v in values]
    diffs = [d for d in map(sub, scaled[::2], scaled[1::2]) if d]
    n = len(diffs)
    if n == 0:
        return WilcoxonResult(0.0, None)
    doubled, w_pos, ties = _signed_rank_parts(diffs)
    t_doubled = min(w_pos, n * (n + 1) - w_pos)  # the doubled ranks sum to n(n+1)
    t_stat = t_doubled / 2
    if method == "auto":
        method = "exact" if n < 10 else "approx"
    if method == "exact":
        if n > 25:
            raise ValueError("exact method is limited to 25 non-zero pairs")
        p = _exact_p(doubled, t_doubled)
    else:
        p = _approx_p(n, ties, t_stat)
    return WilcoxonResult(t_stat, p)


Metric = Literal["success_rate", "map_all", "wins"]
METRICS: tuple[Metric, ...] = get_args(Metric)  # the order summaries list them in

ALPHA = 0.05


def _verdict(metric: Metric, a, b, p_value: float | None) -> PairedVerdict:
    """The repo-level verdict under ``metric``, read off each strategy's
    figure for it: the greater one wins, and under ``map_all`` only when
    the signed-rank ``p_value`` is below ``ALPHA``."""
    if metric == "map_all" and (p_value is None or p_value >= ALPHA):
        return PairedVerdict.DRAW  # not significant
    return _compare(a, b)


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


def _record(case: TestCase, strategy: Strategy, run: PipelineRun,
            cut: int | None) -> EvaluationRecord:
    """``strategy``'s record for ``case``: ``run``'s first ``cut`` fired files."""
    files = run.fired_files[:cut]
    return EvaluationRecord(case, strategy, *_classify(files, case),
                            len(files), run.n_rules)


def _scored_cases(
    graph: CommitGraph, config: RecommenderConfig, result: ExperimentResult
) -> Iterator[tuple[TestCase, PipelineRun, PipelineRun, PairedVerdict]]:
    """Each case of every eligible commit, newest commit first along the
    first-parent chain of the graph head, with both strategies' pipeline
    runs and its verdict.

    Both records and the verdict are appended to ``result``, as are the
    commit counters, ineligibility reasons and per-commit errors.  Cases
    are scored on the fired files; with ``result.fairness`` both lists
    are first cut to the shorter length.
    """
    strategies = (result.strategy_a, result.strategy_b)
    walks = tuple(_ChainWalk(graph, s, config, graph.head) for s in strategies)
    for commit in ancestors_first_parent(graph, graph.head):
        result.commits_considered += 1
        for w in walks:
            w.at(commit)
        try:
            reason, rows = _prepare_commit(graph, commit, walks, config)
        except Exception as exc:  # keep going; the report names the commit
            result.errors.append((commit, f"{type(exc).__name__}: {exc}"))
            continue
        if reason is not None:
            result.ineligible_reasons[reason] += 1
            continue
        result.commits_eligible += 1
        for case, run_a, run_b in rows:
            cut = min(len(run_a.fired), len(run_b.fired)) if result.fairness else None
            record_a = _record(case, result.strategy_a, run_a, cut)
            record_b = _record(case, result.strategy_b, run_b, cut)
            verdict = pairwise_verdict(record_a, record_b)
            result.records_a.append(record_a)
            result.records_b.append(record_b)
            result.verdicts.append(verdict)
            yield case, run_a, run_b, verdict


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
    for _ in _scored_cases(graph, config, result):
        pass
    return result
