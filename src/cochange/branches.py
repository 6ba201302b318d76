"""Branch characteristics analytics.

Explains *why* the strategies disagree: which merges swapped commits in
and out of the collections, how strategy winners distribute over branch
length and merge size, and how precise merge-level versus branch-level
co-change information is against future history.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .history import (
    CommitGraph,
    _merge_commit,
    ancestors_first_parent,
    branch_commits,
    merge_commit_size,
)
from .evaluation import ExperimentResult, PairedVerdict, TestCase, _mean, _scored_cases
from .mining import Transaction
from .recommend import RecommenderConfig


class CauseAttributionError(RuntimeError):
    """Collections differ but no merge could be blamed (exotic topology)."""


@dataclass(frozen=True)
class BranchInfo:
    """Shape of the branch joined by one merge commit."""

    merge: str
    branch_commit_ids: frozenset[str]
    branch_length: int
    merge_size: int


def branch_info(graph: CommitGraph, merge: str) -> BranchInfo:
    commits = branch_commits(graph, merge)
    return BranchInfo(
        merge=merge,
        branch_commit_ids=commits,
        branch_length=len(commits),
        merge_size=merge_commit_size(graph, merge),
    )


@dataclass(frozen=True)
class CausalDiagnosis:
    """Merges responsible for the collection difference of one test case."""

    test_case: TestCase
    causing_merges: frozenset[str]
    max_branch_length: int
    max_merge_size: int

    @property
    def n_causing(self) -> int:
        return len(self.causing_merges)


def diagnose_causes(
    graph: CommitGraph,
    test_case: TestCase,
    db_a: list[Transaction],
    db_b: list[Transaction],
) -> CausalDiagnosis | None:
    """Blame merges for the difference between two collections.

    ``db_a`` and ``db_b`` are what the two strategies collected for
    ``test_case`` (``PipelineRun.db``).  A merge explains the difference
    when its own entry landed in either collection or any of its branch
    commits landed in ``db_a``.  The causes are the explaining merges on
    the case's first-parent chain (the case's own commit excluded); only
    when none of those explains are the explaining merges elsewhere in
    the graph blamed instead.  Returns None when the collections are
    identical (nothing to explain).
    """
    if db_a == db_b:
        return None
    ids_a = {t.source_commit for t in db_a}
    ids_b = {t.source_commit for t in db_b}
    owners = graph._branch_owners
    table = graph._branch_table
    hits = (ids_a | ids_b) & table.keys()
    for cid in ids_a:
        hits |= owners.get(cid, frozenset())
    spans = graph._first_parent_spans
    enter, last = spans[graph.commit(test_case.commit).id]
    on_chain = {m for m in hits if spans[m][0] < enter and last <= spans[m][1]}
    causes = on_chain or hits
    if not causes:
        raise CauseAttributionError(
            f"collections differ for {test_case.commit} but no merge "
            "explains the difference"
        )
    return CausalDiagnosis(
        test_case=test_case,
        causing_merges=frozenset(causes),
        # every cause is a merge, a key of the branch table
        max_branch_length=max(len(table[m]) for m in causes),
        max_merge_size=max(len(graph.commits[m].changeset) for m in causes),
    )


class Cohort(Enum):
    SINGLE = "single"  # exactly one causing merge
    SIX_PLUS = "six-plus"  # many causing merges, median-split bins


@dataclass(frozen=True)
class WinnerRateBin:
    low: int
    high: int
    wins_a: int
    wins_b: int
    draws: int
    n: int


# Each branch characteristic and the CausalDiagnosis field it bins.
_CHARACTERISTICS = {"branch_length": "max_branch_length", "merge_size": "max_merge_size"}


def _check_bins(n_bins: int, multi_threshold: int) -> None:
    if n_bins < 1:
        raise ValueError("n_bins must be positive")
    if multi_threshold < 1:
        raise ValueError("multi_threshold must be positive")


def winner_rate_table(
    cases: Sequence[tuple[CausalDiagnosis, PairedVerdict]],
    characteristic: str,
    cohort: Cohort,
    n_bins: int = 5,
    multi_threshold: int = 6,
) -> list[WinnerRateBin]:
    """Winner counts per equal-frequency bin of a branch characteristic.

    SINGLE selects cases caused by exactly one merge and uses ``n_bins``;
    SIX_PLUS selects cases with at least ``multi_threshold`` causes and
    splits at the median (two bins).  Bin populations differ by at most
    one; draws stay in the table even if a plot would drop them.
    """
    if characteristic not in _CHARACTERISTICS:
        raise ValueError(f"unknown characteristic: {characteristic}")
    _check_bins(n_bins, multi_threshold)
    if cohort is Cohort.SINGLE:
        selected = [(d, v) for d, v in cases if d.n_causing == 1]
        bins = n_bins
    else:
        selected = [(d, v) for d, v in cases if d.n_causing >= multi_threshold]
        bins = 2
    if not selected:
        return []
    field = _CHARACTERISTICS[characteristic]
    keyed = sorted((getattr(d, field), i, v) for i, (d, v) in enumerate(selected))
    bins = min(bins, len(keyed))
    base, extra = divmod(len(keyed), bins)
    out: list[WinnerRateBin] = []
    pos = 0
    for b in range(bins):
        size = base + (1 if b < extra else 0)
        chunk = keyed[pos : pos + size]
        pos += size
        tally = Counter(v for _, _, v in chunk)
        out.append(
            WinnerRateBin(
                low=chunk[0][0],
                high=chunk[-1][0],
                wins_a=tally[PairedVerdict.WIN_A],
                wins_b=tally[PairedVerdict.WIN_B],
                draws=tally[PairedVerdict.DRAW],
                n=len(chunk),
            )
        )
    return out


def median_cap(sizes: Sequence[int]) -> int | None:
    """Median of the first-parent collection sizes, rounded up to an
    integer; None (no cap) when there are no sizes."""
    if not sizes:
        return None
    ordered = sorted(sizes)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid] + 1) // 2


def analyze_branches(
    graph: CommitGraph,
    config: RecommenderConfig,
    result: ExperimentResult,
    cap: int | str | None = None,
    n_bins: int = 5,
    multi_threshold: int = 6,
) -> tuple[dict[str, list[WinnerRateBin]], dict]:
    """Winner rates of ``result``'s strategy pair by branch characteristic.

    Every case is scored into ``result`` (per-commit errors included) and
    the difference of its two collections diagnosed.  ``cap`` (None,
    ``"median"`` or an int) keeps the cases whose first-parent collection
    holds at most that many commits; ``"median"`` takes ``median_cap`` of
    the sizes.  Returns the four winner-rate tables, keyed by their CSV
    file names, and the summary written as ``branch_analysis.json``.
    Raises ValueError, before any case is scored, for a ``result`` whose
    two strategies are the same, a ``cap`` of any other value, or an
    ``n_bins`` or ``multi_threshold`` below 1.
    """
    if result.strategy_a is result.strategy_b:
        raise ValueError("result needs two distinct strategies")
    if not (cap is None or cap == "median" or (type(cap) is int and cap >= 0)):
        raise ValueError(f"cap must be None, 'median' or a non-negative int, not {cap!r}")
    _check_bins(n_bins, multi_threshold)
    # One row per case, in case order (winner_rate_table breaks ties by
    # position): first-parent collection size, diagnosis (None for equal
    # collections, CauseAttributionError when no merge explains the
    # difference), verdict.  The collections are dropped once the case is
    # diagnosed, but each diagnosis keeps its causing_merges frozenset.
    rows = []
    for case, run_a, run_b, verdict in _scored_cases(graph, config, result):
        try:
            diagnosis = diagnose_causes(graph, case, run_a.db, run_b.db)
        except CauseAttributionError:
            diagnosis = CauseAttributionError
        rows.append((len(run_b.db), diagnosis, verdict))
    if cap == "median":
        cap = median_cap([size for size, _, _ in rows])
    kept = [(d, v) for size, d, v in rows if cap is None or size <= cap]
    pairs = [(d, v) for d, v in kept if isinstance(d, CausalDiagnosis)]
    hist = Counter(d.n_causing for d, _ in pairs)
    tables = {
        f"winner_rate_{characteristic}_{cohort.value.replace('-', '_')}.csv":
            winner_rate_table(pairs, characteristic, cohort, n_bins, multi_threshold)
        for characteristic in ("branch_length", "merge_size")
        for cohort in (Cohort.SINGLE, Cohort.SIX_PLUS)
    }
    summary = {
        "strategy_pair": [result.strategy_a.value, result.strategy_b.value],
        "cap": cap,
        "cases_evaluated": len(rows),
        "cases_after_cap": len(kept),
        "cases_diagnosed": len(pairs),
        "cases_equal_collections": sum(d is None for d, _ in kept),
        "cases_unattributed": sum(d is CauseAttributionError for d, _ in kept),
        "causing_merges_histogram": {str(k): hist[k] for k in sorted(hist)},
    }
    return tables, summary


def eligible_merges_for_cochange(graph: CommitGraph) -> list[str]:
    """First-parent-chain merges worth studying.

    Trivial merges (a single-commit branch whose files equal the merge
    diff exactly) are excluded; the strategies cannot differ on them.
    """
    out = []
    for cid in ancestors_first_parent(graph, graph.head):
        c = graph.commits[cid]
        if not c.is_merge:
            continue
        commits = branch_commits(graph, cid)
        if len(commits) <= 1 and c.changeset == frozenset().union(
            *(graph.commits[b].changeset for b in commits)
        ):
            continue
        out.append(cid)
    return out


def cochanged_files(
    changesets: Iterable[frozenset[str]], target: str
) -> frozenset[str]:
    """Files that ever changed together with ``target``."""
    out: set[str] = set()
    for cs in changesets:
        if target in cs:
            out |= cs
    out.discard(target)
    return frozenset(out)


def _future(graph: CommitGraph, merge: str, horizon: int) -> list[frozenset[str]]:
    """Changesets of the ``horizon`` commits nearest after ``merge``:
    its descendants by parent-edge distance, then timestamp, then id.
    Each distance level is found and sorted only while it is needed."""
    children, rank = graph._children, graph._rank
    seen = {merge}
    level = [merge]
    nearest: list[str] = []
    while level and len(nearest) < horizon:
        level = sorted(
            {kid for cid in level for kid in children[cid]} - seen, key=rank.__getitem__
        )
        seen.update(level)
        nearest += level
    return [graph.commits[cid].changeset for cid in nearest[:horizon]]


def precision(changed: frozenset[str], oracle: frozenset[str]) -> Fraction:
    """|changed ∩ oracle| / |changed|, exact."""
    if not changed:
        raise ValueError("precision is undefined for an empty changed set")
    return Fraction(len(changed & oracle), len(changed))


class CochangeMode(Enum):
    FROM_MERGE = "from-merge"  # co-change read off the squashed merge diff
    FROM_BRANCH = "from-branch"  # co-change read off individual branch commits


@dataclass(frozen=True)
class PrecisionRecord:
    merge: str
    mode: CochangeMode
    per_file_precision: Mapping[str, Fraction]
    mean_precision: Fraction


@dataclass
class StudyDiagnostics:
    merges_skipped_no_future: int = 0
    files_skipped_empty_changed: int = 0
    modes_skipped_empty: int = 0


def cochange_study(
    graph: CommitGraph, horizon: int = 100
) -> tuple[list[tuple[PrecisionRecord, BranchInfo]], StudyDiagnostics]:
    """Precision of merge-level vs branch-level co-change information.

    For every studied merge and every file it (or its branch) touched,
    the files reported as co-changed are scored against the files
    actually co-changed in the nearest ``horizon`` future commits.
    Files with an empty co-change set are skipped and counted.
    """
    records: list[tuple[PrecisionRecord, BranchInfo]] = []
    diag = StudyDiagnostics()
    for merge in eligible_merges_for_cochange(graph):
        if not graph._children[merge]:
            diag.merges_skipped_no_future += 1
            continue
        future = _future(graph, merge, horizon)
        info = branch_info(graph, merge)
        merge_changeset = graph.commits[merge].changeset
        branch_changesets = [graph.commits[b].changeset for b in info.branch_commit_ids]
        targets = sorted(merge_changeset.union(*branch_changesets))
        oracles = {target: cochanged_files(future, target) for target in targets}
        for mode, sources in (
            (CochangeMode.FROM_MERGE, [merge_changeset]),
            (CochangeMode.FROM_BRANCH, branch_changesets),
        ):
            per_file: dict[str, Fraction] = {}
            for target in targets:
                changed = cochanged_files(sources, target)
                if not changed:
                    diag.files_skipped_empty_changed += 1
                    continue
                per_file[target] = precision(changed, oracles[target])
            if not per_file:
                diag.modes_skipped_empty += 1
                continue
            mean = _mean(per_file.values())
            records.append(
                (PrecisionRecord(merge, mode, per_file, mean), info)
            )
    return records, diag


def _pairs(files: Iterable[str]) -> set[frozenset[str]]:
    return {frozenset(p) for p in combinations(sorted(files), 2)}


def added_cochange_count(graph: CommitGraph, merge: str) -> int:
    """How many file pairs of the squashed merge diff no branch commit
    changed together."""
    c = _merge_commit(graph, merge, "added_cochange_count")
    branch_pairs: set[frozenset[str]] = set()
    for b in branch_commits(graph, merge):
        branch_pairs |= _pairs(graph.commits[b].changeset)
    return len(_pairs(c.changeset) - branch_pairs)


def sample_heavy_merges(
    graph: CommitGraph,
    min_added_cochanges: int = 7,
    n: int = 40,
    seed: int = 0,
) -> list[str]:
    """Seeded uniform sample of merges that add many co-change pairs."""
    candidates = [
        cid
        for cid in ancestors_first_parent(graph, graph.head)
        if graph.commits[cid].is_merge
        and added_cochange_count(graph, cid) >= min_added_cochanges
    ]
    if len(candidates) <= n:
        return candidates
    return random.Random(seed).sample(candidates, n)
