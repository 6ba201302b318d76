"""Branch characteristics analytics.

Explains *why* the strategies disagree: which merges swapped commits in
and out of the collections, how strategy winners distribute over branch
length and merge size, and how precise merge-level versus branch-level
co-change information is against future history.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .history import (
    CommitGraph,
    additional_changes,
    ancestors_first_parent,
    branch_commits,
    branch_length,
    merge_base,
    merge_commit_size,
)
from .evaluation import PairedVerdict, TestCase, _db_fingerprint
from .mining import Transaction


class CauseAttributionError(RuntimeError):
    """Collections differ but no merge could be blamed (exotic topology)."""


@dataclass(frozen=True)
class BranchInfo:
    """Shape of the branch joined by one merge commit."""

    merge: str
    merge_base: str | None
    branch_commit_ids: frozenset[str]
    branch_length: int
    merge_size: int
    has_additional_changes: bool


def branch_info(graph: CommitGraph, merge: str) -> BranchInfo:
    commits = branch_commits(graph, merge)
    parents = graph.commit(merge).parents
    base = merge_base(graph, parents[0], parents[1]) if (
        parents[0] in graph.commits and parents[1] in graph.commits
    ) else None
    return BranchInfo(
        merge=merge,
        merge_base=base,
        branch_commit_ids=commits,
        branch_length=len(commits),
        merge_size=merge_commit_size(graph, merge),
        has_additional_changes=bool(additional_changes(graph, merge)),
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
    ``test_case`` (``PipelineRun.db``).  A merge is a cause when its own
    entry landed in either collection or any of its branch commits
    landed in ``db_a``.  Returns None when the collections are identical
    (nothing to explain).
    """
    if _db_fingerprint(db_a) == _db_fingerprint(db_b):
        return None
    ids_a = {t.source_commit for t in db_a}
    ids_b = {t.source_commit for t in db_b}

    def is_cause(merge_id: str) -> bool:
        if merge_id in ids_a or merge_id in ids_b:
            return True
        return bool(branch_commits(graph, merge_id) & ids_a)

    chain_merges = [
        cid
        for cid in ancestors_first_parent(graph, test_case.commit)
        if cid != test_case.commit and graph.commits[cid].is_merge
    ]
    causes = [m for m in chain_merges if is_cause(m)]
    if not causes:
        # Nested or criss-cross structure: look at every merge.
        seen = set(chain_merges)
        causes = [
            cid
            for cid in sorted(graph.commits)
            if cid not in seen
            and graph.commits[cid].is_merge
            and is_cause(cid)
        ]
    if not causes:
        raise CauseAttributionError(
            f"collections differ for {test_case.commit} but no merge "
            "explains the difference"
        )
    return CausalDiagnosis(
        test_case=test_case,
        causing_merges=frozenset(causes),
        max_branch_length=max(branch_length(graph, m) for m in causes),
        max_merge_size=max(merge_commit_size(graph, m) for m in causes),
    )


class Cohort(Enum):
    SINGLE = "single"  # exactly one causing merge
    SIX_PLUS = "six-plus"  # many causing merges, median-split bins


Characteristic = str  # "branch_length" | "merge_size"


@dataclass(frozen=True)
class WinnerRateBin:
    low: int
    high: int
    wins_a: int
    wins_b: int
    draws: int
    n: int

    @property
    def win_rate_a(self) -> Fraction:
        return Fraction(self.wins_a, self.n)

    @property
    def win_rate_b(self) -> Fraction:
        return Fraction(self.wins_b, self.n)

    @property
    def draw_rate(self) -> Fraction:
        return Fraction(self.draws, self.n)


def _characteristic_value(d: CausalDiagnosis, characteristic: str) -> int:
    if characteristic == "branch_length":
        return d.max_branch_length
    if characteristic == "merge_size":
        return d.max_merge_size
    raise ValueError(f"unknown characteristic: {characteristic}")


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
    if n_bins < 1:
        raise ValueError("n_bins must be positive")
    if cohort is Cohort.SINGLE:
        selected = [(d, v) for d, v in cases if d.n_causing == 1]
        bins = n_bins
    else:
        selected = [(d, v) for d, v in cases if d.n_causing >= multi_threshold]
        bins = 2
    if not selected:
        return []
    keyed = sorted(
        (( _characteristic_value(d, characteristic), i, v) for i, (d, v) in enumerate(selected)),
    )
    bins = min(bins, len(keyed))
    base, extra = divmod(len(keyed), bins)
    out: list[WinnerRateBin] = []
    pos = 0
    for b in range(bins):
        size = base + (1 if b < extra else 0)
        chunk = keyed[pos : pos + size]
        pos += size
        verdicts = [v for _, _, v in chunk]
        out.append(
            WinnerRateBin(
                low=chunk[0][0],
                high=chunk[-1][0],
                wins_a=sum(v is PairedVerdict.WIN_A for v in verdicts),
                wins_b=sum(v is PairedVerdict.WIN_B for v in verdicts),
                draws=sum(v is PairedVerdict.DRAW for v in verdicts),
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
        if len(commits) <= 1:
            union: set[str] = set()
            for b in commits:
                union |= graph.commits[b].changeset
            if frozenset(union) == c.changeset:
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


def _descendants_nearest_first(graph: CommitGraph, commit: str) -> list[str]:
    """Commits that can reach ``commit``, ordered by parent-edge distance,
    then timestamp, then id."""
    children = graph._children
    dist: dict[str, int] = {commit: 0}
    queue = deque([commit])
    while queue:
        cur = queue.popleft()
        for kid in children[cur]:
            if kid not in dist:
                dist[kid] = dist[cur] + 1
                queue.append(kid)
    del dist[commit]
    return sorted(
        dist,
        key=lambda cid: (dist[cid], graph.commits[cid].author_timestamp, cid),
    )


def future_oracle(
    graph: CommitGraph, merge: str, target: str, horizon: int = 100
) -> frozenset[str]:
    """Files co-changed with ``target`` in the next ``horizon`` commits
    that descend from ``merge``."""
    graph.commit(merge)
    if horizon <= 0:
        return frozenset()
    nearest = _descendants_nearest_first(graph, merge)[:horizon]
    return cochanged_files(
        (graph.commits[cid].changeset for cid in nearest), target
    )


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
        nearest = _descendants_nearest_first(graph, merge)
        if not nearest:
            diag.merges_skipped_no_future += 1
            continue
        future = [graph.commits[cid].changeset for cid in nearest[:horizon]]
        info = branch_info(graph, merge)
        merge_changeset = graph.commits[merge].changeset
        branch_changesets = [
            graph.commits[b].changeset for b in sorted(info.branch_commit_ids)
        ]
        targets: set[str] = set(merge_changeset)
        for cs in branch_changesets:
            targets |= cs
        for mode, sources in (
            (CochangeMode.FROM_MERGE, [merge_changeset]),
            (CochangeMode.FROM_BRANCH, branch_changesets),
        ):
            per_file: dict[str, Fraction] = {}
            for target in sorted(targets):
                changed = cochanged_files(sources, target)
                if not changed:
                    diag.files_skipped_empty_changed += 1
                    continue
                oracle = cochanged_files(future, target)
                per_file[target] = precision(changed, oracle)
            if not per_file:
                diag.modes_skipped_empty += 1
                continue
            mean = Fraction(sum(per_file.values()), len(per_file))
            records.append(
                (PrecisionRecord(merge, mode, per_file, mean), info)
            )
    return records, diag


def _pairs(files: Iterable[str]) -> set[frozenset[str]]:
    return {frozenset(p) for p in combinations(sorted(files), 2)}


def added_cochange_count(graph: CommitGraph, merge: str) -> int:
    """How many co-change pairs the squashed merge diff suggests beyond
    what the branch commits individually support."""
    c = graph.commit(merge)
    if not c.is_merge:
        raise ValueError(f"added_cochange_count requires a merge: {merge}")
    merge_pairs = len(c.changeset) * (len(c.changeset) - 1) // 2
    branch_pairs: set[frozenset[str]] = set()
    for b in branch_commits(graph, merge):
        branch_pairs |= _pairs(graph.commits[b].changeset)
    return merge_pairs - len(branch_pairs)


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
