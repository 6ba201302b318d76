"""Turning history into recommendations for a concrete query.

Given the files a developer is currently changing, the pipeline collects
past changesets that touch those files, mines association rules from
them, and recommends the consequents of the rules whose antecedents are
covered by the query.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .history import ChangesetEntry, CommitGraph, Strategy, strategy_walk
from .mining import (
    AssociationRule,
    Transaction,
    _ranked,
    _RankKey,
    _rule,
    _validate_threshold,
)


class Collector(Enum):
    """How past changesets are gathered before mining.

    SEQUENTIAL keeps the newest matching changesets as one stream;
    PER_FILE_SLICE gathers up to ``max_commits`` changesets per query
    file and unions the slices.
    """

    SEQUENTIAL = "sequential"
    PER_FILE_SLICE = "per-file"


@dataclass(frozen=True)
class RecommenderConfig:
    minsup: Fraction = Fraction(1, 10)
    minconf: Fraction = Fraction(1, 10)
    max_changeset_size: int = 10
    max_commits: int = 100
    max_rules: int = 10
    collector: Collector = Collector.SEQUENTIAL

    def __post_init__(self) -> None:
        for name in ("minsup", "minconf"):
            object.__setattr__(
                self, name, _validate_threshold(name, getattr(self, name))
            )
        for name in ("max_changeset_size", "max_commits", "max_rules"):
            v = getattr(self, name)
            if type(v) is not int:  # True and 2.5 are not counts
                raise ValueError(f"{name} must be an int: {v!r}")
            if v < 1:
                raise ValueError(f"{name} must be positive")
        if not isinstance(self.collector, Collector):
            raise ValueError(f"collector must be a Collector: {self.collector!r}")


@dataclass(frozen=True)
class Query:
    """Files currently being changed, and where history is cut.

    Collection starts on the parent side of ``at_commit``; the commit
    itself never contributes a transaction.
    """

    files: frozenset[str]
    at_commit: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "files", frozenset(self.files))
        if not self.files:
            raise ValueError("query must contain at least one file")


@dataclass(frozen=True)
class RecommendationEntry:
    file: str
    score: Fraction
    via_rule: AssociationRule


@dataclass(frozen=True)
class Recommendation:
    entries: tuple[RecommendationEntry, ...]
    strategy: Strategy


@dataclass
class PipelineRun:
    """What one query's mining produced, for callers that need the
    intermediate stages (evaluation, diagnostics).  ``db`` is the
    collection mined; the cases of one commit that collect the same
    transactions share one list, so nothing may mutate it.  ``n_rules``
    counts the ranked rules kept (at most ``max_rules``), so it is 0
    exactly when no rule was mined.  ``fired`` holds the rank keys of the
    rules that fired, best first."""

    db: list[Transaction]
    n_rules: int
    fired: tuple[_RankKey, ...]

    @property
    def fired_files(self) -> list[str]:
        """The recommended files, best first."""
        return [key[4] for key in self.fired]


def _walk_before(
    graph: CommitGraph, at_commit: str, strategy: Strategy
) -> list[ChangesetEntry]:
    """Strategy walk for the history strictly before ``at_commit``, which
    a walk holds as its first entry or, when it changed nothing, not at all."""
    walk = strategy_walk(graph, at_commit, strategy)
    return walk[1:] if walk and walk[0].commit_id == at_commit else walk


def _collect(
    entries: list[ChangesetEntry], files: frozenset[str], config: RecommenderConfig
) -> list[Transaction]:
    cap = config.max_changeset_size
    if config.collector is Collector.SEQUENTIAL:
        kept: list[ChangesetEntry] = []
        for e in entries:
            if len(e.files) <= cap and not e.files.isdisjoint(files):
                kept.append(e)
                if len(kept) >= config.max_commits:
                    break
    else:
        # Per-file slices are capped first; the size filter runs on the
        # unioned result, so an oversized changeset still consumes slots.
        picked: set[int] = set()
        for f in sorted(files):
            taken = 0
            for i, e in enumerate(entries):
                if f in e.files:
                    picked.add(i)
                    taken += 1
                    if taken >= config.max_commits:
                        break
        kept = [entries[i] for i in sorted(picked) if len(entries[i].files) <= cap]
    return [Transaction(files=e.files, source_commit=e.commit_id) for e in kept]


def collect_commits(
    graph: CommitGraph,
    query: Query,
    strategy: Strategy,
    config: RecommenderConfig,
) -> list[Transaction]:
    """Past changesets relevant to ``query``, newest first."""
    walk = _walk_before(graph, query.at_commit, strategy)
    return _collect(walk, query.files, config)


def _fire(
    db: list[Transaction], best: list[_RankKey], files: frozenset[str]
) -> PipelineRun:
    """The run of query ``files`` on ``db``, whose ranked keys are
    ``best``.  The fire test reads integer keys, and no rule is built: a
    rule fires when its antecedent lies within ``files`` and its
    consequent is new."""
    fired: list[_RankKey] = []
    seen: set[str] = set()
    for key in best:
        item = key[4]
        if item not in seen and files.issuperset(key[3]):
            seen.add(item)
            fired.append(key)
    return PipelineRun(db, len(best), tuple(fired))


def _run_pipeline(
    db: list[Transaction],
    files: frozenset[str],
    config: RecommenderConfig,
) -> PipelineRun:
    """Rank ``db``, the transactions collected for query ``files``, on
    ``config``'s thresholds, validated already; then fire."""
    best = _ranked(db, config.minsup, config.minconf, config.max_rules)
    return _fire(db, best, files)


def recommend(
    graph: CommitGraph,
    query: Query,
    strategy: Strategy,
    config: RecommenderConfig,
) -> Recommendation:
    """Recommend files to change alongside ``query.files``.

    Entries are ordered by descending rule support with deterministic
    tie-breaks; each file appears once, at its best score.  Files already
    in the query are not removed here.
    """
    db = collect_commits(graph, query, strategy, config)
    entries = []
    for key in _run_pipeline(db, query.files, config).fired:
        rule = _rule(len(db), key)
        entries.append(RecommendationEntry(key[4], rule.support, rule))
    return Recommendation(tuple(entries), strategy)

