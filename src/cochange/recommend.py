"""Turning history into recommendations for a concrete query.

Given the files a developer is currently changing, the pipeline collects
past changesets that touch those files, mines association rules from
them, and recommends the consequents of the rules whose antecedents are
covered by the query.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .history import ChangesetEntry, CommitGraph, Strategy, strategy_walk
from .mining import (
    AssociationRule,
    Transaction,
    filter_rules,
    single_consequent_rules,
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
        object.__setattr__(self, "minsup", Fraction(self.minsup))
        object.__setattr__(self, "minconf", Fraction(self.minconf))
        for name in ("minsup", "minconf"):
            v = getattr(self, name)
            if not (0 < v <= 1):
                raise ValueError(f"{name} must be in (0, 1]: {v}")
        for name in ("max_changeset_size", "max_commits", "max_rules"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


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
    """Everything one recommend() call produced, for callers that need
    the intermediate stages (evaluation, diagnostics).  ``n_raw_rules``
    counts the mined single-consequent rules before ranking and
    truncation."""

    db: list[Transaction]
    rules: list[AssociationRule]
    n_raw_rules: int
    recommendation: Recommendation


def _walk_before(
    graph: CommitGraph, at_commit: str, strategy: Strategy
) -> list[ChangesetEntry]:
    """Strategy walk for the history strictly before ``at_commit``."""
    graph.commit(at_commit)
    return [
        e
        for e in strategy_walk(graph, at_commit, strategy)
        if e.commit_id != at_commit
    ]


def _collect(
    entries: list[ChangesetEntry], query: Query, config: RecommenderConfig
) -> list[Transaction]:
    if config.collector is Collector.SEQUENTIAL:
        kept: list[ChangesetEntry] = []
        for e in entries:
            if e.files & query.files and len(e.files) <= config.max_changeset_size:
                kept.append(e)
                if len(kept) >= config.max_commits:
                    break
    else:
        # Per-file slices are capped first; the size filter runs on the
        # unioned result, so an oversized changeset still consumes slots.
        picked: set[int] = set()
        for f in sorted(query.files):
            taken = 0
            for i, e in enumerate(entries):
                if f in e.files:
                    picked.add(i)
                    taken += 1
                    if taken >= config.max_commits:
                        break
        kept = [
            entries[i]
            for i in sorted(picked)
            if len(entries[i].files) <= config.max_changeset_size
        ]
    return [Transaction(files=e.files, source_commit=e.commit_id) for e in kept]


def collect_commits(
    graph: CommitGraph,
    query: Query,
    strategy: Strategy,
    config: RecommenderConfig,
) -> list[Transaction]:
    """Past changesets relevant to ``query``, newest first."""
    return _collect(_walk_before(graph, query.at_commit, strategy), query, config)


def _run_pipeline(
    entries: list[ChangesetEntry],
    query: Query,
    strategy: Strategy,
    config: RecommenderConfig,
) -> PipelineRun:
    db = _collect(entries, query, config)
    if db:
        raw = single_consequent_rules(db, config.minsup, config.minconf)
        rules = filter_rules(raw, config.max_rules)
    else:
        raw = []
        rules = []
    picked: list[RecommendationEntry] = []
    seen: set[str] = set()
    for rule in rules:
        if rule.antecedent <= query.files:
            (consequent,) = rule.consequent
            if consequent not in seen:
                seen.add(consequent)
                picked.append(
                    RecommendationEntry(consequent, rule.support, rule)
                )
    return PipelineRun(db, rules, len(raw), Recommendation(tuple(picked), strategy))


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
    walk = _walk_before(graph, query.at_commit, strategy)
    return _run_pipeline(walk, query, strategy, config).recommendation


def _fair_pair(*recs: Recommendation) -> tuple[Recommendation, ...]:
    """The recommendations truncated to the shortest entry list."""
    cut = min(len(rec.entries) for rec in recs)
    return tuple(replace(rec, entries=rec.entries[:cut]) for rec in recs)


def paired_recommend(
    graph: CommitGraph,
    query: Query,
    strategies: tuple[Strategy, Strategy],
    config: RecommenderConfig,
    fairness: bool,
) -> tuple[Recommendation, Recommendation]:
    """Run two strategies on the same query.

    With ``fairness`` on, both entry lists are truncated to the shorter
    length so neither side benefits from sheer volume.
    """
    a, b = strategies
    if a is b:
        raise ValueError("paired_recommend needs two distinct strategies")
    rec_a = recommend(graph, query, a, config)
    rec_b = recommend(graph, query, b, config)
    if fairness:
        rec_a, rec_b = _fair_pair(rec_a, rec_b)
    return rec_a, rec_b
