"""Immutable commit-graph model and branch handling strategies.

A repository history is a DAG of commits, each carrying the set of files it
changed relative to its first parent.  Three strategies turn the DAG into a
stream of changesets:

* ``FULL`` walks every parent edge, so commits made on branches are seen
  individually; merge commits contribute only their conflict resolutions
  ("additional changes").
* ``FIRST_PARENT_NO_MERGE`` follows first-parent edges only and likewise
  keeps just the additional changes of merges.
* ``FIRST_PARENT_MERGE`` follows first-parent edges and keeps the whole
  merge diff as a single changeset.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping

_COMMIT_ID_RE = re.compile(r"^[0-9a-f]{40}$")


class Strategy(Enum):
    """How branch structure is flattened into a changeset stream."""

    FULL = "full"
    FIRST_PARENT_NO_MERGE = "fp-no-merge"
    FIRST_PARENT_MERGE = "fp-merge"


class EntryOrigin(Enum):
    ORDINARY = "ordinary"
    MERGE_FULL_DIFF = "merge-full-diff"
    MERGE_ADDITIONAL_ONLY = "merge-additional-only"


def validate_commit_id(value: str) -> str:
    """Return ``value`` if it is a full 40-hex lowercase commit id."""
    if not isinstance(value, str) or not _COMMIT_ID_RE.match(value):
        raise ValueError(f"not a 40-hex commit id: {value!r}")
    return value


def validate_file_path(path: str) -> str:
    """Return ``path`` if it is a sane repository-relative path."""
    if not isinstance(path, str) or not path:
        raise ValueError("file path must be a non-empty string")
    if path.startswith("/"):
        raise ValueError(f"file path must be repository-relative: {path!r}")
    parts = path.split("/")
    if any(p in ("", ".", "..") for p in parts):
        raise ValueError(f"file path contains empty or dot segments: {path!r}")
    return path


@dataclass(frozen=True)
class Commit:
    """One commit.  ``changeset`` is the diff against the first parent
    (all files introduced, for parentless commits).  Merge commits carry
    ``merge_eq``: for every changed file, one boolean per parent telling
    whether the file content in the merge equals that parent's content.
    """

    id: str
    parents: tuple[str, ...]
    author_timestamp: int
    changeset: frozenset[str]
    merge_eq: Mapping[str, tuple[bool, ...]] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "changeset", frozenset(self.changeset))
        if self.merge_eq is not None:
            object.__setattr__(
                self,
                "merge_eq",
                {f: tuple(bool(x) for x in v) for f, v in self.merge_eq.items()},
            )

    @property
    def is_merge(self) -> bool:
        return len(self.parents) >= 2


@dataclass(frozen=True)
class ChangesetEntry:
    """One element of a strategy walk: which commit, which files, and why."""

    commit_id: str
    files: frozenset[str]
    origin: EntryOrigin


def _desc_key(commit_id: str) -> bytes:
    # bytes that sort in the reverse order of the id, for max-first heaps
    return bytes(255 - b for b in commit_id.encode("ascii"))


@dataclass(frozen=True)
class CommitGraph:
    """Validated, immutable commit DAG.

    ``boundaries`` holds parent ids that are referenced but not present
    (shallow-clone edges); traversals stop there.  ``label`` is free-form
    provenance carried through snapshots.
    """

    commits: Mapping[str, Commit]
    head: str
    boundaries: frozenset[str] = frozenset()
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "commits", dict(self.commits))
        object.__setattr__(self, "boundaries", frozenset(self.boundaries))
        self._validate()

    @classmethod
    def from_commits(
        cls,
        commits: Iterable[Commit],
        head: str,
        boundaries: Iterable[str] = (),
        label: str = "",
    ) -> "CommitGraph":
        return cls({c.id: c for c in commits}, head, frozenset(boundaries), label)

    def commit(self, commit_id: str) -> Commit:
        try:
            return self.commits[commit_id]
        except KeyError:
            raise KeyError(f"unknown commit id: {commit_id}") from None

    def _validate(self) -> None:
        if not self.commits:
            raise ValueError("commit graph must contain at least one commit")
        if self.head not in self.commits:
            raise ValueError(f"head {self.head!r} is not in the graph")
        if self.boundaries & self.commits.keys():
            raise ValueError("boundary ids must not also be present commits")
        for cid, c in self.commits.items():
            validate_commit_id(cid)
            if c.id != cid:
                raise ValueError(f"commit keyed as {cid} has id {c.id}")
            if len(set(c.parents)) != len(c.parents):
                raise ValueError(f"commit {cid} lists a duplicate parent")
            for p in c.parents:
                validate_commit_id(p)
                if p not in self.commits and p not in self.boundaries:
                    raise ValueError(
                        f"commit {cid} references unknown parent {p} "
                        "(not a commit, not a boundary)"
                    )
            if not isinstance(c.author_timestamp, int):
                raise ValueError(f"commit {cid} has a non-integer timestamp")
            for f in c.changeset:
                validate_file_path(f)
            eq = c.merge_eq or {}
            if c.is_merge:
                if set(eq) != set(c.changeset):
                    raise ValueError(
                        f"merge {cid}: per-parent equality flags must cover "
                        "exactly the changed files"
                    )
                for f, flags in eq.items():
                    if len(flags) != len(c.parents):
                        raise ValueError(
                            f"merge {cid}: equality flags for {f!r} do not "
                            "match the parent count"
                        )
                    if flags[0]:
                        raise ValueError(
                            f"merge {cid}: {f!r} is in the changeset but "
                            "flagged equal to the first parent"
                        )
            elif eq:
                raise ValueError(f"non-merge {cid} carries equality flags")
        if len(self._topo_newest_first) != len(self.commits):
            raise ValueError("commit graph contains a cycle")

    @cached_property
    def _topo_newest_first(self) -> tuple[str, ...]:
        """All commits, children before parents, ties by descending
        (author_timestamp, id).  Deterministic."""
        pending = {cid: 0 for cid in self.commits}
        for c in self.commits.values():
            for p in c.parents:
                if p in pending:
                    pending[p] += 1
        heap = [
            (-c.author_timestamp, _desc_key(cid), cid)
            for cid, c in self.commits.items()
            if pending[cid] == 0
        ]
        heapq.heapify(heap)
        out: list[str] = []
        while heap:
            _, _, cid = heapq.heappop(heap)
            out.append(cid)
            for p in self.commits[cid].parents:
                if p in pending:
                    pending[p] -= 1
                    if pending[p] == 0:
                        c = self.commits[p]
                        heapq.heappush(
                            heap, (-c.author_timestamp, _desc_key(p), p)
                        )
        return tuple(out)

    @cached_property
    def _generation(self) -> dict[str, int]:
        """Longest distance from the roots, per commit."""
        gen: dict[str, int] = {}
        for cid in reversed(self._topo_newest_first):
            parents = [p for p in self.commits[cid].parents if p in self.commits]
            gen[cid] = 1 + max((gen[p] for p in parents), default=-1)
        return gen

    @cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        kids: dict[str, list[str]] = {cid: [] for cid in self.commits}
        for cid, c in self.commits.items():
            for p in c.parents:
                if p in kids:
                    kids[p].append(cid)
        return {cid: tuple(sorted(v)) for cid, v in kids.items()}

    @cached_property
    def _branch_commits(self) -> dict[str, frozenset[str]]:
        """Memo for ``branch_commits``; exact because the graph is immutable."""
        return {}


def _reachable(graph: CommitGraph, start: str) -> set[str]:
    """Ancestors of ``start`` including itself, boundary edges not crossed."""
    seen = {start}
    stack = [start]
    while stack:
        for p in graph.commits[stack.pop()].parents:
            if p in graph.commits and p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def ancestors_first_parent(graph: CommitGraph, start: str) -> list[str]:
    """The first-parent chain from ``start`` down to a root or boundary."""
    cur: str | None = graph.commit(start).id
    out: list[str] = []
    while cur is not None:
        out.append(cur)
        parents = graph.commits[cur].parents
        cur = parents[0] if parents and parents[0] in graph.commits else None
    return out


def ancestors_all(graph: CommitGraph, start: str) -> list[str]:
    """Every commit reachable from ``start``, each exactly once.

    Reverse-topological (children before parents), ties broken by
    descending author timestamp, then descending id.
    """
    graph.commit(start)
    reach = _reachable(graph, start)
    pending = {cid: 0 for cid in reach}
    for cid in reach:
        for p in graph.commits[cid].parents:
            if p in reach:
                pending[p] += 1
    c0 = graph.commits[start]
    heap = [(-c0.author_timestamp, _desc_key(start), start)]
    out: list[str] = []
    while heap:
        _, _, cid = heapq.heappop(heap)
        out.append(cid)
        for p in graph.commits[cid].parents:
            if p in reach:
                pending[p] -= 1
                if pending[p] == 0:
                    c = graph.commits[p]
                    heapq.heappush(heap, (-c.author_timestamp, _desc_key(p), p))
    return out


def additional_changes(graph: CommitGraph, merge: str) -> frozenset[str]:
    """Files whose merged content differs from every parent.

    These are the changes a merge introduces beyond what either side
    brought in, typically conflict resolutions.
    """
    c = graph.commit(merge)
    if not c.is_merge:
        raise ValueError(f"additional_changes requires a merge commit: {merge}")
    eq = c.merge_eq or {}
    return frozenset(f for f in c.changeset if not any(eq[f]))


def strategy_walk(
    graph: CommitGraph, start: str, strategy: Strategy
) -> list[ChangesetEntry]:
    """Changeset stream for ``strategy`` starting at ``start`` (inclusive).

    Empty changesets never produce entries.  Walk order matches the
    underlying ancestor enumeration.
    """
    if strategy is Strategy.FULL:
        order = ancestors_all(graph, start)
    else:
        order = ancestors_first_parent(graph, start)
    out: list[ChangesetEntry] = []
    for cid in order:
        c = graph.commits[cid]
        if not c.is_merge:
            files, origin = c.changeset, EntryOrigin.ORDINARY
        elif strategy is Strategy.FIRST_PARENT_MERGE:
            files, origin = c.changeset, EntryOrigin.MERGE_FULL_DIFF
        else:
            files = additional_changes(graph, cid)
            origin = EntryOrigin.MERGE_ADDITIONAL_ONLY
        if files:
            out.append(ChangesetEntry(cid, files, origin))
    return out


def merge_base(graph: CommitGraph, a: str, b: str) -> str | None:
    """Best common ancestor of ``a`` and ``b``.

    Among the maximal common ancestors the one with the greatest
    generation number (longest distance from the roots) wins; remaining
    ties go to the greatest id.  Returns None for disjoint histories.
    """
    graph.commit(a)
    graph.commit(b)
    common = _reachable(graph, a) & _reachable(graph, b)
    if not common:
        return None
    # A non-maximal common ancestor is always the parent of some other
    # common ancestor, so one parent sweep finds the maximal ones.
    covered: set[str] = set()
    for cid in common:
        for p in graph.commits[cid].parents:
            if p in common:
                covered.add(p)
    candidates = common - covered
    gen = graph._generation
    return max(candidates, key=lambda cid: (gen[cid], cid))


def branch_commits(graph: CommitGraph, merge: str) -> frozenset[str]:
    """Non-merge commits attributable to the branch joined by ``merge``.

    Walks the first-parent chain of each non-first parent back to the
    merge base, expanding inner merges recursively; merge commits
    themselves are never included.  Disjoint histories contribute
    nothing (``merge_base`` returning None is the diagnostic).
    """
    memo = graph._branch_commits
    if merge in memo:
        return memo[merge]
    top = graph.commit(merge)
    if not top.is_merge:
        raise ValueError(f"branch_commits requires a merge commit: {merge}")
    result: set[str] = set()
    expanded: set[str] = set()
    stack = [merge]
    while stack:
        mid = stack.pop()
        if mid in expanded:
            continue
        expanded.add(mid)
        mc = graph.commits[mid]
        fp = mc.parents[0]
        if fp not in graph.commits:
            continue
        stop = _reachable(graph, fp)
        for side in mc.parents[1:]:
            if side not in graph.commits:
                continue
            if merge_base(graph, fp, side) is None:
                continue
            cur: str | None = side
            while cur is not None and cur not in stop:
                c = graph.commits[cur]
                if c.is_merge:
                    stack.append(cur)
                else:
                    result.add(cur)
                parents = c.parents
                cur = (
                    parents[0]
                    if parents and parents[0] in graph.commits
                    else None
                )
    memo[merge] = frozenset(result)
    return memo[merge]


def branch_length(graph: CommitGraph, merge: str) -> int:
    """Number of non-merge commits on the branch joined by ``merge``."""
    return len(branch_commits(graph, merge))


def merge_commit_size(graph: CommitGraph, merge: str) -> int:
    """Number of files changed by ``merge`` relative to its first parent."""
    c = graph.commit(merge)
    if not c.is_merge:
        raise ValueError(f"merge_commit_size requires a merge commit: {merge}")
    return len(c.changeset)
