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
from functools import cached_property, lru_cache
from typing import Collection, Iterable, Mapping

_is_commit_id = re.compile(r"[0-9a-f]{40}").fullmatch


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
    if not isinstance(value, str) or not _is_commit_id(value):
        raise ValueError(f"not a 40-hex commit id: {value!r}")
    return value


def validate_file_path(path: str) -> str:
    """Return ``path`` if it is a sane repository-relative path."""
    if not isinstance(path, str) or not path:
        raise ValueError("file path must be a non-empty string")
    if not path.isascii():
        try:
            path.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"file path is not valid UTF-8: {path!r}") from None
    if path.startswith("/"):
        raise ValueError(f"file path must be repository-relative: {path!r}")
    parts = path.split("/")
    if any(p in ("", ".", "..") for p in parts):
        raise ValueError(f"file path contains empty or dot segments: {path!r}")
    return path


# A history names the same few paths in many commits, so ``Commit``
# checks each distinct path once.  The memo is bounded and keeps only
# paths that passed: a failing one raises again on every call.
_valid_path = lru_cache(maxsize=4096)(validate_file_path)


@dataclass(frozen=True)
class Commit:
    """One commit.  ``changeset`` is the diff against the first parent
    (all files introduced, for parentless commits).  Merge commits carry
    ``merge_eq``: for every changed file, one boolean per parent telling
    whether the file content in the merge equals that parent's content.

    Construction validates the commit and raises ValueError if it is
    malformed: ids must be 40-hex, parents distinct, the timestamp an
    int (not a bool), paths repository-relative, and the flags must
    cover exactly the changeset with one flag per parent, the first one
    False.  Non-merges carry no flags (``merge_eq`` is None).
    """

    id: str
    parents: tuple[str, ...]
    author_timestamp: int
    changeset: frozenset[str]
    merge_eq: Mapping[str, tuple[bool, ...]] | None = None

    def __post_init__(self) -> None:
        cid, ts, merge_eq = self.id, self.author_timestamp, self.merge_eq
        parents, changeset = tuple(self.parents), frozenset(self.changeset)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "changeset", changeset)
        validate_commit_id(cid)
        for p in parents:
            validate_commit_id(p)
        n = len(parents)
        if n > 1 and len(set(parents)) != n:
            raise ValueError(f"commit {cid} lists a duplicate parent")
        if not isinstance(ts, int) or isinstance(ts, bool):
            raise ValueError(f"commit {cid} has a non-integer timestamp")
        for f in changeset:
            _valid_path(f)
        if n < 2:
            if merge_eq:
                raise ValueError(f"non-merge {cid} carries equality flags")
            object.__setattr__(self, "merge_eq", None)
            return
        eq = {f: tuple(map(bool, v)) for f, v in (merge_eq or {}).items()}
        if eq.keys() != changeset:
            raise ValueError(
                f"merge {cid}: per-parent equality flags must cover "
                "exactly the changed files"
            )
        for f, flags in eq.items():
            if len(flags) != n:
                raise ValueError(
                    f"merge {cid}: equality flags for {f!r} do not "
                    "match the parent count"
                )
            if flags[0]:
                raise ValueError(
                    f"merge {cid}: {f!r} is in the changeset but "
                    "flagged equal to the first parent"
                )
        object.__setattr__(self, "merge_eq", eq)

    @classmethod
    def _checked(
        cls,
        cid: str,
        parents: tuple[str, ...],
        ts: int,
        changeset: frozenset[str],
        merge_eq: dict[str, tuple[bool, ...]] | None,
    ) -> "Commit":
        """A commit built without ``__post_init__``.  Precondition: the
        fields keep ``__post_init__``'s rules, ``parents`` is a tuple,
        ``changeset`` a frozenset and ``merge_eq`` is None for a
        non-merge, else a dict of bool tuples.  Only
        ``ingest._accept_records`` calls it."""
        commit = object.__new__(cls)
        # one item at a time: faster than update(), and the instance dict
        # keeps sharing its keys with the class's other instances
        fields = commit.__dict__
        fields["id"] = cid
        fields["parents"] = parents
        fields["author_timestamp"] = ts
        fields["changeset"] = changeset
        fields["merge_eq"] = merge_eq
        return commit

    @property
    def is_merge(self) -> bool:
        return len(self.parents) >= 2


@dataclass(frozen=True)
class ChangesetEntry:
    """One element of a strategy walk: which commit, which files, and why."""

    commit_id: str
    files: frozenset[str]
    origin: EntryOrigin


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
        by_id: dict[str, Commit] = {}
        for c in commits:
            if c.id in by_id:
                raise ValueError(f"duplicate commit {c.id}")
            by_id[c.id] = c
        return cls(by_id, head, frozenset(boundaries), label)

    @classmethod
    def _parents_first(
        cls,
        commits: dict[str, Commit],
        head: str,
        boundaries: frozenset[str],
        label: str,
    ) -> "CommitGraph":
        """A graph built without ``_validate``.  Precondition: ``commits``
        is non-empty, keyed by id and parents first: each parent is an
        earlier key or in ``boundaries``, whose valid ids are not keys.
        ``head`` is a key.  The graph keeps ``commits`` itself, and the
        reversed key order is its children-first order.  Only
        ``load_snapshot`` calls it."""
        graph = object.__new__(cls)
        graph.__dict__.update(
            commits=commits, head=head, boundaries=boundaries, label=label,
            _children_first=list(reversed(commits)),
        )
        return graph

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
        for b in sorted(self.boundaries):
            validate_commit_id(b)
        if self.boundaries & self.commits.keys():
            raise ValueError("boundary ids must not also be present commits")
        for cid, c in self.commits.items():
            if c.id != cid:
                raise ValueError(f"commit keyed as {cid} has id {c.id}")
            for p in c.parents:
                if p not in self.commits and p not in self.boundaries:
                    raise ValueError(
                        f"commit {cid} references unknown parent {p} "
                        "(not a commit, not a boundary)"
                    )
        # a commit on a cycle, or below one, never leaves the walk's heap
        if len(self._newest_first_order) != len(self.commits):
            raise ValueError("commit graph contains a cycle")
        object.__setattr__(self, "_children_first", self._newest_first_order)

    @cached_property
    def _newest_first_order(self) -> list[str]:
        """The walk of every commit from the ones no commit names as a
        parent: children first, ties by descending (author_timestamp, id).
        On a cycle it stops short of the commits the cycle holds up."""
        parented = {p for ps in self._parents.values() for p in ps}
        return _newest_first(self, [c for c in self.commits if c not in parented])[0]

    @cached_property
    def _rank(self) -> dict[str, int]:
        """Each commit's position in ascending (author_timestamp, id) order."""
        order = sorted((c.author_timestamp, c.id) for c in self.commits.values())
        return {cid: i for i, (_, cid) in enumerate(order)}

    @cached_property
    def _generation(self) -> dict[str, int]:
        """Longest distance from the roots, per commit."""
        gen: dict[str, int] = {}
        for cid in reversed(self._children_first):
            gen[cid] = 1 + max((gen[p] for p in self._parents[cid]), default=-1)
        return gen

    @cached_property
    def _parents(self) -> dict[str, tuple[str, ...]]:
        """Each commit's parents inside the graph, boundary ids dropped."""
        b = self.boundaries
        return {
            cid: c.parents if b.isdisjoint(c.parents)
            else tuple(p for p in c.parents if p not in b)
            for cid, c in self.commits.items()
        }

    @cached_property
    def _changesets(self) -> dict[frozenset[str], frozenset[str]]:
        """One object per distinct changeset the case stream pushed
        (``evaluation._ChainWalk._push``), keyed by itself."""
        return {}

    @cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        kids: dict[str, list[str]] = {cid: [] for cid in self.commits}
        for cid, c in self.commits.items():
            for p in c.parents:
                if p in kids:
                    kids[p].append(cid)
        return {cid: tuple(sorted(v)) for cid, v in kids.items()}

    @cached_property
    def _first_parent_spans(self) -> dict[str, tuple[int, int]]:
        """Each commit's (enter, last) numbers in a depth-first walk of
        the first-parent forest, where a commit hangs under its first
        parent when that parent is present.  ``m`` is on ``c``'s
        first-parent chain, ``c`` itself excluded, exactly when
        ``enter[m] < enter[c]`` and ``last[c] <= last[m]``."""
        commits, children = self.commits, self._children
        stack = [cid for cid, c in commits.items()
                 if not c.parents or c.parents[0] not in commits]
        order: list[str] = []  # preorder: every subtree is one run
        while stack:
            cid = stack.pop()
            order.append(cid)
            stack.extend(k for k in children[cid] if commits[k].parents[0] == cid)
        size = dict.fromkeys(order, 1)
        for cid in reversed(order):  # each subtree before its root
            ps = commits[cid].parents
            if ps and ps[0] in size:
                size[ps[0]] += size[cid]
        return {cid: (i, i + size[cid] - 1) for i, cid in enumerate(order)}

    @cached_property
    def _branch_table(self) -> dict[str, frozenset[str]]:
        """Every merge's ``branch_commits``, built once, parents first."""
        table: dict[str, frozenset[str]] = {}
        for cid in reversed(self._children_first):
            if self.commits[cid].is_merge:
                table[cid] = _branch_of(self, cid, table)
        return table

    @cached_property
    def _branch_owners(self) -> dict[str, frozenset[str]]:
        """Commit -> the merges whose ``_branch_table`` entry holds it."""
        owners: dict[str, set[str]] = {}
        for merge, commits in self._branch_table.items():
            for cid in commits:
                owners.setdefault(cid, set()).add(merge)
        return {cid: frozenset(ms) for cid, ms in owners.items()}


def _reachable(graph: CommitGraph, start: str) -> set[str]:
    """Ancestors of ``start`` including itself, boundary edges not crossed."""
    parents = graph._parents
    seen = {start}
    stack = [start]
    while stack:
        for p in parents[stack.pop()]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def _branch_of(
    graph: CommitGraph, merge: str, table: Mapping[str, frozenset[str]]
) -> frozenset[str]:
    """Non-merge commits on ``merge``'s side chains, each walked by first
    parents until it reaches an ancestor of the first parent.  An inner
    merge met on the way adds its finished ``table`` entry instead of
    being walked again.  A side whose history shares no commit with the
    first parent's adds nothing.

    The first parent's ancestors are marked lazily, highest generation
    first.  Generations strictly fall along parent edges, so every
    commit on a path from ``fp`` down to ``cur`` has a generation of at
    least ``gen[cur]``.  Once every marked commit of generation at least
    ``gen[cur]`` is expanded, ``cur`` is an ancestor of ``fp`` exactly
    when it is marked.  One marking serves all sides of an octopus."""
    commits, parents, gen = graph.commits, graph._parents, graph._generation
    fp, *sides = commits[merge].parents
    if fp not in commits:
        return frozenset()
    marked = {fp}
    heap = [(-gen[fp], fp)]

    def mark_down_to(floor: int) -> None:
        while heap and -heap[0][0] >= floor:
            for p in parents[heapq.heappop(heap)[1]]:
                if p not in marked:
                    marked.add(p)
                    heapq.heappush(heap, (-gen[p], p))

    result: set[str] = set()
    for side in sides:
        if side not in commits:
            continue
        chain: set[str] = set()
        cur: str | None = side
        while cur is not None:
            mark_down_to(gen[cur])
            if cur in marked:
                break
            c = commits[cur]
            if c.is_merge:
                chain |= table[cur]
            else:
                chain.add(cur)
            cur = c.parents[0] if c.parents and c.parents[0] in commits else None
        # Meeting a marked commit proves shared history; only a chain that
        # ended at a root or boundary needs the whole-ancestry test.
        if cur is None:
            mark_down_to(0)
            if marked.isdisjoint(_reachable(graph, side)):
                continue
        result |= chain
    return frozenset(result)


def _newest_first(
    graph: CommitGraph, heads: Collection[str], old: Mapping[str, int] = {}
) -> tuple[list[str], int]:
    """The walk of every ancestor of ``heads``, spliced onto ``old``.

    The walk lists children before parents, ties by descending
    (author_timestamp, id): Kahn's algorithm with a max-rank heap.
    ``old`` is the walk of a set of ancestors closed under parents, as
    commit -> position, oldest at 0.  No head is in ``old`` or an
    ancestor of another head.  Returns the first commits of the walk and
    the ``k`` such that the rest of it is ``old`` without its ``k``
    newest commits.  With ``old`` empty that is the whole walk and ``k``
    is 0.

    The heap always holds the commits of the remaining set that have no
    child in it, so the rest of a walk depends only on the remaining set.
    Once every commit missing from ``old`` is out and the old commits out
    are its ``k`` newest, both remaining sets are equal.  Only a cycle
    empties the heap early; the walk then ends with the commits out.
    """
    parents, rank = graph._parents, graph._rank
    pending: dict[str, int] = {}  # each commit's children not yet out
    stack = list(heads)
    left = len(stack)  # new commits not yet out
    while stack:
        for p in parents[stack.pop()]:
            if p in pending:
                pending[p] += 1
            elif p in old:
                pending[p] = 1 + sum(ch in old for ch in graph._children[p])
            else:
                pending[p] = 1
                left += 1
                stack.append(p)
    heap = [(-rank[h], h) for h in heads]
    heapq.heapify(heap)
    size, k, lowest = len(old), 0, len(old)
    out: list[str] = []
    while heap and (left or lowest < size - k):
        cid = heapq.heappop(heap)[1]
        out.append(cid)
        if cid in old:
            k += 1
            lowest = min(lowest, old[cid])
        else:
            left -= 1
        for p in parents[cid]:
            n = pending.get(p)
            if n is None:  # an old commit with no new child
                n = sum(ch in old for ch in graph._children[p])
            pending[p] = n - 1
            if n == 1:
                heapq.heappush(heap, (-rank[p], p))
    return out, k


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
    return _newest_first(graph, [start])[0]


def _merge_commit(graph: CommitGraph, merge: str, caller: str) -> Commit:
    """The commit ``merge``; ValueError naming ``caller`` if not a merge."""
    c = graph.commit(merge)
    if not c.is_merge:
        raise ValueError(f"{caller} requires a merge commit: {merge}")
    return c


def additional_changes(graph: CommitGraph, merge: str) -> frozenset[str]:
    """Files whose merged content differs from every parent.

    These are the changes a merge introduces beyond what either side
    brought in, typically conflict resolutions.
    """
    c = _merge_commit(graph, merge, "additional_changes")
    return frozenset(f for f in c.changeset if not any(c.merge_eq[f]))


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
    entries = (_entry(graph, cid, strategy) for cid in order)
    return [e for e in entries if e is not None]


def _entry_files(graph: CommitGraph, cid: str,
                 strategy: Strategy) -> tuple[frozenset[str], EntryOrigin]:
    """The files ``cid`` contributes under ``strategy``, empty when it
    contributes nothing, and why it contributes them."""
    c = graph.commits[cid]
    if not c.is_merge:
        return c.changeset, EntryOrigin.ORDINARY
    if strategy is Strategy.FIRST_PARENT_MERGE:
        return c.changeset, EntryOrigin.MERGE_FULL_DIFF
    return additional_changes(graph, cid), EntryOrigin.MERGE_ADDITIONAL_ONLY


def _entry(
    graph: CommitGraph, cid: str, strategy: Strategy
) -> ChangesetEntry | None:
    """``cid``'s entry under ``strategy``; None when it contributes nothing."""
    files, origin = _entry_files(graph, cid, strategy)
    return ChangesetEntry(cid, files, origin) if files else None


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

    Walks the first-parent chain of each non-first parent until it
    reaches an ancestor of the first parent, taking in the branch
    commits of every inner merge on the way; merge commits themselves
    are never included.  Disjoint histories contribute nothing.  The
    first call on a graph builds the table for every merge.
    """
    _merge_commit(graph, merge, "branch_commits")
    return graph._branch_table[merge]


def branch_length(graph: CommitGraph, merge: str) -> int:
    """Number of non-merge commits on the branch joined by ``merge``."""
    return len(branch_commits(graph, merge))


def merge_commit_size(graph: CommitGraph, merge: str) -> int:
    """Number of files changed by ``merge`` relative to its first parent."""
    return len(_merge_commit(graph, merge, "merge_commit_size").changeset)
