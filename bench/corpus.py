"""Seeded commit histories for the benchmark, generated in strata.

History is a sequence of blocks.  Each block touches every module exactly
once, in a seeded order, and turns the same number of those events into
branches whose lengths cycle through a fixed list.  A seed changes commit
ids, timestamps, file choice and order, but every stretch of history mixes
the same kinds of change, so the work a history costs varies little from
seed to seed.  (``tests/synthgen.generic_graph`` draws module and branch
shape independently per commit; its ``evaluate`` cost spans an order of
magnitude across seeds, too wide for a regression bound.)

Three file names carry a double quote, a tab or a backslash, characters
git C-quotes in its path output.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from cochange import Commit, CommitGraph

_AWKWARD = ('"', "\t", "\\")

# (starts with the module's coupled pair, number of extra module files)
_KINDS = ((True, 0), (True, 0), (True, 1), (True, 1), (True, 2),
          (False, 0), (False, 1), (False, 2))


@dataclass(frozen=True)
class Shape:
    """How a generated history looks.

    ``branches_per_block`` of every ``n_modules`` events become a branch
    of ``branch_lengths[i % len]`` commits plus its merge; the rest are
    single mainline commits.  Every third merge also gives one file of
    another module content that neither parent has (a conflict
    resolution).
    """

    n_commits: int
    n_modules: int = 8
    module_files: int = 4
    branches_per_block: int = 2
    branch_lengths: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    max_files: int = 4


@dataclass(frozen=True)
class GenCommit:
    """One generated commit; parents are indices into the history."""

    parents: tuple[int, ...]
    timestamp: int
    changeset: frozenset[str]
    conflict: frozenset[str] = frozenset()


def file_name(module: int, index: int, module_files: int) -> str:
    """Path of a module file; the last file of modules 1, 2 and 3 carries
    a double quote, a tab and a backslash respectively."""
    if index == module_files - 1 and 1 <= module <= len(_AWKWARD):
        return f"m{module}/x{_AWKWARD[module - 1]}{index}.py"
    return f"m{module}/f{index}.py"


def generate(seed: int, shape: Shape) -> list[GenCommit]:
    """Commits oldest first; each branch forks at the tip and merges back."""
    rng = random.Random(seed)
    out: list[GenCommit] = []
    ts = 1_600_000_000
    n_merges = 0
    n_branches = 0

    def tick() -> int:
        nonlocal ts
        ts += rng.choice((0, 60, 60, 120))
        return ts

    deck: list[tuple[bool, int]] = []

    def changeset(module: int) -> frozenset[str]:
        # Changeset kinds are dealt from a shuffled deck, so every eight
        # commits carry the same mix of sizes whatever the seed.
        if not deck:
            deck.extend(_KINDS)
            rng.shuffle(deck)
        pair, extra = deck.pop()
        names = [file_name(module, j, shape.module_files)
                 for j in range(shape.module_files)]
        files = names[:2] if pair else [rng.choice(names[2:])]
        others = [n for n in names if n not in files]
        files += rng.sample(others, min(extra, len(others), shape.max_files - len(files)))
        return frozenset(files)

    out.append(GenCommit((), tick(), changeset(0)))
    tip = 0
    while len(out) < shape.n_commits:
        modules = list(range(shape.n_modules))
        rng.shuffle(modules)
        branching = set(rng.sample(range(shape.n_modules), shape.branches_per_block))
        for slot, module in enumerate(modules):
            room = shape.n_commits - len(out)
            if room <= 0:
                break
            if slot not in branching or room < 2:
                out.append(GenCommit((tip,), tick(), changeset(module)))
                tip = len(out) - 1
                continue
            length = shape.branch_lengths[n_branches % len(shape.branch_lengths)]
            n_branches += 1
            length = min(length, room - 1)
            btip = tip
            union: set[str] = set()
            for _ in range(length):
                files = changeset(module)
                union |= files
                out.append(GenCommit((btip,), tick(), files))
                btip = len(out) - 1
            conflict: frozenset[str] = frozenset()
            if n_merges % 3 == 2:
                other = (module + 1) % shape.n_modules
                conflict = frozenset(
                    {file_name(other, rng.randrange(shape.module_files),
                               shape.module_files)}
                )
            n_merges += 1
            out.append(GenCommit((tip, btip), tick(), frozenset(union) | conflict,
                                 conflict))
            tip = len(out) - 1
    return out


def _commit_id(seed: int, index: int) -> str:
    return hashlib.sha1(f"bench{seed}-{index}".encode()).hexdigest()


def to_graph(seed: int, history: list[GenCommit], label: str = "bench") -> CommitGraph:
    """The CommitGraph ``cochange ingest`` would build from this history."""
    ids = [_commit_id(seed, i) for i in range(len(history))]
    commits = []
    for i, c in enumerate(history):
        merge_eq = None
        if len(c.parents) >= 2:
            merge_eq = {f: (False, f not in c.conflict) for f in c.changeset}
        commits.append(Commit(ids[i], tuple(ids[p] for p in c.parents),
                              c.timestamp, c.changeset, merge_eq))
    return CommitGraph.from_commits(commits, head=ids[-1], label=label)


def _fast_import_path(path: str) -> str:
    if not any(ch in path for ch in '"\\\t\n'):
        return path
    escaped = (path.replace("\\", "\\\\").replace('"', '\\"')
               .replace("\t", "\\t").replace("\n", "\\n"))
    return f'"{escaped}"'


def write_fast_import(history: list[GenCommit], path: Path) -> None:
    """A ``git fast-import`` stream for ``history``; commit i gets mark i+1.

    Every write stores content unique to the writing commit, so a
    commit's diff against its first parent is exactly its changeset, and
    a merge takes each branch file from the branch tip.
    """
    last_write: list[dict[str, int]] = []  # per commit: path -> writer index
    chunks: list[str] = []
    for i, c in enumerate(history):
        if len(c.parents) < 2:
            writes = {f: i for f in c.changeset}
            tree = dict(last_write[c.parents[0]]) if c.parents else {}
        else:
            branch_tree = last_write[c.parents[1]]
            writes = {f: (i if f in c.conflict else branch_tree[f])
                      for f in c.changeset}
            tree = dict(last_write[c.parents[0]])
        tree.update(writes)
        last_write.append(tree)
        who = f"bench <bench@example.com> {c.timestamp} +0000"
        message = f"commit {i}\n"
        lines = [
            "commit refs/heads/main",
            f"mark :{i + 1}",
            f"author {who}",
            f"committer {who}",
            f"data {len(message.encode())}",
            message.rstrip("\n"),
        ]
        if c.parents:
            lines.append(f"from :{c.parents[0] + 1}")
        for p in c.parents[1:]:
            lines.append(f"merge :{p + 1}")
        for f in sorted(writes):
            content = f"{writes[f]} {f}\n"
            lines.append(f"M 100644 inline {_fast_import_path(f)}")
            lines.append(f"data {len(content.encode())}")
            lines.append(content.rstrip("\n"))
        chunks.append("\n".join(lines) + "\n")
    path.write_bytes("".join(chunks).encode("utf-8"))
