"""Reading git repositories and persisting history snapshots.

A snapshot is a line-oriented JSON file: one header line, then one line
per commit, parents always before children.  Snapshots are byte
deterministic for a given graph, so they can be diffed and hashed.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

from .history import Commit, CommitGraph, validate_commit_id, validate_file_path

FORMAT_VERSION = 1


class SnapshotError(ValueError):
    """A snapshot file failed validation.  ``line`` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class IngestError(RuntimeError):
    """Reading a git repository failed."""


def save_snapshot(graph: CommitGraph, path: str | Path) -> None:
    """Write ``graph`` to ``path``; topological order, stable key order."""
    lines = [
        json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "repo_label": graph.label,
                "head": graph.head,
                "boundaries": sorted(graph.boundaries),
            },
            separators=(",", ":"),
        )
    ]
    for cid in reversed(graph._topo_newest_first):
        c = graph.commits[cid]
        lines.append(
            json.dumps(
                {
                    "id": c.id,
                    "parents": list(c.parents),
                    "ts": c.author_timestamp,
                    "files": sorted(c.changeset),
                    "merge_eq": {
                        f: list(c.merge_eq[f]) for f in sorted(c.merge_eq or {})
                    },
                },
                separators=(",", ":"),
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _snapshot_json(raw: str, line_no: int) -> dict:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"invalid JSON ({exc.msg})", line_no) from None
    if not isinstance(value, dict):
        raise SnapshotError("expected a JSON object", line_no)
    return value


def _list_of(kind: type, value, what: str, line_no: int) -> list:
    if not isinstance(value, list) or not all(isinstance(v, kind) for v in value):
        raise SnapshotError(f"{what} must be a list of {kind.__name__}", line_no)
    return value


def load_snapshot(path: str | Path) -> CommitGraph:
    """Parse and fully validate a snapshot file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot: {exc}") from None
    lines = text.splitlines()
    if not lines:
        raise SnapshotError("snapshot is empty", 1)
    header = _snapshot_json(lines[0], 1)
    for key in ("format_version", "repo_label", "head", "boundaries"):
        if key not in header:
            raise SnapshotError(f"header is missing {key!r}", 1)
    if header["format_version"] != FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported format_version {header['format_version']!r}, "
            f"expected {FORMAT_VERSION}",
            1,
        )
    if not isinstance(header["head"], str):
        raise SnapshotError("head must be a string", 1)
    boundaries = frozenset(_list_of(str, header["boundaries"], "boundaries", 1))
    commits: dict[str, Commit] = {}
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            raise SnapshotError("blank line inside snapshot", line_no)
        rec = _snapshot_json(raw, line_no)
        for key in ("id", "parents", "ts", "files"):
            if key not in rec:
                raise SnapshotError(f"record is missing {key!r}", line_no)
        try:
            cid = validate_commit_id(rec["id"])
        except ValueError as exc:
            raise SnapshotError(str(exc), line_no) from None
        if cid in commits:
            raise SnapshotError(f"duplicate commit {cid}", line_no)
        parents = _list_of(str, rec["parents"], f"commit {cid}: parents", line_no)
        files = _list_of(str, rec["files"], f"commit {cid}: files", line_no)
        for p in parents:
            if p not in commits and p not in boundaries:
                raise SnapshotError(
                    f"commit {cid} references parent {p} that neither "
                    "appeared earlier nor is a boundary",
                    line_no,
                )
        if not isinstance(rec["ts"], int) or isinstance(rec["ts"], bool):
            raise SnapshotError(f"commit {cid} has a non-integer ts", line_no)
        merge_eq = rec.get("merge_eq") or {}
        if not isinstance(merge_eq, dict):
            raise SnapshotError(f"commit {cid}: merge_eq must be an object", line_no)
        for f, flags in merge_eq.items():
            _list_of(bool, flags, f"commit {cid}: merge_eq[{f!r}]", line_no)
        try:
            commit = Commit(
                id=cid,
                parents=tuple(parents),
                author_timestamp=rec["ts"],
                changeset=frozenset(files),
                merge_eq=(
                    {f: tuple(v) for f, v in merge_eq.items()}
                    if len(parents) >= 2
                    else None
                ),
            )
            for f in commit.changeset:
                validate_file_path(f)
            if len(parents) < 2 and merge_eq:
                raise ValueError("non-merge record carries merge_eq entries")
        except ValueError as exc:
            raise SnapshotError(str(exc), line_no) from None
        commits[cid] = commit
    if not commits:
        raise SnapshotError("snapshot contains no commits", 1)
    head = header["head"]
    if head not in commits:
        raise SnapshotError(f"head {head} is not among the commits", 1)
    try:
        return CommitGraph(commits, head, boundaries, str(header["repo_label"]))
    except ValueError as exc:
        raise SnapshotError(str(exc)) from None


def _git(repo: Path, *args: str) -> str:
    cmd = ["git", "-C", str(repo), "-c", "core.quotePath=false", *args]
    try:
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            encoding="utf-8",
            errors="surrogateescape",
            check=False,
        )
    except FileNotFoundError:
        raise IngestError("git executable not found") from None
    if proc.returncode != 0:
        raise IngestError(
            f"git {' '.join(args[:2])} failed: {proc.stderr.strip()}"
        )
    return proc.stdout


def _changed_files_blocks(repo: Path, head: str) -> dict[str, list[str]]:
    """Changed files per commit from one log pass.

    Merge commits list nothing here (their diffs are computed per
    parent); parentless commits list every file they introduced.
    """
    out = _git(
        repo,
        "log",
        "--pretty=format:%x01%H",
        "--name-only",
        "--no-renames",
        head,
    )
    blocks: dict[str, list[str]] = {}
    for chunk in out.split("\x01"):
        if not chunk.strip():
            continue
        head_line, _, rest = chunk.partition("\n")
        files = [ln for ln in rest.splitlines() if ln]
        blocks[head_line.strip()] = files
    return blocks


def _shallow_parents(repo: Path, commit: str) -> list[str]:
    """True parent ids of a commit whose parents git log hides."""
    body = _git(repo, "cat-file", "commit", commit)
    parents = []
    for line in body.splitlines():
        if line.startswith("parent "):
            parents.append(line.split()[1])
        elif not line:
            break
    return parents


def ingest_repository(
    path: str | Path, head_ref: str = "HEAD", label: str | None = None
) -> CommitGraph:
    """Read every commit reachable from ``head_ref`` into a CommitGraph.

    Merge diffs are taken against the first parent; per-parent equality
    flags are computed with one diff per parent.  In shallow clones the
    hidden parents are recovered from the raw commit objects and flagged
    as boundaries; a commit whose first parent lies beyond the boundary
    keeps its full-tree file list, and files are treated as differing
    from parents that cannot be diffed.
    """
    repo = Path(path)
    if not repo.exists():
        raise IngestError(f"repository path does not exist: {repo}")
    head = _git(repo, "rev-parse", "--verify", f"{head_ref}^{{commit}}").strip()
    meta = _git(repo, "log", "--pretty=format:%H %P %at", head)
    parents_of: dict[str, list[str]] = {}
    ts_of: dict[str, int] = {}
    order: list[str] = []
    for line in meta.splitlines():
        parts = line.split()
        cid, ts = parts[0], int(parts[-1])
        parents_of[cid] = parts[1:-1]
        ts_of[cid] = ts
        order.append(cid)

    shallow = _git(repo, "rev-parse", "--is-shallow-repository").strip() == "true"
    if shallow:
        shallow_file = Path(
            _git(repo, "rev-parse", "--git-path", "shallow").strip()
        )
        if not shallow_file.is_absolute():
            shallow_file = repo / shallow_file
        if shallow_file.exists():
            for cid in shallow_file.read_text().split():
                if cid in parents_of and not parents_of[cid]:
                    parents_of[cid] = _shallow_parents(repo, cid)

    files_of = _changed_files_blocks(repo, head)
    commits: dict[str, Commit] = {}
    boundaries: set[str] = set()
    for cid in order:
        parents = parents_of[cid]
        for p in parents:
            if p not in parents_of:
                boundaries.add(p)
        try:
            if len(parents) >= 2:
                diffs: list[set[str]] = []
                for p in parents:
                    if p in parents_of:
                        out = _git(
                            repo,
                            "diff-tree",
                            "-r",
                            "--no-renames",
                            "--name-only",
                            p,
                            cid,
                        )
                        diffs.append({ln for ln in out.splitlines() if ln})
                    else:
                        diffs.append(set())  # can't diff beyond the boundary
                if parents[0] in parents_of:
                    changeset = diffs[0]
                else:
                    changeset = set(files_of.get(cid, []))
                merge_eq = {
                    f: tuple(
                        f not in diffs[i] if parents[i] in parents_of else False
                        for i in range(len(parents))
                    )
                    for f in changeset
                }
            else:
                changeset = set(files_of.get(cid, []))
                merge_eq = None
            commits[cid] = Commit(
                id=cid,
                parents=tuple(parents),
                author_timestamp=ts_of[cid],
                changeset=frozenset(changeset),
                merge_eq=merge_eq,
            )
        except ValueError as exc:
            raise IngestError(f"commit {cid}: {exc}") from None
    if label is None:
        label = repo.resolve().name
    try:
        return CommitGraph(commits, head, frozenset(boundaries), label)
    except ValueError as exc:
        raise IngestError(str(exc)) from None
