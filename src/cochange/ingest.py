"""Reading git repositories and persisting history snapshots.

A snapshot is a line-oriented JSON file: one header line, then one line
per commit, parents always before children.  Only a newline (``\\n``)
ends a line, and each line holds one JSON object.  Snapshots are byte
deterministic for a given graph, so they can be diffed and hashed.
"""

from __future__ import annotations

import json
import json.scanner
import subprocess
from itertools import chain, compress, count, repeat
from operator import eq, gt, itemgetter, methodcaller, not_
from pathlib import Path

from .history import Commit, CommitGraph, _check_commit, _valid_path, validate_commit_id

FORMAT_VERSION = 1


class SnapshotError(ValueError):
    """A snapshot file failed validation.  ``line`` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class IngestError(RuntimeError):
    """Reading a git repository failed."""


# ``json.dumps`` with separators builds a new encoder on every call.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def save_snapshot(graph: CommitGraph, path: str | Path) -> None:
    """Write ``graph`` to ``path``; topological order, stable key order."""
    lines = [
        _encode({
            "format_version": FORMAT_VERSION,
            "repo_label": graph.label,
            "head": graph.head,
            "boundaries": sorted(graph.boundaries),
        })
    ]
    for cid in reversed(graph._newest_first_order):
        c = graph.commits[cid]
        lines.append(_encode({
            "id": c.id,
            "parents": list(c.parents),
            "ts": c.author_timestamp,
            "files": sorted(c.changeset),
            "merge_eq": {f: list(c.merge_eq[f]) for f in sorted(c.merge_eq or {})},
        }))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# The C scanner behind ``json.loads``, without its whitespace skipping
# and end-of-input check: one call parses one record line.
_scan_once = json.scanner.make_scanner(json.JSONDecoder())


def _snapshot_json(raw: str, line_no: int) -> dict:
    try:
        value, end = _scan_once(raw, 0)
        if end == len(raw) and type(value) is dict:
            return value
    except (StopIteration, ValueError, RecursionError):
        pass
    # whitespace around the value, extra data, invalid JSON or not an
    # object: json.loads accepts the line or gives the message
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"invalid JSON ({exc.msg})", line_no) from None
    except (ValueError, RecursionError) as exc:  # over-long int, deep nesting
        raise SnapshotError(f"invalid JSON ({exc})", line_no) from None
    if not isinstance(value, dict):
        raise SnapshotError("expected a JSON object", line_no)
    return value


def _is_list_of(kind: type, value) -> bool:
    # a plain loop: on a record's lists of one to three items it is
    # about three times faster than all(map(isinstance, ...))
    if not isinstance(value, list):
        return False
    for v in value:
        if not isinstance(v, kind):
            return False
    return True


def _list_of(kind: type, value, what: str, line_no: int) -> list:
    if not _is_list_of(kind, value):
        raise SnapshotError(f"{what} must be a list of {kind.__name__}", line_no)
    return value


def load_snapshot(path: str | Path) -> CommitGraph:
    """Parse and fully validate a snapshot file.

    The records are checked in two passes.  ``_accept_records`` checks
    every rule a column at a time and builds the commits of a
    well-formed file; on any broken rule it gives up, and
    ``_check_records`` checks the records one line at a time and raises
    the ``SnapshotError`` that names the first broken line.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotError(
            f"not valid UTF-8 ({exc.reason})", data.count(b"\n", 0, exc.start) + 1
        ) from None
    lines = text.split("\n")
    if not lines[-1]:  # the final newline ends the last line
        lines.pop()
    if not lines:
        raise SnapshotError("snapshot is empty", 1)
    header = _snapshot_json(lines[0], 1)
    for key in ("format_version", "repo_label", "head", "boundaries"):
        if key not in header:
            raise SnapshotError(f"header is missing {key!r}", 1)
    version = header["format_version"]
    if type(version) is not int or version != FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported format_version {version!r}, expected {FORMAT_VERSION}", 1
        )
    for key in ("head", "repo_label"):
        if not isinstance(header[key], str):
            raise SnapshotError(f"{key} must be a string", 1)
    boundaries = frozenset(_list_of(str, header["boundaries"], "boundaries", 1))
    for b in sorted(boundaries):
        try:
            validate_commit_id(b)
        except ValueError as exc:
            raise SnapshotError(f"boundaries: {exc}", 1) from None
    records = lines[1:]
    commits = _accept_records(records, boundaries)
    if commits is None:
        commits = _check_records(records, boundaries)
    if not commits:
        raise SnapshotError("snapshot contains no commits", 1)
    head = header["head"]
    if head not in commits:
        raise SnapshotError(f"head {head} is not among the commits", 1)
    # every record passed the checks and every parent came earlier or
    # is a boundary: the graph needs no second validation
    return CommitGraph._parents_first(commits, head, boundaries, header["repo_label"])


# ``str.translate`` drops every character of a commit id; with every id
# 40 characters long, nothing left over means each one matches
# ``validate_commit_id``'s pattern.
_drop_id_chars = dict.fromkeys(map(ord, "0123456789abcdef"))
_record_merge_eq = methodcaller("get", "merge_eq", {})
# Record lines scanned at a time.  A chunk's parsed lines are freed
# before the next is scanned, so fewer of them outlive a collection of
# the young generation and the full collections stay rare: on a
# 12,800-commit snapshot (Python 3.11, 2 vCPUs), chunks of 1024 lines
# made the load 20% slower than chunks of 512, and one chunk of every
# line 50% slower.
_CHUNK = 512


def _accept_records(
    lines: list[str], boundaries: frozenset[str]
) -> dict[str, Commit] | None:
    """The commits of the record lines, keyed by id in file order, or
    None when any line breaks a rule that ``_check_records`` enforces.

    Each rule is checked over a whole column (every id, every timestamp,
    every distinct path, every merge's flags) by set, map and zip
    operations, with no Python loop over the records: the rules of one
    record by ``_accept_chunk``, then those between records here.
    Whenever this returns commits, ``_check_records`` returns an equal
    dict for the same lines.
    """
    ids, parents, stamps, files, merge_eqs = columns = [], [], [], [], []
    for start in range(0, len(lines), _CHUNK):
        chunk = _accept_chunk(lines[start:start + _CHUNK])
        if chunk is None:
            return None
        for column, part in zip(columns, chunk):
            column += part
    # Every parent is an earlier record or a boundary: a boundary sits
    # before every record, an unknown parent after all of them.
    n = len(ids)
    pos = dict.fromkeys(boundaries, -1)
    pos.update(zip(ids, count()))
    if not n or len(pos) != len(boundaries) + n or not all(map(
        gt,
        chain.from_iterable(map(repeat, count(), map(len, parents))),
        map(pos.get, chain.from_iterable(parents), repeat(n)),
    )):
        return None
    return dict(zip(ids, map(Commit._checked, ids, parents, stamps, files, merge_eqs)))


def _accept_chunk(lines: list[str]) -> tuple | None:
    """The columns of some record lines (ids, parent tuples, timestamps,
    changesets and stored flags) when each record keeps the rules of one
    record, else None.  Types are checked before any value is hashed."""
    try:
        # value, end, value, end, ...: each scanner pair dies at once
        scanned = tuple(chain.from_iterable(map(_scan_once, lines, repeat(0))))
    except (StopIteration, ValueError, RecursionError):
        return None
    values = scanned[::2]
    if scanned[1::2] != tuple(map(len, lines)) or set(map(type, values)) != {dict}:
        return None
    try:
        ids, parents, stamps, files = (
            tuple(map(itemgetter(key), values))
            for key in ("id", "parents", "ts", "files")
        )
    except KeyError:
        return None
    merge_eqs = tuple(map(_record_merge_eq, values))
    # the record dicts go now: fewer objects alive, fewer collections
    del scanned, values
    if (
        set(map(type, ids)) != {str}
        or set(map(len, ids)) != {40}
        or "".join(ids).translate(_drop_id_chars)
        or set(map(type, stamps)) != {int}  # a bool's type is bool
        or set(map(type, parents)) != {list}
        or set(map(type, files)) != {list}
        or set(map(type, merge_eqs)) != {dict}
        or not {str}.issuperset(map(type, chain.from_iterable(parents)))
        or not {str}.issuperset(map(type, chain.from_iterable(files)))
    ):
        return None
    parents = tuple(map(tuple, parents))
    files = tuple(map(frozenset, files))
    try:
        for f in frozenset().union(*files):
            _valid_path(f)
    except ValueError:
        return None
    # A non-merge carries no flags.  A merge's parents are distinct and
    # its flags cover exactly its changeset, each list one bool per
    # parent, the first False.
    n_parents = tuple(map(len, parents))
    is_merge = tuple(map((1).__lt__, n_parents))
    if any(compress(merge_eqs, map(not_, is_merge))):
        return None
    n_merge_parents = tuple(compress(n_parents, is_merge))
    merge_flags = tuple(compress(merge_eqs, is_merge))
    flags = tuple(chain.from_iterable(map(dict.values, merge_flags)))
    if (
        tuple(map(len, map(set, compress(parents, is_merge)))) != n_merge_parents
        or not all(map(eq, map(dict.keys, merge_flags), compress(files, is_merge)))
        or not {list}.issuperset(map(type, flags))
        or tuple(map(len, flags)) != tuple(chain.from_iterable(
            map(repeat, n_merge_parents, map(len, merge_flags))
        ))
        or not {bool}.issuperset(map(type, chain.from_iterable(flags)))
        or any(map(itemgetter(0), flags))
    ):
        return None
    stored: list[dict[str, tuple[bool, ...]] | None] = [None] * len(ids)
    for i, eq_flags in zip(compress(count(), is_merge), merge_flags):
        stored[i] = dict(zip(eq_flags, map(tuple, eq_flags.values())))
    return ids, parents, stamps, files, stored


def _check_records(lines: list[str], boundaries: frozenset[str]) -> dict[str, Commit]:
    """The commits of the record lines, checked one line at a time;
    raises the ``SnapshotError`` that names the first broken line."""
    commits: dict[str, Commit] = {}
    for line_no, raw in enumerate(lines, start=2):
        if not raw.strip():
            raise SnapshotError("blank line inside snapshot", line_no)
        rec = _snapshot_json(raw, line_no)
        for key in ("id", "parents", "ts", "files"):
            if key not in rec:
                raise SnapshotError(f"record is missing {key!r}", line_no)
        parents = _list_of(str, rec["parents"], "parents", line_no)
        files = _list_of(str, rec["files"], "files", line_no)
        merge_eq = rec.get("merge_eq", {})
        if not isinstance(merge_eq, dict):
            raise SnapshotError("merge_eq must be an object", line_no)
        for f, flags in merge_eq.items():
            if not _is_list_of(bool, flags):
                raise SnapshotError(f"merge_eq[{f!r}] must be a list of bool", line_no)
        cid, parents, ts, files = rec["id"], tuple(parents), rec["ts"], frozenset(files)
        try:
            merge_eq = _check_commit(cid, parents, ts, files, merge_eq, commits)
        except ValueError as exc:
            raise SnapshotError(str(exc), line_no) from None
        if cid in commits:
            raise SnapshotError(f"duplicate commit {cid}", line_no)
        if cid in boundaries:
            raise SnapshotError(f"commit {cid} is also a boundary", line_no)
        for p in parents:
            if p not in commits and p not in boundaries:
                raise SnapshotError(
                    f"commit {cid} references parent {p} that neither "
                    "appeared earlier nor is a boundary",
                    line_no,
                )
        commits[cid] = Commit._checked(cid, parents, ts, files, merge_eq)
    return commits


def _git(repo: Path, *args: str, stdin: str | None = None) -> str:
    cmd = ["git", "-C", str(repo), "-c", "core.quotePath=false", *args]
    try:
        proc = subprocess.run(
            cmd,
            input=stdin,
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


def _blocks(out: str) -> list[tuple[str, set[str]]]:
    """Split ``%x01``-headed git output into (header, file names) blocks.

    git C-quotes control characters in paths, so a path is one line and
    never holds ``\x01``.  Lines end at ``\n`` only: git prints U+2028,
    U+2029 and U+0085 raw, and they belong to the path.
    """
    blocks = []
    for chunk in out.split("\x01")[1:]:
        header, _, rest = chunk.partition("\n")
        blocks.append((header.strip(), {ln for ln in rest.split("\n") if ln}))
    return blocks


def _parent_diffs(
    repo: Path, pairs: list[tuple[str, str]]
) -> dict[tuple[str, str], set[str]]:
    """Files differing between each (commit, parent) pair, in one call.

    ``diff-tree --stdin --always`` answers each input line with one block
    in order, even for an empty diff; blocks that do not line up with
    the pairs are an error, never silently misattributed.
    """
    if not pairs:
        return {}
    out = _git(
        repo, "diff-tree", "--stdin", "--always", "-r", "--no-renames",
        "--name-only", "--pretty=format:%x01%H",
        stdin="".join(f"{cid} {p}\n" for cid, p in pairs),
    )
    blocks = _blocks(out)
    if [header for header, _ in blocks] != [cid for cid, _ in pairs]:
        raise IngestError(
            f"git diff-tree gave {len(blocks)} blocks for {len(pairs)} parent diffs"
        )
    return {pair: files for pair, (_, files) in zip(pairs, blocks)}


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

    One ``git log`` pass gives every commit's parents, timestamp and
    changeset (a merge's diff against its first parent); one batched
    ``git diff-tree`` gives each merge's diff against its other parents,
    from which the per-parent equality flags follow.  In shallow clones
    the hidden parents are recovered from the raw commit objects and
    flagged as boundaries; a commit whose first parent lies beyond the
    boundary keeps its full-tree file list, and files are treated as
    differing from parents that cannot be diffed.
    """
    repo = Path(path)
    if not repo.exists():
        raise IngestError(f"repository path does not exist: {repo}")
    # git prints the --git-path line first and the verified id last
    shallow, _, head = _git(repo, "rev-parse", "--verify", f"{head_ref}^{{commit}}",
                            "--git-path", "shallow").rstrip("\n").rpartition("\n")
    log = _git(
        repo, "log", "--diff-merges=first-parent", "--no-renames",
        "--name-only", "--pretty=format:%x01%H %P %at", head,
    )
    parents_of: dict[str, list[str]] = {}
    ts_of: dict[str, int] = {}
    files_of: dict[str, set[str]] = {}
    for header, files in _blocks(log):
        cid, *parents, ts = header.split()
        parents_of[cid] = parents
        ts_of[cid] = int(ts)
        files_of[cid] = files

    # Commits whose parents the shallow clone hides; git log listed their
    # full tree as if they were roots.
    clipped: set[str] = set()
    shallow_file = repo / shallow  # git gives it relative to repo, or absolute
    if shallow_file.exists():
        for cid in shallow_file.read_text().split():
            if cid in parents_of and not parents_of[cid]:
                parents_of[cid] = _shallow_parents(repo, cid)
                clipped.add(cid)

    # Every parent of a merge that can be diffed, except a first parent
    # whose diff git log already gave.
    diffs = _parent_diffs(
        repo,
        [
            (cid, p)
            for cid, parents in parents_of.items()
            if len(parents) >= 2
            for i, p in enumerate(parents)
            if p in parents_of and (i > 0 or cid in clipped)
        ],
    )
    commits: dict[str, Commit] = {}
    boundaries: set[str] = set()
    for cid, parents in parents_of.items():
        boundaries.update(p for p in parents if p not in parents_of)
        changeset = files_of[cid]
        merge_eq = None
        if len(parents) >= 2:
            if (cid, parents[0]) in diffs:
                changeset = diffs[cid, parents[0]]
            # the first flag is False by definition: a file in the
            # changeset differs from the first parent
            merge_eq = {
                f: (False,) + tuple(
                    (cid, p) in diffs and f not in diffs[cid, p] for p in parents[1:]
                )
                for f in changeset
            }
        try:
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
