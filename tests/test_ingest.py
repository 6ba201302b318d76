import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cochange import (
    Commit,
    CommitGraph,
    IngestError,
    SnapshotError,
    additional_changes,
    branch_commits,
    ingest_repository,
    load_snapshot,
    save_snapshot,
)

import cochange.ingest as ingest_mod
from cochange.cli import main
from cochange.history import validate_commit_id
from conftest import GitSandbox, build_graph, hid, mk_commit, random_dags, run_git
from synthgen import generic_graph


def lines_of(graph, tmp_path):
    p = tmp_path / "snap.jsonl"
    save_snapshot(graph, p)
    return p.read_text().splitlines()


def write_lines(tmp_path, lines):
    p = tmp_path / "mutated.jsonl"
    p.write_text("\n".join(lines) + "\n")
    return p


class TestIngestLinear:
    def test_linear_history(self, git_sandbox):
        s = git_sandbox
        c1 = s.commit("one", {"a.txt": "1", "b.txt": "1"})
        c2 = s.commit("two", {"a.txt": "2"})
        g = ingest_repository(s.path)
        assert g.head == c2
        assert set(g.commits) == {c1, c2}
        assert g.commits[c1].parents == ()
        assert g.commits[c2].parents == (c1,)
        assert g.commits[c1].changeset == {"a.txt", "b.txt"}
        assert g.commits[c2].changeset == {"a.txt"}
        assert g.commits[c2].merge_eq is None
        assert g.boundaries == frozenset()
        ts1 = g.commits[c1].author_timestamp
        ts2 = g.commits[c2].author_timestamp
        assert ts2 > ts1

    def test_deleted_file_counts_as_changed(self, git_sandbox):
        s = git_sandbox
        s.commit("one", {"a.txt": "1", "keep.txt": "1"})
        (s.path / "a.txt").unlink()
        c2 = s.commit("two", {})
        g = ingest_repository(s.path)
        assert g.commits[c2].changeset == {"a.txt"}

    def test_head_ref_selects_subhistory(self, git_sandbox):
        s = git_sandbox
        c1 = s.commit("one", {"a.txt": "1"})
        s.commit("two", {"a.txt": "2"})
        g = ingest_repository(s.path, head_ref=c1)
        assert g.head == c1
        assert set(g.commits) == {c1}

    def test_unknown_ref_fails_in_rev_parse_verify(self, git_sandbox):
        s = git_sandbox
        s.commit("one", {"a.txt": "1"})
        with pytest.raises(IngestError, match="^git rev-parse --verify failed: "):
            ingest_repository(s.path, head_ref="no-such-ref")

    def test_label_defaults_to_directory_name(self, git_sandbox):
        s = git_sandbox
        s.commit("one", {"a.txt": "1"})
        assert ingest_repository(s.path).label == "repo"
        assert ingest_repository(s.path, label="custom").label == "custom"

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(IngestError):
            ingest_repository(tmp_path / "nowhere")

    def test_non_repository_rejected(self, tmp_path):
        with pytest.raises(IngestError):
            ingest_repository(tmp_path)


class TestIngestNonUtf8Paths:
    def test_non_utf8_name_is_rejected_naming_commit_and_path(self, git_sandbox):
        s = git_sandbox
        s.commit("one", {"ok.txt": "1"})
        # the surrogate escape writes the file name's raw byte 0xff
        (s.path / "bad\udcff.txt").write_text("x")
        bad = s.commit("two", {})
        with pytest.raises(IngestError) as exc:
            ingest_repository(s.path)
        message = str(exc.value)
        assert message.startswith(f"commit {bad}: ")
        assert "not valid UTF-8: 'bad\\udcff.txt'" in message


class TestIngestLineSeparatorPaths:
    def test_names_holding_line_separators_arrive_whole(
        self, git_sandbox, tmp_path, capsys
    ):
        # git prints U+2028, U+2029 and U+0085 raw; only "\n" ends a path
        s = git_sandbox
        names = ["a\u2028b.txt", "c\u2029d.txt", "e\u0085f.txt", "plain.txt"]
        s.commit("one", {name: "x" for name in names})
        assert sorted(p.name for p in s.path.iterdir() if p.is_file()) == sorted(names)
        g = ingest_repository(s.path)
        assert sorted(g.commits[g.head].changeset) == sorted(names)
        snap = tmp_path / "snap.jsonl"
        save_snapshot(g, snap)
        assert load_snapshot(snap) == g
        assert main(["snapshot-validate", str(snap)]) == 0
        assert capsys.readouterr().out.startswith("ok:")


class TestIngestMerges:
    def test_clean_merge(self, git_sandbox):
        s = git_sandbox
        s.commit("base", {"base.txt": "0"})
        s.checkout("feature", create=True)
        c2 = s.commit("feat1", {"f1.txt": "1"})
        c3 = s.commit("feat2", {"f2.txt": "2"})
        s.checkout("main")
        c4 = s.commit("main1", {"m.txt": "1"})
        proc = s.merge("feature")
        assert proc.returncode == 0
        m = s.head()

        g = ingest_repository(s.path)
        mc = g.commits[m]
        assert mc.parents == (c4, c3)
        assert mc.changeset == {"f1.txt", "f2.txt"}
        assert mc.merge_eq == {
            "f1.txt": (False, True),
            "f2.txt": (False, True),
        }
        assert additional_changes(g, m) == frozenset()
        assert branch_commits(g, m) == {c2, c3}

    def test_conflicted_merge_keeps_resolution_flags(self, git_sandbox):
        s = git_sandbox
        s.commit("base", {"shared.txt": "base\n"})
        s.checkout("feature", create=True)
        s.commit("feat", {"shared.txt": "feature\n", "f.txt": "1"})
        s.checkout("main")
        s.commit("main-edit", {"shared.txt": "main\n"})
        m = s.merge_resolving("feature", {"shared.txt": "resolved\n"})

        g = ingest_repository(s.path)
        mc = g.commits[m]
        assert mc.changeset == {"shared.txt", "f.txt"}
        assert mc.merge_eq["shared.txt"] == (False, False)
        assert mc.merge_eq["f.txt"] == (False, True)
        assert additional_changes(g, m) == {"shared.txt"}


class TestIngestShallow:
    def test_hidden_parents_become_boundaries(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        s = GitSandbox(src)
        s.commit("one", {"a.txt": "1", "deep/b.txt": "1"})
        s.commit("two", {"a.txt": "2"})
        c3 = s.commit("three", {"c.txt": "3"})
        c4 = s.commit("four", {"a.txt": "4"})
        c5 = s.commit("five", {"d.txt": "5"})

        dst = tmp_path / "shallow"
        run_git(tmp_path, "clone", "-q", "--depth", "2", f"file://{src}", str(dst))
        g = ingest_repository(dst)

        assert set(g.commits) == {c4, c5}
        assert g.boundaries == {c3}
        assert g.commits[c4].parents == (c3,)
        # beyond the boundary there is nothing to diff against: the
        # clipped commit carries its full tree
        assert g.commits[c4].changeset == {"a.txt", "c.txt", "deep/b.txt"}
        assert g.commits[c5].changeset == {"d.txt"}


def awkward_history(s):
    """Merges of every shape the batched reads must get right.

    An octopus of three branches, an ``-s ours`` merge (empty diff
    against the first parent) of a branch forked below the octopus, a
    conflicted merge, and paths git C-quotes (a double quote, a tab, a
    backslash).  HEAD is a merge, so a ``--depth 1`` clone is clipped
    at it.
    """
    s.commit("base", {"a.txt": "0", 'q"x.txt': "0", "t\tab.txt": "0"})
    for i in range(3):
        s.checkout("main")
        s.checkout(f"b{i}", create=True)
        files = {f"b{i}.txt": "1"}
        if i == 0:
            files['q"x.txt'] = "b"
        s.commit(f"b{i}", files)
    s.checkout("main")
    s.commit("main", {"m.txt": "1"})
    run_git(s.path, "merge", "-q", "--no-edit", "b0", "b1", "b2",
            env_extra=s._date_env())
    run_git(s.path, "checkout", "-q", "-b", "ours", "HEAD^1")
    s.commit("ours", {"o.txt": "1"})
    s.checkout("main")
    run_git(s.path, "merge", "-q", "--no-edit", "-s", "ours", "ours",
            env_extra=s._date_env())
    s.checkout("side", create=True)
    s.commit("side", {"a.txt": "side", "back\\slash.txt": "1"})
    s.checkout("main")
    s.commit("main-a", {"a.txt": "main"})
    s.merge_resolving("side", {"a.txt": "resolved"})
    s.checkout("late", create=True)
    s.commit("late", {"late.txt": "1", "t\tab.txt": "late"})
    s.checkout("main")
    s.merge("late")


def reference_merge(repo, graph, merge):
    """A merge's changeset and flags from one ``diff-tree`` per parent.

    This is the per-parent reading the batched one replaces: a parent
    beyond the shallow boundary cannot be diffed, so it compares False,
    and a merge clipped at its first parent carries its full tree.
    """
    def names(*args):
        out = run_git(repo, "-c", "core.quotePath=false", *args)
        return {ln for ln in out.splitlines() if ln}

    diffs = [
        names("diff-tree", "-r", "--no-renames", "--name-only", p, merge)
        if p in graph.commits else None
        for p in graph.commits[merge].parents
    ]
    changeset = diffs[0]
    if changeset is None:
        changeset = names("ls-tree", "-r", "--name-only", merge)
    flags = {f: tuple(d is not None and f not in d for d in diffs) for f in changeset}
    return changeset, flags


class TestIngestAgainstPerParentDiffs:
    @pytest.mark.parametrize("depth", [None, 1, 2, 3])
    def test_merges_match_per_parent_diff_tree(self, tmp_path, depth):
        src = tmp_path / "src"
        src.mkdir()
        awkward_history(GitSandbox(src))
        repo = src
        if depth is not None:
            repo = tmp_path / "clone"
            run_git(tmp_path, "clone", "-q", "--depth", str(depth),
                    f"file://{src}", str(repo))
        g = ingest_repository(repo)
        merges = [c for c in g.commits.values() if c.is_merge]
        assert merges
        for c in merges:
            changeset, flags = reference_merge(repo, g, c.id)
            assert c.changeset == changeset
            assert c.merge_eq == flags
        quoted = {f for c in merges for f in c.changeset if f.startswith('"')}
        if depth in (None, 1):
            assert len(quoted) == 3  # the double quote, tab and backslash names
        if depth is None:
            assert len(merges) == 4
            assert {len(c.parents) for c in merges} == {2, 4}
            assert any(not c.changeset for c in merges)  # the -s ours merge
        else:
            assert g.boundaries
        if depth == 1:
            assert set(g.commits[g.head].parents) <= g.boundaries

    def test_clipped_merge_whose_first_parent_is_reachable(self, tmp_path):
        # The boundary is drawn at the octopus; its first parent stays
        # reachable through the -s ours branch, so it is diffed.
        awkward_history(GitSandbox(tmp_path))
        octopus = run_git(tmp_path, "rev-list", "--min-parents=4", "HEAD")
        (tmp_path / ".git" / "shallow").write_text(octopus + "\n")
        g = ingest_repository(tmp_path)
        c = g.commits[octopus]
        assert c.parents[0] in g.commits
        assert set(c.parents[1:]) <= g.boundaries
        assert (c.changeset, c.merge_eq) == reference_merge(tmp_path, g, octopus)

    def test_misaligned_diff_tree_answer_is_an_error(self, git_sandbox, monkeypatch):
        awkward_history(git_sandbox)
        real_git = ingest_mod._git

        def drop_last_block(repo, *args, stdin=None):
            out = real_git(repo, *args, stdin=stdin)
            if args[0] == "diff-tree":
                out = out[: out.rindex("\x01")]
            return out

        monkeypatch.setattr(ingest_mod, "_git", drop_last_block)
        with pytest.raises(IngestError, match="diff-tree"):
            ingest_repository(git_sandbox.path)


class TestIngestGitCalls:
    @pytest.mark.parametrize("n_merges", [1, 6])
    def test_at_most_three_git_calls(self, git_sandbox, monkeypatch, n_merges):
        s = git_sandbox
        s.commit("base", {"a.txt": "0"})
        for i in range(n_merges):
            s.checkout(f"b{i}", create=True)
            s.commit(f"b{i}", {f"b{i}.txt": "1"})
            s.checkout("main")
            s.merge(f"b{i}")
        calls = []
        real_run = subprocess.run

        def counting_run(cmd, *args, **kwargs):
            calls.append(cmd)
            return real_run(cmd, *args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        g = ingest_repository(s.path)
        monkeypatch.undo()
        assert sum(c.is_merge for c in g.commits.values()) == n_merges
        assert all(cmd[0] == "git" for cmd in calls)
        assert len(calls) <= 3


class TestSnapshotRoundTrip:
    def test_round_trip_preserves_graph(self, merge_graph, tmp_path):
        p = tmp_path / "snap.jsonl"
        save_snapshot(merge_graph, p)
        assert load_snapshot(p) == merge_graph

    def test_save_is_byte_deterministic(self, nested_merge_graph, tmp_path):
        p1 = tmp_path / "one.jsonl"
        p2 = tmp_path / "two.jsonl"
        save_snapshot(nested_merge_graph, p1)
        save_snapshot(load_snapshot(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_git_history_survives_round_trip(self, git_sandbox, tmp_path):
        s = git_sandbox
        s.commit("base", {"shared.txt": "base\n"})
        s.checkout("feature", create=True)
        s.commit("feat", {"shared.txt": "feature\n"})
        s.checkout("main")
        s.commit("main-edit", {"shared.txt": "main\n"})
        s.merge_resolving("feature", {"shared.txt": "resolved\n"})

        g = ingest_repository(s.path)
        p = tmp_path / "snap.jsonl"
        save_snapshot(g, p)
        assert load_snapshot(p) == g

    def test_parents_always_precede_children(self, nested_merge_graph, tmp_path):
        lines = lines_of(nested_merge_graph, tmp_path)
        seen = set()
        for raw in lines[1:]:
            rec = json.loads(raw)
            assert all(p in seen for p in rec["parents"])
            seen.add(rec["id"])


class TestSnapshotValidation:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(p)
        assert exc.value.line == 1

    def test_header_without_commits(self, merge_graph, tmp_path):
        header = lines_of(merge_graph, tmp_path)[0]
        with pytest.raises(SnapshotError, match="snapshot contains no commits") as exc:
            load_snapshot(write_lines(tmp_path, [header]))
        assert exc.value.line == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_snapshot(tmp_path / "absent.jsonl")

    def test_invalid_json_names_the_line(self, merge_graph, tmp_path):
        lines = lines_of(merge_graph, tmp_path)
        lines[1] = "{not json"
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(write_lines(tmp_path, lines))
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize(
        "raw",
        [
            pytest.param("[" * 100_000, id="deep-nesting"),
            pytest.param("1" * 5000, id="over-long-integer"),
        ],
    )
    def test_unparseable_json_names_the_line(self, merge_graph, tmp_path, raw):
        lines = lines_of(merge_graph, tmp_path)
        lines[2] = raw
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(write_lines(tmp_path, lines))
        assert exc.value.line == 3

    def test_escaped_non_utf8_path_names_its_line(self, merge_graph, tmp_path):
        lines = lines_of(merge_graph, tmp_path)
        rec = json.loads(lines[2])
        rec["files"].append("bad\udcff.txt")
        lines[2] = json.dumps(rec)  # ASCII text: the surrogate is a \\u escape
        with pytest.raises(SnapshotError, match="not valid UTF-8") as exc:
            load_snapshot(write_lines(tmp_path, lines))
        assert exc.value.line == 3

    @pytest.mark.parametrize("record", ["header", "child"])
    def test_id_with_trailing_newline_names_its_line(
        self, merge_graph, tmp_path, record
    ):
        records = [json.loads(raw) for raw in lines_of(merge_graph, tmp_path)]
        if record == "header":
            records[0]["boundaries"] = [hid("edge") + "\n"]
        else:
            records[2]["id"] += "\n"
        path = write_lines(tmp_path, [json.dumps(r) for r in records])
        with pytest.raises(SnapshotError, match="not a 40-hex commit id") as exc:
            load_snapshot(path)
        assert exc.value.line == {"header": 1, "child": 3}[record]

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\u0085"])
    def test_raw_line_separator_in_a_path_is_data(self, tmp_path, char):
        graph = build_graph(
            [mk_commit("A", [], 1, [f"a{char}b.txt"]), mk_commit("B", ["A"], 2, ["c"])],
            "B",
        )
        escaped = tmp_path / "escaped.jsonl"
        save_snapshot(graph, escaped)
        records = [json.loads(raw) for raw in escaped.read_text().split("\n")[:-1]]
        raw = tmp_path / "raw.jsonl"
        raw.write_bytes("".join(
            json.dumps(r, ensure_ascii=False) + "\n" for r in records
        ).encode("utf-8"))
        assert char.encode("utf-8") in raw.read_bytes()
        assert load_snapshot(raw) == load_snapshot(escaped) == graph

    def test_crlf_snapshot_loads(self, merge_graph, tmp_path):
        path = tmp_path / "crlf.jsonl"
        path.write_bytes(("\r\n".join(lines_of(merge_graph, tmp_path)) + "\r\n").encode())
        # the column pass accepts it: the per-line pass never runs
        with mock.patch.object(
            ingest_mod, "_check_records", wraps=ingest_mod._check_records
        ) as per_line:
            assert load_snapshot(path) == merge_graph
        per_line.assert_not_called()

    def test_crlf_record_cut_inside_a_string_fails_as_its_lf_twin(
        self, merge_graph, tmp_path
    ):
        lines = lines_of(merge_graph, tmp_path)
        cut = lines[2].index('"id":"') + 10  # inside the second record's id
        lines[2:3] = [lines[2][:cut], lines[2][cut:]]
        path = tmp_path / "cut.jsonl"
        outcomes = []
        for separator in ("\n", "\r\n"):
            path.write_bytes((separator.join(lines) + separator).encode())
            with pytest.raises(SnapshotError, match="Unterminated string") as exc:
                load_snapshot(path)
            outcomes.append((str(exc.value), exc.value.line))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == 3

    def test_header_must_be_complete(self, merge_graph, tmp_path):
        lines = lines_of(merge_graph, tmp_path)
        header = json.loads(lines[0])
        del header["head"]
        lines[0] = json.dumps(header)
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(write_lines(tmp_path, lines))
        assert "head" in str(exc.value)

    def test_boundary_ids_are_validated(self, merge_graph, tmp_path):
        lines = lines_of(merge_graph, tmp_path)
        header = json.loads(lines[0])
        header["boundaries"] = ["not-an-id", ""]
        lines[0] = json.dumps(header)
        with pytest.raises(SnapshotError, match="not a 40-hex commit id") as exc:
            load_snapshot(write_lines(tmp_path, lines))
        assert exc.value.line == 1

    def test_unsupported_format_version(self, merge_graph, tmp_path):
        lines = lines_of(merge_graph, tmp_path)
        header = json.loads(lines[0])
        header["format_version"] = 99
        lines[0] = json.dumps(header)
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(write_lines(tmp_path, lines))
        assert exc.value.line == 1

    def test_child_before_parent_rejected(self, merge_graph, tmp_path):
        lines = lines_of(merge_graph, tmp_path)
        lines[1:] = lines[:0:-1]
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(write_lines(tmp_path, lines))
        assert exc.value.line == 2

    def test_duplicate_commit_rejected(self, merge_graph, tmp_path):
        lines = lines_of(merge_graph, tmp_path)
        lines.append(lines[1])
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(write_lines(tmp_path, lines))
        assert exc.value.line == len(lines)

    def test_malformed_id_rejected(self, merge_graph, tmp_path):
        lines = lines_of(merge_graph, tmp_path)
        rec = json.loads(lines[1])
        rec["id"] = "abc"
        lines[1] = json.dumps(rec)
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(write_lines(tmp_path, lines))
        assert exc.value.line == 2

    def test_boolean_timestamp_rejected(self, merge_graph, tmp_path):
        lines = lines_of(merge_graph, tmp_path)
        rec = json.loads(lines[1])
        rec["ts"] = True
        lines[1] = json.dumps(rec)
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(write_lines(tmp_path, lines))
        assert exc.value.line == 2

    def test_blank_line_rejected(self, merge_graph, tmp_path):
        lines = lines_of(merge_graph, tmp_path)
        lines.insert(2, "")
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(write_lines(tmp_path, lines))
        assert exc.value.line == 3

    def test_dotted_path_rejected(self, merge_graph, tmp_path):
        lines = lines_of(merge_graph, tmp_path)
        rec = json.loads(lines[1])
        rec["files"] = ["a/../b"]
        lines[1] = json.dumps(rec)
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(write_lines(tmp_path, lines))
        assert exc.value.line == 2

    def test_record_missing_key_rejected(self, merge_graph, tmp_path):
        lines = lines_of(merge_graph, tmp_path)
        rec = json.loads(lines[1])
        del rec["files"]
        lines[1] = json.dumps(rec)
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(write_lines(tmp_path, lines))
        assert "files" in str(exc.value)

    def test_merge_eq_on_non_merge_rejected(self, merge_graph, tmp_path):
        lines = lines_of(merge_graph, tmp_path)
        rec = json.loads(lines[1])
        assert not rec["parents"]  # the root comes first
        rec["merge_eq"] = {rec["files"][0]: [False]}
        lines[1] = json.dumps(rec)
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(write_lines(tmp_path, lines))
        assert exc.value.line == 2

    def test_head_must_exist(self, merge_graph, tmp_path):
        lines = lines_of(merge_graph, tmp_path)
        header = json.loads(lines[0])
        header["head"] = "0" * 40
        lines[0] = json.dumps(header)
        with pytest.raises(SnapshotError):
            load_snapshot(write_lines(tmp_path, lines))

    def test_incomplete_merge_flags_rejected(self, merge_graph, tmp_path):
        lines = lines_of(merge_graph, tmp_path)
        for i, raw in enumerate(lines[1:], start=1):
            rec = json.loads(raw)
            if len(rec["parents"]) == 2:
                rec["merge_eq"] = {}
                lines[i] = json.dumps(rec)
                break
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(write_lines(tmp_path, lines))
        assert exc.value.line == i + 1

    @pytest.mark.parametrize(
        "record, edit",
        [
            ("merge", "flags-missing-a-file"),
            ("merge", "flags-with-an-extra-file"),
            ("merge", "wrong-flag-count"),
            ("merge", "first-flag-true"),
            ("merge", "duplicate-parent"),
            ("child", "non-utf8"),
            ("child", "list-as-id"),
            ("header", "format-version-true"),
            ("child", "id-also-a-boundary"),
        ],
    )
    def test_record_error_names_its_line(self, merge_graph, tmp_path, record, edit):
        records = [json.loads(raw) for raw in lines_of(merge_graph, tmp_path)]
        merge = next(
            i for i, r in enumerate(records) if len(r.get("parents", ())) == 2
        )
        index = {"header": 0, "child": 2, "merge": merge}[record]
        rec = records[index]
        first = rec.get("files", [None])[0]
        if edit == "flags-missing-a-file":
            del rec["merge_eq"][first]
        elif edit == "flags-with-an-extra-file":
            rec["merge_eq"]["z.txt"] = [False, True]
        elif edit == "wrong-flag-count":
            rec["merge_eq"][first].append(True)
        elif edit == "first-flag-true":
            rec["merge_eq"][first][0] = True
        elif edit == "duplicate-parent":
            rec["parents"][1] = rec["parents"][0]
        elif edit == "non-utf8":
            rec["files"].append("x\udcff")  # written as the raw byte 0xff
        elif edit == "list-as-id":
            rec["id"] = [1]
        elif edit == "id-also-a-boundary":
            records[0]["boundaries"].append(rec["id"])
        else:
            rec["format_version"] = True
        path = tmp_path / "mutated.jsonl"
        text = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(path)
        assert exc.value.line == index + 1

    @pytest.mark.parametrize(
        "record, key, value",
        [
            ("header", "head", [1]),
            ("header", "boundaries", "ab"),
            ("header", "boundaries", [1]),
            ("root", "files", "ab"),
            ("root", "files", [["a"]]),
            ("child", "parents", "ab"),
            ("merge", "merge_eq", [1]),
            ("merge", "merge_eq", {"x": "ab"}),
            ("header", "repo_label", [1]),
            ("header", "repo_label", 5),
            ("root", "merge_eq", None),
            ("root", "merge_eq", []),
            ("root", "merge_eq", 0),
            ("root", "merge_eq", ""),
        ],
    )
    def test_wrongly_typed_field_rejected(
        self, merge_graph, tmp_path, record, key, value
    ):
        records = [json.loads(raw) for raw in lines_of(merge_graph, tmp_path)]
        merge = next(
            i for i, r in enumerate(records) if len(r.get("parents", ())) == 2
        )
        index = {"header": 0, "root": 1, "child": 2, "merge": merge}[record]
        records[index][key] = value
        path = write_lines(tmp_path, [json.dumps(r) for r in records])
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(path)
        assert exc.value.line == index + 1
        assert "must" in str(exc.value)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def saved_snapshot(tmp_path_factory):
    graph = generic_graph(seed=1, n_commits=16)
    assert any(c.is_merge for c in graph.commits.values())
    directory = tmp_path_factory.mktemp("mutations")
    save_snapshot(graph, directory / "base.jsonl")
    return directory, (directory / "base.jsonl").read_text().splitlines()


class TestSnapshotMutations:
    @settings(max_examples=200)
    @given(data=st.data())
    def test_single_mutation_loads_or_raises_snapshot_error(
        self, saved_snapshot, data
    ):
        directory, lines = saved_snapshot
        lines = list(lines)
        kind = data.draw(
            st.sampled_from(["replace", "delete", "swap", "duplicate", "bytes"])
        )
        i = data.draw(st.integers(0, len(lines) - 1))
        if kind in ("replace", "delete"):
            rec = json.loads(lines[i])
            key = data.draw(st.sampled_from(sorted(rec)))
            if kind == "replace":
                rec[key] = data.draw(JSON_VALUES)
            else:
                del rec[key]
            lines[i] = json.dumps(rec)
        elif kind == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "duplicate":
            lines.insert(data.draw(st.integers(0, len(lines))), lines[i])
        body = ("\n".join(lines) + "\n").encode("utf-8")
        if kind == "bytes":
            patch = data.draw(st.binary(min_size=1, max_size=4))
            pos = data.draw(st.integers(0, len(body) - 1))
            body = body[:pos] + patch + body[pos + len(patch):]
        path = directory / "mutated.jsonl"
        path.write_bytes(body)
        try:
            graph = load_snapshot(path)
        except SnapshotError:
            return
        assert isinstance(graph, CommitGraph)


def reference_load_snapshot(path):
    """``load_snapshot`` before its record loop was made cheaper: one
    ``json.loads`` per line and generator type checks.  Only two fixes
    are applied: lines end at ``\\n`` alone (the ``\\r`` of a ``\\r\\n``
    dropped, as README's separator rule says), and an id is matched
    whole."""

    def as_json(raw, line_no):
        try:
            value = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"invalid JSON ({exc.msg})", line_no) from None
        except (ValueError, RecursionError) as exc:
            raise SnapshotError(f"invalid JSON ({exc})", line_no) from None
        if not isinstance(value, dict):
            raise SnapshotError("expected a JSON object", line_no)
        return value

    def list_of(kind, value, what, line_no):
        if not isinstance(value, list) or not all(isinstance(v, kind) for v in value):
            raise SnapshotError(f"{what} must be a list of {kind.__name__}", line_no)
        return value

    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotError(
            f"not valid UTF-8 ({exc.reason})", data.count(b"\n", 0, exc.start) + 1
        ) from None
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise SnapshotError("snapshot is empty", 1)
    header = as_json(lines[0], 1)
    for key in ("format_version", "repo_label", "head", "boundaries"):
        if key not in header:
            raise SnapshotError(f"header is missing {key!r}", 1)
    version = header["format_version"]
    if type(version) is not int or version != ingest_mod.FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported format_version {version!r}, expected "
            f"{ingest_mod.FORMAT_VERSION}", 1
        )
    for key in ("head", "repo_label"):
        if not isinstance(header[key], str):
            raise SnapshotError(f"{key} must be a string", 1)
    boundaries = frozenset(list_of(str, header["boundaries"], "boundaries", 1))
    for b in sorted(boundaries):
        try:
            validate_commit_id(b)
        except ValueError as exc:
            raise SnapshotError(f"boundaries: {exc}", 1) from None
    commits = {}
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            raise SnapshotError("blank line inside snapshot", line_no)
        rec = as_json(raw, line_no)
        for key in ("id", "parents", "ts", "files"):
            if key not in rec:
                raise SnapshotError(f"record is missing {key!r}", line_no)
        parents = list_of(str, rec["parents"], "parents", line_no)
        files = list_of(str, rec["files"], "files", line_no)
        merge_eq = rec.get("merge_eq", {})
        if not isinstance(merge_eq, dict):
            raise SnapshotError("merge_eq must be an object", line_no)
        for f, flags in merge_eq.items():
            list_of(bool, flags, f"merge_eq[{f!r}]", line_no)
        try:
            commit = Commit(
                rec["id"], tuple(parents), rec["ts"], frozenset(files), merge_eq
            )
        except ValueError as exc:
            raise SnapshotError(str(exc), line_no) from None
        cid = commit.id
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
        commits[cid] = commit
    if not commits:
        raise SnapshotError("snapshot contains no commits", 1)
    head = header["head"]
    if head not in commits:
        raise SnapshotError(f"head {head} is not among the commits", 1)
    try:
        return CommitGraph(commits, head, boundaries, header["repo_label"])
    except ValueError as exc:
        raise SnapshotError(str(exc)) from None


def load_outcome(load, path):
    """The graph ``load`` returns, or its SnapshotError's message and line."""
    try:
        return load(path)
    except SnapshotError as exc:
        return str(exc), exc.line


LINE_EDITS = ["split", "join", "lead", "trail", "crlf", "ending"]


def mutate(data, lines):
    """One of TestSnapshotMutations' edits, a whole line or one merge flag
    replaced by another JSON value, or a line-boundary edit; returns the
    file's bytes."""
    lines = list(lines)
    kind = data.draw(st.sampled_from([
        "none", "replace", "delete", "swap", "duplicate", "bytes", "line", "flag",
        *LINE_EDITS,
    ]))
    i = data.draw(st.integers(0, len(lines) - 1))
    if kind in ("replace", "delete"):
        rec = json.loads(lines[i])
        key = data.draw(st.sampled_from(sorted(rec)))
        if kind == "replace":
            rec[key] = data.draw(JSON_VALUES)
        else:
            del rec[key]
        lines[i] = json.dumps(rec)
    elif kind == "line":
        lines[i] = json.dumps(data.draw(JSON_VALUES))
    elif kind == "flag":
        merges = [j for j, raw in enumerate(lines) if json.loads(raw).get("merge_eq")]
        if merges:
            i = data.draw(st.sampled_from(merges))
            rec = json.loads(lines[i])
            flags = rec["merge_eq"][data.draw(st.sampled_from(sorted(rec["merge_eq"])))]
            flags[data.draw(st.integers(0, len(flags) - 1))] = data.draw(
                st.sampled_from([0, 1, 1.0, None, "true", [False], not flags[-1]])
            )
            lines[i] = json.dumps(rec)
    elif kind == "swap":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "duplicate":
        lines.insert(data.draw(st.integers(0, len(lines))), lines[i])
    elif kind == "split":
        cut = data.draw(st.integers(0, len(lines[i])))
        lines[i:i + 1] = [lines[i][:cut], lines[i][cut:]]
    elif kind == "join" and i + 1 < len(lines):
        lines[i:i + 2] = [lines[i] + lines[i + 1]]
    elif kind in ("lead", "trail"):
        pad = data.draw(st.sampled_from([" ", "\t", "\r", " \r", "\x0c", "\u2028"]))
        lines[i] = pad + lines[i] if kind == "lead" else lines[i] + pad
    ending = "\n"
    if kind == "ending":
        ending = data.draw(st.sampled_from(["", "\n\n", "\n \n", "\r", "\n\r\n"]))
    body = "\n".join(lines) + ending
    if kind == "crlf":
        body = body.replace("\n", "\r\n")
    body = body.encode("utf-8")
    if kind == "bytes":
        patch = data.draw(st.binary(min_size=1, max_size=4))
        pos = data.draw(st.integers(0, len(body) - 1))
        body = body[:pos] + patch + body[pos + len(patch):]
    return body


class TestLoaderAgainstReference:
    @settings(max_examples=300)
    @given(graph=random_dags())
    def test_valid_snapshots_load_equal(self, saved_snapshot, graph):
        directory, _ = saved_snapshot
        path = directory / "dag.jsonl"
        save_snapshot(graph, path)
        assert load_snapshot(path) == reference_load_snapshot(path) == graph

    @settings(max_examples=500)
    @given(data=st.data())
    def test_mutations_give_the_same_graph_or_error(self, saved_snapshot, data):
        directory, lines = saved_snapshot
        path = directory / "mutated.jsonl"
        path.write_bytes(mutate(data, lines))
        assert load_outcome(load_snapshot, path) == load_outcome(
            reference_load_snapshot, path
        )

    @settings(max_examples=200)
    @given(graph=random_dags(), data=st.data())
    def test_mutated_dags_give_the_same_graph_or_error(
        self, saved_snapshot, graph, data
    ):
        directory, _ = saved_snapshot
        path = directory / "dag.jsonl"
        save_snapshot(graph, path)
        path.write_bytes(mutate(data, path.read_text().splitlines()))
        assert load_outcome(load_snapshot, path) == load_outcome(
            reference_load_snapshot, path
        )

    def test_lines_that_parse_only_when_joined(self, merge_graph, tmp_path):
        # joined into one JSON array these three lines parse as three
        # objects, the first two merged, because the string swallows the
        # separating comma; each line alone is not a JSON object
        header = lines_of(merge_graph, tmp_path)[0]
        path = write_lines(tmp_path, [header, '{"a":"}', '{"}', '{"p":1},{"q":2}'])
        assert len(json.loads("[" + ",".join(['{"a":"}', '{"}', '{"p":1},{"q":2}'])
                              + "]")) == 3
        for load in (load_snapshot, reference_load_snapshot):
            with pytest.raises(SnapshotError, match="invalid JSON") as exc:
                load(path)
            assert exc.value.line == 2


def bench_corpus():
    """``bench/corpus.py``, loaded from its file: the benchmark's seeded
    history generator."""
    path = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


DERIVED_INDEXES = (
    "_parents", "_children", "_generation", "_rank", "_first_parent_spans",
    "_branch_table", "_branch_owners",
)


def assert_indexes_match_a_validated_graph(graph):
    """Every derived index of ``graph`` equals the one of the same graph
    built through the public, validating constructor."""
    validated = CommitGraph(dict(graph.commits), graph.head, graph.boundaries,
                            graph.label)
    assert graph == validated
    for name in DERIVED_INDEXES:
        assert getattr(graph, name) == getattr(validated, name), name
    order = list(graph.commits)
    assert sorted(order) == sorted(graph.commits)
    position = {cid: i for i, cid in enumerate(order)}
    for cid, parents in graph._parents.items():
        assert all(position[p] < position[cid] for p in parents)


class TestLoadedGraphIndexes:
    @settings(max_examples=200)
    @given(graph=random_dags())
    def test_random_dags(self, saved_snapshot, graph):
        directory, _ = saved_snapshot
        path = directory / "dag.jsonl"
        save_snapshot(graph, path)
        assert_indexes_match_a_validated_graph(load_snapshot(path))

    def test_merge_heavy_bench_history(self, tmp_path):
        corpus = bench_corpus()
        shape = corpus.Shape(n_commits=600, n_modules=12, module_files=3,
                             branches_per_block=12, branch_lengths=(1, 2, 3),
                             max_files=3)
        graph = corpus.to_graph(3, corpus.generate(3, shape))
        save_snapshot(graph, tmp_path / "snap.jsonl")
        loaded = load_snapshot(tmp_path / "snap.jsonl")
        assert sum(c.is_merge for c in loaded.commits.values()) > 100
        assert_indexes_match_a_validated_graph(loaded)


def skewed_graph():
    """R -> A1 (ts 5) -> A2 (ts 3) and R -> B1 (ts 2) -> B2 (ts 6), merged
    by M: the newest-first walk leaves each branch half done in turn."""
    return build_graph([
        mk_commit("R", [], 1, ["r"]),
        mk_commit("A1", ["R"], 5, ["a1"]),
        mk_commit("A2", ["A1"], 3, ["a2"]),
        mk_commit("B1", ["R"], 2, ["b1"]),
        mk_commit("B2", ["B1"], 6, ["b2"]),
        mk_commit("M", ["A2", "B2"], 7, ["b1", "b2"],
                  {"b1": (False, True), "b2": (False, True)}),
    ], "M")


def saved_ids(graph, path):
    save_snapshot(graph, path)
    return [json.loads(raw)["id"] for raw in path.read_text().splitlines()[1:]]


class TestOneWalkOrder:
    """A validated graph lists ``commits`` parents first, in the order of
    the newest-first walk reversed, which ``save_snapshot`` writes."""

    @settings(max_examples=200)
    @given(graph=random_dags())
    def test_random_dags(self, saved_snapshot, graph):
        directory, _ = saved_snapshot
        ids = saved_ids(graph, directory / "dag.jsonl")
        assert list(graph.commits) == ids

    def test_skewed_branches(self, tmp_path):
        graph = skewed_graph()
        ids = saved_ids(graph, tmp_path / "snap.jsonl")
        assert ids == [hid(t) for t in ("R", "B1", "A1", "A2", "B2", "M")]
        assert list(graph.commits) == ids

    def test_other_parents_first_order_resaves_canonically(self, tmp_path):
        graph = skewed_graph()
        canonical = tmp_path / "canonical.jsonl"
        save_snapshot(graph, canonical)
        header, *records = canonical.read_text().splitlines()
        by_id = {json.loads(raw)["id"]: raw for raw in records}
        reordered = [by_id[hid(t)] for t in ("R", "B1", "B2", "A1", "A2", "M")]
        assert reordered != records
        loaded = load_snapshot(write_lines(tmp_path, [header, *reordered]))
        assert loaded == graph
        save_snapshot(loaded, tmp_path / "resaved.jsonl")
        assert (tmp_path / "resaved.jsonl").read_bytes() == canonical.read_bytes()


def break_timestamp(lines, k):
    """``lines`` with the record on 1-based line ``k`` given a bool ``ts``."""
    rec = json.loads(lines[k - 1])
    rec["ts"] = True
    return [*lines[:k - 1], json.dumps(rec), *lines[k:]]


class TestLoadChecksOnce:
    """A well-formed snapshot is accepted by the column pass, which calls
    neither ``Commit.__post_init__`` nor ``CommitGraph._validate``; the
    per-line pass runs only to name a broken line."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"check": 0, "validate": 0}
        check, validate = Commit.__post_init__, CommitGraph._validate

        def counted_check(commit):
            calls["check"] += 1
            return check(commit)

        def counted_validate(graph):
            calls["validate"] += 1
            return validate(graph)

        monkeypatch.setattr(Commit, "__post_init__", counted_check)
        monkeypatch.setattr(CommitGraph, "_validate", counted_validate)
        return calls

    # chunks of 1 and 7 records split the 40 records the way a long
    # snapshot is split into chunks of ingest._CHUNK
    @pytest.mark.parametrize("chunk", [1, 7, ingest_mod._CHUNK])
    def test_clean_snapshot_runs_no_per_commit_check(
        self, calls, monkeypatch, tmp_path, chunk
    ):
        graph = generic_graph(seed=2, n_commits=40)
        path = tmp_path / "snap.jsonl"
        save_snapshot(graph, path)
        monkeypatch.setattr(ingest_mod, "_CHUNK", chunk)
        calls.update(check=0, validate=0)
        assert load_snapshot(path) == graph
        assert calls == {"check": 0, "validate": 0}
        # the public constructors still check
        c = next(iter(graph.commits.values()))
        Commit(c.id, c.parents, c.author_timestamp, c.changeset, c.merge_eq)
        CommitGraph(dict(graph.commits), graph.head, graph.boundaries)
        assert calls == {"check": 1, "validate": 1}

    def test_snapshot_broken_at_line_k_reports_line_k(self, calls, tmp_path):
        graph = generic_graph(seed=2, n_commits=40)
        lines = lines_of(graph, tmp_path)
        for k in range(2, len(lines) + 1):
            calls.update(check=0, validate=0)
            with pytest.raises(SnapshotError, match="non-integer timestamp") as exc:
                load_snapshot(write_lines(tmp_path, break_timestamp(lines, k)))
            assert exc.value.line == k
            # the per-line pass stopped at the broken record
            assert calls == {"check": k - 1, "validate": 0}


def edit_record(records, merge, edit):
    """Apply one named edit to the parsed lines of ``merge_graph``'s
    snapshot; ``merge`` is the merge record's index."""
    root, child, rec = records[1], records[2], records[merge]
    first = rec["files"][0]
    if edit.startswith("root-merge-eq-"):
        root["merge_eq"] = {"null": None, "list": [], "zero": 0}[edit[14:]]
    elif edit == "parent-nested-list":
        child["parents"] = [[]]
    elif edit == "parent-int":
        child["parents"] = [1]
    elif edit == "parent-self":
        child["parents"] = [child["id"]]
    elif edit == "parent-later-record":
        child["parents"] = [records[-1]["id"]]
    elif edit == "files-hold-a-list":
        child["files"].append(["x.txt"])
    elif edit == "duplicate-id":
        records.append(dict(child))
    elif edit == "id-also-a-boundary":
        records[0]["boundaries"].append(child["id"])
    elif edit == "ts-true":
        child["ts"] = True
    elif edit == "ts-float":
        child["ts"] = 1.0
    elif edit == "merge-duplicate-parent":
        rec["parents"][1] = rec["parents"][0]
    elif edit == "merge-flags-too-long":
        rec["merge_eq"][first].append(True)
    elif edit == "merge-flags-too-short":
        del rec["merge_eq"][first][1]
    elif edit == "merge-zero-flag":
        rec["merge_eq"][first][1] = 0
    elif edit == "merge-first-flag-true":
        rec["merge_eq"][first][0] = True
    elif edit == "merge-keys-differ-from-files":
        rec["merge_eq"]["z.txt"] = rec["merge_eq"].pop(first)
    elif edit == "merge-eq-null":
        rec["merge_eq"] = None
    elif edit == "merge-flags-null":
        rec["merge_eq"][first] = None
    elif edit.startswith("head-id-"):
        # no record names the head as a parent, so only the id check sees it
        head = next(r for r in records[1:] if r["id"] == records[0]["head"])
        bad = {"short": head["id"][1:], "uppercase": head["id"].upper()}[edit[8:]]
        head["id"] = records[0]["head"] = bad
    else:
        raise AssertionError(edit)


class TestAcceptPassAgainstReference:
    """Each input breaks one rule the column pass checks: the pass gives
    up and the load fails exactly as the reference loader does."""

    @pytest.mark.parametrize("edit", [
        "root-merge-eq-null", "root-merge-eq-list", "root-merge-eq-zero",
        "parent-nested-list", "parent-int", "parent-self", "parent-later-record",
        "files-hold-a-list", "duplicate-id", "id-also-a-boundary",
        "ts-true", "ts-float",
        "merge-duplicate-parent", "merge-flags-too-long", "merge-flags-too-short",
        "merge-zero-flag", "merge-first-flag-true", "merge-keys-differ-from-files",
        "merge-eq-null", "merge-flags-null", "head-id-short", "head-id-uppercase",
    ])
    @pytest.mark.parametrize("chunk", [2, ingest_mod._CHUNK])
    def test_broken_record_fails_as_in_the_reference(
        self, merge_graph, monkeypatch, tmp_path, edit, chunk
    ):
        monkeypatch.setattr(ingest_mod, "_CHUNK", chunk)
        records = [json.loads(raw) for raw in lines_of(merge_graph, tmp_path)]
        merge = next(i for i, r in enumerate(records) if len(r.get("parents", ())) == 2)
        edit_record(records, merge, edit)
        lines = [json.dumps(r) for r in records]
        path = write_lines(tmp_path, lines)
        boundaries = frozenset(records[0]["boundaries"])
        assert ingest_mod._accept_records(lines[1:], boundaries) is None
        outcome = load_outcome(load_snapshot, path)
        assert isinstance(outcome, tuple)  # an error, not a graph
        assert outcome == load_outcome(reference_load_snapshot, path)

    @staticmethod
    def assert_accepted_commits_match_per_line(path):
        seen = []
        accept = ingest_mod._accept_records

        def spy(lines, boundaries):
            seen.append((lines, boundaries, accept(lines, boundaries)))
            return seen[-1][2]

        with mock.patch.object(ingest_mod, "_accept_records", spy):
            load_outcome(load_snapshot, path)
        for lines, boundaries, commits in seen:
            if commits is not None:
                assert ingest_mod._check_records(lines, boundaries) == commits

    @settings(max_examples=500)
    @given(data=st.data())
    def test_accepted_mutations_match_the_per_line_pass(self, saved_snapshot, data):
        directory, lines = saved_snapshot
        path = directory / "mutated.jsonl"
        path.write_bytes(mutate(data, lines))
        self.assert_accepted_commits_match_per_line(path)

    @settings(max_examples=200)
    @given(graph=random_dags(), data=st.data())
    def test_accepted_mutated_dags_match_the_per_line_pass(
        self, saved_snapshot, graph, data
    ):
        directory, _ = saved_snapshot
        path = directory / "dag.jsonl"
        save_snapshot(graph, path)
        path.write_bytes(mutate(data, path.read_text().splitlines()))
        self.assert_accepted_commits_match_per_line(path)
