import json

import pytest

from cochange import (
    IngestError,
    SnapshotError,
    additional_changes,
    branch_commits,
    ingest_repository,
    load_snapshot,
    save_snapshot,
)

from conftest import GitSandbox, run_git


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

    def test_header_must_be_complete(self, merge_graph, tmp_path):
        lines = lines_of(merge_graph, tmp_path)
        header = json.loads(lines[0])
        del header["head"]
        lines[0] = json.dumps(header)
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(write_lines(tmp_path, lines))
        assert "head" in str(exc.value)

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
        with pytest.raises(SnapshotError):
            load_snapshot(write_lines(tmp_path, lines))

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
