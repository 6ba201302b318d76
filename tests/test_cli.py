import copy
import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cochange import RecommenderConfig, cli, save_snapshot
from cochange.cli import _COMMANDS, _CONFIG_FIELDS, OUTPUT_DIR_ENV, build_parser, main

from conftest import build_graph, fail_prepare_on, hid, mk_commit
from synthgen import generic_graph
from test_ingest import JSON_VALUES


def clean_merge(tag, parents, ts, files):
    return mk_commit(tag, parents, ts, files, {f: (False, True) for f in files})


def coupled_graph():
    """Five commits touching the same pair, then an unrelated tip."""
    commits = [mk_commit("c0", [], 1, ["a", "b"])]
    for i in range(1, 5):
        commits.append(mk_commit(f"c{i}", [f"c{i-1}"], 1 + i, ["a", "b"]))
    commits.append(mk_commit("T", ["c4"], 9, ["t"]))
    return build_graph(commits, "T")


def branchy_graph():
    """A 6-commit branch squashed into an oversized merge, then a test
    commit; the strategy pair disagrees on every case."""
    commits = [mk_commit("R", [], 1, ["seed"])]
    union = set()
    prev = "R"
    for i in range(6):
        files = {"x", "y", "z", f"fa{i}", f"fb{i}"}
        union |= files
        commits.append(mk_commit(f"b{i}", [prev], 2 + i, files))
        prev = f"b{i}"
    commits.append(clean_merge("M", ["R", prev], 10, union))
    commits.append(mk_commit("T", ["M"], 11, ["x", "y", "z"]))
    return build_graph(commits, "T")


def study_graph():
    """One merge bundling two unrelated pairs plus scripted futures."""
    commits = [
        mk_commit("R", [], 1, ["base"]),
        mk_commit("b1", ["R"], 2, ["p1", "q1"]),
        mk_commit("b2", ["b1"], 3, ["p2", "q2"]),
        clean_merge("M", ["R", "b2"], 4, ["p1", "q1", "p2", "q2"]),
        mk_commit("F1", ["M"], 5, ["p1", "q1"]),
        mk_commit("F2", ["F1"], 6, ["p2", "q2"]),
        mk_commit("T", ["F2"], 7, ["t"]),
    ]
    return build_graph(commits, "T")


def snap_of(graph, tmp_path, name="snap.jsonl"):
    p = tmp_path / name
    save_snapshot(graph, p)
    return str(p)


@pytest.fixture(params=["7-70", "5-50", "nested"])
def golden_snapshot(request, tmp_path):
    """(name, snapshot path) of a graph whose outputs have golden hashes:
    two seeded generic graphs and the nested-merge fixture."""
    if request.param == "nested":
        graph = request.getfixturevalue("nested_merge_graph")
    else:
        graph = generic_graph(*map(int, request.param.split("-")))
    return request.param, snap_of(graph, tmp_path)


def digests(out, names):
    return tuple(hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names)


@pytest.fixture(autouse=True)
def no_ambient_output_dir(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


class TestParsing:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "0.1.0" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("command", list(_COMMANDS))
    @pytest.mark.parametrize("rest", [["--help"], [], ["--bogus"]])
    def test_narrowed_parser_speaks_as_the_full_one(self, command, rest, capsys):
        argv = [command, *rest]
        with pytest.raises(SystemExit) as full:
            build_parser().parse_args(argv)
        expected = capsys.readouterr()
        assert main(argv) == full.value.code
        assert capsys.readouterr() == expected
        assert expected.out if rest == ["--help"] else expected.err

    def test_main_builds_only_the_named_subparser(self, monkeypatch):
        built = []

        def recording(command=None):
            built.append(command)
            return build_parser(command)

        monkeypatch.setattr(cli, "build_parser", recording)
        main(["report", "--help"])
        main(["--help"])
        main(["reportx"])
        assert built == ["report", None, None]

    def test_bad_pair_is_usage_error(self, tmp_path):
        snap = snap_of(coupled_graph(), tmp_path)
        code = main(
            ["evaluate", "--snapshot", snap, "--pair", "fp-merge,full",
             "--out", str(tmp_path / "out")]
        )
        assert code == 1

    def test_bad_fraction_is_usage_error(self, tmp_path):
        snap = snap_of(coupled_graph(), tmp_path)
        code = main(
            ["recommend", "--snapshot", snap, "--strategy", "full",
             "--at", hid("T"), "--files", "a", "--minsup", "abc"]
        )
        assert code == 1


class TestIngestAndValidate:
    def test_round_trip(self, git_sandbox, tmp_path, capsys):
        s = git_sandbox
        s.commit("one", {"a.txt": "1"})
        s.commit("two", {"b.txt": "2"})
        snap = tmp_path / "repo.jsonl"
        assert main(["ingest", "--repo", str(s.path), "--out", str(snap)]) == 0
        assert "2 commits" in capsys.readouterr().out
        assert snap.exists()

        assert main(["snapshot-validate", str(snap)]) == 0
        assert capsys.readouterr().out.startswith("ok:")

    def test_missing_repo_is_data_error(self, tmp_path, capsys):
        code = main(
            ["ingest", "--repo", str(tmp_path / "gone"), "--out",
             str(tmp_path / "x.jsonl")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_non_utf8_path_is_data_error_naming_the_line(self, tmp_path, capsys):
        snap = snap_of(coupled_graph(), tmp_path)
        lines = Path(snap).read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[1])
        rec["files"].append("bad\udcff.txt")
        lines[1] = json.dumps(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        for argv in (["snapshot-validate", str(bad)],
                     ["evaluate", "--snapshot", str(bad), "--pair", "full,fp-merge",
                      "--out", str(tmp_path / "out")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "line 2" in err and "not valid UTF-8" in err
        assert not (tmp_path / "out").exists()

    def test_corrupt_snapshot_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{}\n")
        assert main(["snapshot-validate", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestRecommend:
    def test_text_output(self, tmp_path, capsys):
        snap = snap_of(coupled_graph(), tmp_path)
        code = main(
            ["recommend", "--snapshot", snap, "--strategy", "full",
             "--at", hid("T"), "--files", "a"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip() == "1. b  support=1.000 confidence=1.000 (a -> b)"

    def test_json_output(self, tmp_path, capsys):
        snap = snap_of(coupled_graph(), tmp_path)
        code = main(
            ["recommend", "--snapshot", snap, "--strategy", "full",
             "--at", hid("T"), "--files", "a", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "full"
        assert payload["query"] == ["a"]
        assert len(payload["entries"]) == 1
        entry = payload["entries"][0]
        assert entry["rank"] == 1
        assert entry["file"] == "b"
        assert entry["score"] == {"num": 1, "den": 1}
        assert entry["rule"]["antecedent"] == ["a"]

    def test_no_rules_prints_no_recommendation(self, tmp_path, capsys):
        snap = snap_of(coupled_graph(), tmp_path)
        code = main(
            ["recommend", "--snapshot", snap, "--strategy", "full",
             "--at", hid("T"), "--files", "zzz"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "no recommendation"

    def test_unique_prefix_resolves(self, tmp_path, capsys):
        snap = snap_of(coupled_graph(), tmp_path)
        code = main(
            ["recommend", "--snapshot", snap, "--strategy", "full",
             "--at", hid("T")[:10], "--files", "a"]
        )
        assert code == 0

    @pytest.mark.parametrize("at", [hid("T")[:10].upper(), hid("T").upper()])
    def test_upper_case_id_resolves(self, tmp_path, capsys, at):
        # git rev-parse takes an id or prefix in any letter case
        assert at != at.lower()
        snap = snap_of(coupled_graph(), tmp_path)
        code = main(
            ["recommend", "--snapshot", snap, "--strategy", "full",
             "--at", at, "--files", "a", "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["at_commit"] == hid("T")

    def test_unknown_upper_case_prefix_keeps_its_text(self, tmp_path, capsys):
        snap = snap_of(coupled_graph(), tmp_path)
        code = main(
            ["recommend", "--snapshot", snap, "--strategy", "full",
             "--at", "FFFFFF", "--files", "a"]
        )
        assert code == 2
        assert "unknown commit id: FFFFFF" in capsys.readouterr().err

    def test_ambiguous_prefix_is_data_error(self, tmp_path, capsys):
        # G (a3...) and B (ae...) share the prefix "a"
        g = build_graph(
            [
                mk_commit("A", [], 1, ["f"]),
                mk_commit("G", ["A"], 2, ["f"]),
                mk_commit("B", ["G"], 3, ["f"]),
            ],
            "B",
        )
        snap = snap_of(g, tmp_path)
        code = main(
            ["recommend", "--snapshot", snap, "--strategy", "full",
             "--at", "a", "--files", "f"]
        )
        assert code == 2
        assert "ambiguous" in capsys.readouterr().err

    def test_unknown_commit_is_data_error(self, tmp_path, capsys):
        snap = snap_of(coupled_graph(), tmp_path)
        code = main(
            ["recommend", "--snapshot", snap, "--strategy", "full",
             "--at", "f" * 40, "--files", "a"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-commits", "0"), ("--max-rules", "-2"), ("--minconf", "0")],
    )
    def test_out_of_range_flag_is_refused_before_loading(
        self, tmp_path, capsys, flag, value
    ):
        code = main(
            ["recommend", "--snapshot", str(tmp_path / "missing.jsonl"),
             "--strategy", "full", "--at", hid("T"), "--files", "a", flag, value]
        )
        assert code == 1
        assert f"argument {flag}: must" in capsys.readouterr().err

    def test_empty_files_is_usage_error(self, tmp_path):
        snap = snap_of(coupled_graph(), tmp_path)
        code = main(
            ["recommend", "--snapshot", snap, "--strategy", "full",
             "--at", hid("T"), "--files", ","]
        )
        assert code == 1

    def test_empty_files_is_refused_before_loading(self, tmp_path, capsys):
        code = main(
            ["recommend", "--snapshot", str(tmp_path / "missing.jsonl"),
             "--strategy", "full", "--at", hid("T"), "--files", ","]
        )
        assert code == 1
        assert "--files must name at least one file" in capsys.readouterr().err

    def test_empty_at_is_refused_before_loading(self, tmp_path, capsys):
        # one commit, so the empty prefix is not ambiguous and would resolve
        snap = snap_of(build_graph([mk_commit("A", [], 1, ["x.py"])], "A"), tmp_path)
        for path in (snap, str(tmp_path / "missing.jsonl")):
            code = main(["recommend", "--snapshot", path, "--strategy", "full",
                         "--at", "", "--files", "x.py"])
            assert code == 1
            assert "--at must name a commit" in capsys.readouterr().err


class TestEvaluate:
    def run_eval(self, snap, out, *extra):
        return main(
            ["evaluate", "--snapshot", snap, "--pair", "full,fp-no-merge",
             "--out", str(out), *extra]
        )

    def test_writes_outputs(self, tmp_path, capsys):
        snap = snap_of(branchy_graph(), tmp_path)
        out = tmp_path / "out"
        assert self.run_eval(snap, out) == 0
        assert (out / "records.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "run_metadata.json").exists()

        summary = json.loads((out / "summary.json").read_text())
        assert summary["strategy_pair"] == ["full", "fp-no-merge"]
        assert summary["fairness"] is True  # profile default
        assert summary["events"] == 3
        assert summary["repo_label"] == "fixture"

        stdout = capsys.readouterr().out
        assert "== fixture: full vs fp-no-merge (fairness on) ==" in stdout
        assert "errors:" not in stdout

        header = (out / "records.csv").read_text().splitlines()[0]
        assert header.split(",") == [
            "commit", "oracle", "query", "strategy", "outcome",
            "oracle_rank", "average_precision", "n_recommendations",
            "n_rules",
        ]

    def test_per_commit_errors_are_printed(self, tmp_path, capsys,
                                           monkeypatch):
        snap = snap_of(branchy_graph(), tmp_path)
        fail_prepare_on(monkeypatch, "M")
        assert self.run_eval(snap, tmp_path / "out") == 0
        stdout = capsys.readouterr().out
        assert f"errors: 1 (first: {hid('M')}: RuntimeError: boom)\n" in stdout
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["events"] == 3

    def test_metadata_names_the_snapshot(self, tmp_path):
        snap = snap_of(branchy_graph(), tmp_path)
        out = tmp_path / "out"
        assert self.run_eval(snap, out) == 0
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["command"] == "evaluate"
        assert meta["snapshot_path"] == snap
        assert len(meta["snapshot_sha256"]) == 64
        assert meta["outputs"] == ["records.csv", "summary.json"]
        assert meta["settings"]["pair"] == ["full", "fp-no-merge"]

    def test_reruns_are_byte_identical(self, tmp_path):
        snap = snap_of(branchy_graph(), tmp_path)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert self.run_eval(snap, out1) == 0
        assert self.run_eval(snap, out2) == 0
        for name in ("records.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        meta1 = json.loads((out1 / "run_metadata.json").read_text())
        meta2 = json.loads((out2 / "run_metadata.json").read_text())
        meta1.pop("generated_at")
        meta2.pop("generated_at")
        assert meta1 == meta2

    def test_fairness_override_needs_consent(self, tmp_path, capsys):
        snap = snap_of(branchy_graph(), tmp_path)
        out = tmp_path / "out"
        assert self.run_eval(snap, out, "--fairness", "off") == 1
        assert "--unsafe-override" in capsys.readouterr().err

        code = self.run_eval(snap, out, "--fairness", "off", "--unsafe-override")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fairness"] is False

    def test_agreeing_override_needs_no_consent(self, tmp_path):
        snap = snap_of(branchy_graph(), tmp_path)
        assert self.run_eval(snap, tmp_path / "out", "--fairness", "on") == 0

    def test_collector_override_needs_consent(self, tmp_path, capsys):
        snap = snap_of(branchy_graph(), tmp_path)
        code = self.run_eval(snap, tmp_path / "out", "--collector",
                             "per-file")
        assert code == 1
        assert "collector" in capsys.readouterr().err

    def test_config_file_collector_needs_consent(self, tmp_path, capsys):
        snap = snap_of(branchy_graph(), tmp_path)
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"collector": "sequential"}))
        args = ["evaluate", "--snapshot", snap, "--pair", "full,fp-merge",
                "--out", str(out)]
        assert main([*args, "--collector", "sequential"]) == 1
        flag_error = capsys.readouterr().err
        assert "collector contradict" in flag_error

        assert main([*args, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == flag_error

        assert main([*args, "--config", str(cfg), "--unsafe-override"]) == 0
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["settings"]["recommender"]["collector"] == "sequential"

    def test_merge_profile_defaults(self, tmp_path):
        snap = snap_of(branchy_graph(), tmp_path)
        out = tmp_path / "out"
        code = main(
            ["evaluate", "--snapshot", snap, "--pair", "full,fp-merge",
             "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fairness"] is False
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["settings"]["recommender"]["collector"] == "per-file"

    # sha256 of records.csv and summary.json, recorded from the
    # implementation whose full walk keyed its heap on inverted id bytes;
    # the integer-rank walk must reproduce them.
    GOLDEN = {
        (7, 70, "full,fp-no-merge"): (
            "d55d1ccc4e47dc67a509e127aecc884e739b9024186d615bdda698cd8b3b87e0",
            "9fb3fbcd5d79649f4b80613af937490671f6964f072bb19cc1316bbd0de71fcb",
        ),
        (7, 70, "full,fp-merge"): (
            "2fc12b6ab57e1165bf3e085aa839eaa6140bb7167e8e638c91eb6f4cff0b523b",
            "549dde8dec023601fc1617c64ada259aa50bc7fba35e75b3381cdeec6cea5040",
        ),
        (5, 50, "full,fp-no-merge"): (
            "0b852b509e5067ccede506f27ee8ba96457f9af06d71f4075e70fc71d1bb442c",
            "b479693c28b63b14405fcb8d23db0eb94f3bbaa3ede69b68b26732e1b99f8447",
        ),
        (5, 50, "full,fp-merge"): (
            "99ababe375101ecc45e0d5249cbb2034dfb41bba4b670170f36f687c3e9c960f",
            "013f42f8d3ab664ca924287f74e3e521a0d23ac73ab834374f22895035eed980",
        ),
    }

    @pytest.mark.parametrize("seed, n_commits", [(7, 70), (5, 50)])
    def test_outputs_match_golden_hashes(self, tmp_path, seed, n_commits):
        snap = snap_of(generic_graph(seed, n_commits), tmp_path)
        for pair in ("full,fp-no-merge", "full,fp-merge"):
            out = tmp_path / pair.replace(",", "_")
            code = main(["evaluate", "--snapshot", snap, "--pair", pair,
                         "--out", str(out)])
            assert code == 0
            digests = tuple(
                hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("records.csv", "summary.json")
            )
            assert digests == self.GOLDEN[(seed, n_commits, pair)], pair


class TestOutputDirResolution:
    ARGS = ["evaluate", "--pair", "full,fp-no-merge"]
    WRITING = [["evaluate", "--pair", "full,fp-merge"], ["analyze-branches"],
               ["analyze-cochange"], ["sample-merges"]]

    def test_no_output_dir_is_usage_error(self, tmp_path, capsys):
        snap = snap_of(branchy_graph(), tmp_path)
        assert main([*self.ARGS, "--snapshot", snap]) == 1
        assert OUTPUT_DIR_ENV in capsys.readouterr().err

    @pytest.mark.parametrize("argv", WRITING, ids=lambda argv: argv[0])
    def test_no_output_dir_is_refused_before_the_snapshot_is_read(
        self, tmp_path, capsys, argv
    ):
        missing = str(tmp_path / "missing.jsonl")
        assert main([*argv, "--snapshot", missing]) == 1
        assert "no output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", WRITING, ids=lambda argv: argv[0])
    def test_bad_snapshot_creates_no_output_dir(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{}\n")
        out = tmp_path / "out"
        assert main([*argv, "--snapshot", str(bad), "--out", str(out)]) == 2
        assert "cochange: error: " in capsys.readouterr().err
        assert not out.exists()

    def test_env_var_supplies_output_dir(self, tmp_path, monkeypatch):
        snap = snap_of(branchy_graph(), tmp_path)
        target = tmp_path / "from-env"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
        assert main([*self.ARGS, "--snapshot", snap]) == 0
        assert (target / "summary.json").exists()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        snap = snap_of(branchy_graph(), tmp_path)
        env_dir = tmp_path / "from-env"
        flag_dir = tmp_path / "from-flag"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
        code = main([*self.ARGS, "--snapshot", snap, "--out", str(flag_dir)])
        assert code == 0
        assert (flag_dir / "summary.json").exists()
        assert not env_dir.exists()

    def test_config_file_supplies_output_dir(self, tmp_path):
        snap = snap_of(branchy_graph(), tmp_path)
        target = tmp_path / "from-config"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output_dir": str(target)}))
        code = main([*self.ARGS, "--snapshot", snap, "--config", str(cfg)])
        assert code == 0
        assert (target / "summary.json").exists()

    @pytest.mark.parametrize("snapshot", ["present", "missing"])
    @pytest.mark.parametrize("source, code, message", [
        ("flag", 1, "--out must name a directory"),
        ("env", 1, f"no output directory: pass --out, set {OUTPUT_DIR_ENV}, "
                   "or put output_dir in the config file"),
        ("config", 2, "config key 'output_dir' must name a directory"),
    ])
    @pytest.mark.parametrize("argv", WRITING, ids=lambda argv: argv[0])
    def test_empty_output_dir_writes_nothing(
        self, tmp_path, capsys, monkeypatch, argv, source, code, message, snapshot
    ):
        # Path("") is the working directory: an empty value must not reach it,
        # and is refused before the snapshot is read.
        snap = (snap_of(branchy_graph(), tmp_path) if snapshot == "present"
                else str(tmp_path / "missing.jsonl"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output_dir": ""} if source == "config" else {}))
        monkeypatch.setenv(OUTPUT_DIR_ENV, "")
        extra = ["--out", ""] if source == "flag" else []
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main([*argv, "--snapshot", snap, "--config", str(cfg), *extra]) == code
        assert capsys.readouterr().err == f"cochange: error: {message}\n"
        assert list(work.iterdir()) == []

    def test_empty_env_var_falls_back_to_config(self, tmp_path, monkeypatch):
        snap = snap_of(branchy_graph(), tmp_path)
        target = tmp_path / "from-config"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output_dir": str(target)}))
        monkeypatch.setenv(OUTPUT_DIR_ENV, "")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main([*self.ARGS, "--snapshot", snap, "--config", str(cfg)]) == 0
        assert (target / "summary.json").exists()
        assert list(work.iterdir()) == []


class TestConfigPrecedence:
    def recommend(self, snap, *extra):
        return main(
            ["recommend", "--snapshot", snap, "--strategy", "full",
             "--at", hid("T"), "--files", "a", *extra]
        )

    def test_config_file_thresholds_apply(self, tmp_path, capsys):
        snap = snap_of(coupled_graph(), tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"minconf": 1.5}))
        # impossible confidence bar: nothing can be recommended
        assert self.recommend(snap, "--config", str(cfg)) == 2

        cfg.write_text(json.dumps({"max_changeset_size": 1}))
        assert self.recommend(snap, "--config", str(cfg)) == 0
        assert capsys.readouterr().out.strip() == "no recommendation"

        # out of range in the file is a data error, not a usage error
        cfg.write_text(json.dumps({"max_commits": 0}))
        assert self.recommend(snap, "--config", str(cfg)) == 2

    def test_flags_beat_config_file(self, tmp_path, capsys):
        snap = snap_of(coupled_graph(), tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_changeset_size": 1}))
        code = self.recommend(
            snap, "--config", str(cfg), "--max-changeset-size", "10"
        )
        assert code == 0
        assert "1. b" in capsys.readouterr().out

    def test_config_must_be_an_object(self, tmp_path):
        snap = snap_of(coupled_graph(), tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert self.recommend(snap, "--config", str(cfg)) == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("max_rules", [1]),
            ("max_rules", True),
            ("max_commits", 2.5),
            ("max_changeset_size", "10"),
            ("minsup", "abc"),
            ("minsup", False),
            ("minconf", [0.5]),
            ("minconf", "1/0"),
            ("collector", "bogus"),
            ("collector", 1),
        ],
    )
    def test_malformed_value_names_the_key(self, tmp_path, capsys, key, value):
        snap = snap_of(coupled_graph(), tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert self.recommend(snap, "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err
        assert "Traceback" not in err


class TestSettingsTable:
    def test_table_covers_every_recommender_field(self):
        assert set(_CONFIG_FIELDS) == {f.name for f in fields(RecommenderConfig)}

    # (field, flag text, config-file value, run_metadata.json echo); none
    # is the full,fp-merge profile's value or the default.
    SETTINGS = [
        ("minsup", "1/5", "1/5", {"num": 1, "den": 5}),
        ("minconf", "0.3", 0.3, {"num": 3, "den": 10}),
        ("max_commits", "40", 40, 40),
        ("max_changeset_size", "9", 9, 9),
        ("max_rules", "4", 4, 4),
        ("collector", "sequential", "sequential", "sequential"),
    ]

    @pytest.mark.parametrize("key, flag, value, echo", SETTINGS)
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_setting_reaches_run_metadata(
        self, tmp_path, key, flag, value, echo, source
    ):
        snap = snap_of(branchy_graph(), tmp_path)
        out = tmp_path / "out"
        if source == "flag":
            extra = [f"--{key.replace('_', '-')}", flag]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            extra = ["--config", str(cfg)]
        assert main(["evaluate", "--snapshot", snap, "--pair", "full,fp-merge",
                     "--out", str(out), "--unsafe-override", *extra]) == 0
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["settings"]["recommender"][key] == echo

    def test_profile_is_checked_before_the_snapshot_is_read(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["evaluate", "--snapshot", str(tmp_path / "missing.jsonl"),
                     "--pair", "full,fp-merge", "--out", str(out),
                     "--collector", "sequential"])
        assert code == 1
        err = capsys.readouterr().err
        assert "collector contradict the full,fp-merge profile" in err
        assert not out.exists()


class TestConfigFileErrors:
    CONTENTS = [
        (b"\xff\xfe", ": 'utf-8' codec can't decode byte 0xff"),
        (b"{bad", " is not valid JSON: "),
        (b"[1]", " does not hold a JSON object\n"),
        (b"[" * 100_000, ": maximum recursion depth exceeded"),
        (b"1" * 5000, ": "),  # longer than int() converts
    ]

    COMMANDS = ["recommend", "evaluate", "analyze-branches", "analyze-cochange",
                "sample-merges"]

    @staticmethod
    def argv(command, snap, cfg, out):
        argv = [command, "--snapshot", snap, "--config", str(cfg)]
        if command == "recommend":
            argv += ["--strategy", "full", "--at", hid("T"), "--files", "a"]
        else:
            argv += ["--out", str(out)]
        if command == "evaluate":
            argv += ["--pair", "full,fp-merge"]
        return argv

    @pytest.mark.parametrize("content, message", CONTENTS)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_is_data_error_naming_the_file(
        self, tmp_path, capsys, command, content, message
    ):
        snap = snap_of(coupled_graph(), tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert main(self.argv(command, snap, cfg, tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cochange: error: {cfg}{message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_key_is_data_error_before_the_snapshot_is_read(
        self, tmp_path, capsys, command
    ):
        # Misspelt keys next to one that every command reads; the first
        # unknown key in sorted order is named.
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out"
        cfg.write_text(json.dumps({"minsupp": "1/2", "max_rule": 1,
                                   "output_dir": str(out)}))
        missing = str(tmp_path / "missing.jsonl")
        assert main(self.argv(command, missing, cfg, out)) == 2
        assert capsys.readouterr().err == (
            f"cochange: error: {cfg}: unknown config key 'max_rule'\n")
        assert not out.exists()


class TestAnalyzeBranches:
    EXPECTED = [
        "winner_rate_branch_length_single.csv",
        "winner_rate_branch_length_six_plus.csv",
        "winner_rate_merge_size_single.csv",
        "winner_rate_merge_size_six_plus.csv",
        "branch_analysis.json",
        "run_metadata.json",
    ]

    def test_writes_all_tables(self, tmp_path, capsys):
        snap = snap_of(branchy_graph(), tmp_path)
        out = tmp_path / "out"
        code = main(["analyze-branches", "--snapshot", snap, "--out", str(out)])
        assert code == 0
        for name in self.EXPECTED:
            assert (out / name).exists(), name

        analysis = json.loads((out / "branch_analysis.json").read_text())
        assert analysis["cases_evaluated"] == 3
        assert analysis["cases_diagnosed"] == 3
        assert analysis["causing_merges_histogram"] == {"1": 3}

        single = (out / "winner_rate_branch_length_single.csv").read_text()
        rows = single.splitlines()
        assert rows[0] == "bin_low,bin_high,wins_full,wins_fp,draws,n"
        assert all(row.startswith("6,6,1,0,0,1") for row in rows[1:])

    PROFILE_ERROR = (
        "cochange: error: collector contradict the full,fp-merge profile"
    )

    def test_collector_flag_contradicting_profile_is_refused(
        self, tmp_path, capsys
    ):
        snap = snap_of(branchy_graph(), tmp_path)
        out = tmp_path / "out"
        code = main(["analyze-branches", "--snapshot", snap, "--out", str(out),
                     "--collector", "sequential"])
        assert code == 1
        assert capsys.readouterr().err == self.PROFILE_ERROR + "\n"
        assert not out.exists()
        # evaluate refuses the same pair and collector with the same words
        code = main(["evaluate", "--snapshot", snap, "--pair", "full,fp-merge",
                     "--out", str(out), "--collector", "sequential"])
        assert code == 1
        assert capsys.readouterr().err.startswith(self.PROFILE_ERROR)

    def test_config_file_collector_contradicting_profile_is_refused(
        self, tmp_path, capsys
    ):
        snap = snap_of(branchy_graph(), tmp_path)
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"collector": "sequential"}))
        code = main(["analyze-branches", "--snapshot", snap, "--out", str(out),
                     "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == self.PROFILE_ERROR + "\n"
        assert not out.exists()

    def test_profile_collector_is_accepted(self, tmp_path):
        snap = snap_of(branchy_graph(), tmp_path)
        out = tmp_path / "out"
        code = main(["analyze-branches", "--snapshot", snap, "--out", str(out),
                     "--collector", "per-file"])
        assert code == 0

    def test_per_commit_errors_go_to_stderr(self, tmp_path, capsys,
                                            monkeypatch):
        snap = snap_of(branchy_graph(), tmp_path)
        out = tmp_path / "out"
        args = ["analyze-branches", "--snapshot", snap, "--out", str(out)]
        assert main(args) == 0
        clean = capsys.readouterr()
        assert clean.err == ""
        expected = (out / "branch_analysis.json").read_bytes()

        fail_prepare_on(monkeypatch, "M")
        assert main(args) == 0
        failed = capsys.readouterr()
        assert failed.err == f"errors: 1 (first: {hid('M')}: RuntimeError: boom)\n"
        assert failed.out == clean.out
        assert (out / "branch_analysis.json").read_bytes() == expected

    def test_median_cap(self, tmp_path):
        snap = snap_of(branchy_graph(), tmp_path)
        out = tmp_path / "out"
        code = main(
            ["analyze-branches", "--snapshot", snap, "--out", str(out),
             "--cap", "median"]
        )
        assert code == 0
        analysis = json.loads((out / "branch_analysis.json").read_text())
        assert analysis["cases_after_cap"] == 3

    def test_difference_no_merge_explains_is_counted_unattributed(
        self, tmp_path, capsys
    ):
        # The full walk reaches X1 and X2 through M, an unrelated root
        # history; fp-merge sees only M's squashed diff, which is over
        # max_changeset_size.  No merge's branch holds X1 or X2 (a
        # disjoint history adds nothing to one), so nothing is blamed.
        commits = [mk_commit("A", [], 1, ["q.txt", "r.txt"])]
        prev = "A"
        for i in range(6):
            commits.append(mk_commit(f"P{i}", [prev], 2 + i, ["q.txt", "r.txt"]))
            prev = f"P{i}"
        x1 = ["q.txt"] + [f"x1_{i}" for i in range(5)]
        x2 = ["r.txt"] + [f"x2_{i}" for i in range(7)]
        commits += [
            mk_commit("X1", [], 3, x1),
            mk_commit("X2", ["X1"], 5, x2),
            clean_merge("M", ["P5", "X2"], 10, x1 + x2),
            mk_commit("C", ["M"], 11, ["q.txt", "r.txt"]),
        ]
        assert len(commits[-2].changeset) == 14
        snap = snap_of(build_graph(commits, "C"), tmp_path)
        out = tmp_path / "out"
        assert main(["analyze-branches", "--snapshot", snap, "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"0 diagnosed cases (0 with equal collections, 2 unattributed) -> {out}\n"
        )
        analysis = json.loads((out / "branch_analysis.json").read_text())
        assert analysis["cases_evaluated"] == 2
        assert analysis["cases_unattributed"] == 2
        assert analysis["cases_diagnosed"] == 0

    # sha256 of every output except run_metadata.json, in name order,
    # recorded from the implementation that re-walked every case's
    # collections; the single evaluation pass must reproduce them.
    GOLDEN = {
        (7, 70, "none"): (
            "dd906fde147ad4310b3ed9222fd9990090218ab027c14ab19ce23621e6644c34",
            "9b030a3b3b310dc7ffcfd966513542d60bc5f08bcab5f7fe8666fbe529c5ebc5",
            "f3d957ae666357ff4d3dda694d1126bf118c674b90fd29b32d13ab0a23387556",
            "0e09266b2d911dd60d847c71610742fe8c9c559307346dd2ac06fac83ef9c862",
            "571b5023297630b6067340f487104e00b35a77a21e59894513450fa0df59428b",
        ),
        (7, 70, "median"): (
            "3a578eaa41364da9854fd14567c613d4bf91727c7e341492b97bac3aa5ef4c87",
            "9b030a3b3b310dc7ffcfd966513542d60bc5f08bcab5f7fe8666fbe529c5ebc5",
            "5c7f886b1e9a5978b52568a21c27adeee8fe88a77e526de0ca360a4c34bfc378",
            "0e09266b2d911dd60d847c71610742fe8c9c559307346dd2ac06fac83ef9c862",
            "7f6e25b3500c4c93375fd71b4d5db651e9987c69c4650ea6fc64a9343dbc198c",
        ),
        (7, 70, "3"): (
            "c57fc4d9e6a20cbbf5e12e6f7b296eb6c74095a9483270cd0a4cf4f8a3da8898",
            "9b030a3b3b310dc7ffcfd966513542d60bc5f08bcab5f7fe8666fbe529c5ebc5",
            "301aa97c83fff69e30e83a76ac361084aaa8431b9f504bc449a37dfe9a3880ae",
            "0e09266b2d911dd60d847c71610742fe8c9c559307346dd2ac06fac83ef9c862",
            "8abcdceb170472b28dd5325bdf2098a889d6b6cf412e475794e954d29a7edc24",
        ),
        (5, 50, "none"): (
            "af8ff35bc273cba9e40437948e9c74cedaa3c6bdab8a5bad01ac22579d9116e4",
            "fd3cd1c15ae22976cb2cedb9d52552f3070d75e24f827b236c3596c283040fc8",
            "519d96ae4dda319da2bf32bf996ac218c493ca72742f9f50c3d9c9e7f726386a",
            "f837e6b7f264d646aee2251a9e1ec3f8f9175d91d5eccfa883bf5b1e1965b1fe",
            "3ce60f8510d9391cd049846e26f862738a70ee9b82a54ebc5b18a2adb4c93c5a",
        ),
        (5, 50, "median"): (
            "edd8c8a74fe268b3d34ebe464317a3dacd7116404561d3a6b102a149cc4a0555",
            "fd3cd1c15ae22976cb2cedb9d52552f3070d75e24f827b236c3596c283040fc8",
            "4cca593f82092f4a28a8f34623ed49249c98be2b9690fbb47c41f7a17706f0b2",
            "f837e6b7f264d646aee2251a9e1ec3f8f9175d91d5eccfa883bf5b1e1965b1fe",
            "aaca639667931e9f85bbdd6d423961526797ccbf9077d4ec801d85a9385f85e5",
        ),
        (5, 50, "3"): (
            "e728c3560d5f962e40580754f4366755109e755b3039c601c11cf6de2839326c",
            "301aa97c83fff69e30e83a76ac361084aaa8431b9f504bc449a37dfe9a3880ae",
            "575b872577b824438f1d79e004949d2381631328dc7e8e91d02c4eafd65e14eb",
            "11c64b4b2399637b31ba2dea50756ca2e83471063b5746ef91396c0eadf4a443",
            "bfc19ed2b513fcded92d99d917a232e2dd7772fe6687088d278e844e21209273",
        ),
    }

    @pytest.mark.parametrize("seed, n_commits", [(7, 70), (5, 50)])
    def test_outputs_match_golden_hashes(self, tmp_path, seed, n_commits):
        snap = snap_of(generic_graph(seed, n_commits), tmp_path)
        for cap in ("none", "median", "3"):
            out = tmp_path / cap
            code = main(
                ["analyze-branches", "--snapshot", snap, "--out", str(out),
                 "--cap", cap, "--multi-threshold", "3"]
            )
            assert code == 0
            digests = tuple(
                hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in sorted(self.EXPECTED)
                if name != "run_metadata.json"
            )
            assert digests == self.GOLDEN[(seed, n_commits, cap)], cap

    def test_cases_evaluated_equals_evaluate_events(self, tmp_path):
        snap = snap_of(generic_graph(7, 70), tmp_path)
        branches, evaluate = tmp_path / "branches", tmp_path / "evaluate"
        assert main(["analyze-branches", "--snapshot", snap,
                     "--out", str(branches)]) == 0
        assert main(["evaluate", "--snapshot", snap, "--pair", "full,fp-merge",
                     "--out", str(evaluate)]) == 0
        analysis = json.loads((branches / "branch_analysis.json").read_text())
        summary = json.loads((evaluate / "summary.json").read_text())
        assert analysis["cases_evaluated"] == summary["events"] > 0

    def test_bad_cap_is_usage_error(self, tmp_path):
        snap = snap_of(branchy_graph(), tmp_path)
        code = main(
            ["analyze-branches", "--snapshot", snap,
             "--out", str(tmp_path / "o"), "--cap", "big"]
        )
        assert code == 1


class TestAnalyzeCochange:
    def test_study_outputs(self, tmp_path, capsys):
        snap = snap_of(study_graph(), tmp_path)
        out = tmp_path / "out"
        code = main(["analyze-cochange", "--snapshot", snap, "--out", str(out)])
        assert code == 0

        rows = (out / "precision.csv").read_text().splitlines()
        assert rows[0] == "merge_id,mode,branch_length,merge_size,mean_precision"
        assert rows[1] == f"{hid('M')},from-merge,2,4,0.333333"
        assert rows[2] == f"{hid('M')},from-branch,2,4,1.000000"

        payload = json.loads((out / "cochange.json").read_text())
        assert payload["modes"]["from-merge"]["mean_precision"] == {
            "num": 1, "den": 3,
        }
        assert payload["modes"]["from-branch"]["mean_precision"] == {
            "num": 1, "den": 1,
        }

        stdout = capsys.readouterr().out
        assert "from-merge: 1 merges, mean precision 0.333" in stdout
        assert "from-branch: 1 merges, mean precision 1.000" in stdout

    def test_horizon_must_be_positive(self, tmp_path):
        snap = snap_of(study_graph(), tmp_path)
        code = main(
            ["analyze-cochange", "--snapshot", snap,
             "--out", str(tmp_path / "o"), "--horizon", "0"]
        )
        assert code == 1

    # sha256 of cochange.json and precision.csv, recorded from the
    # implementation that expanded inner merges through a stack on every
    # branch_commits call; the once-built branch table must reproduce them.
    GOLDEN = {
        ("7-70", "100"): (
            "60a596d45a6f47b3cda6a514b13d743a34aaa11ec3becffba280058a67a317e7",
            "273b33288b9034c3573e2ae591b77054c50146878d73c45a480260be7e2d98af",
        ),
        ("7-70", "5"): (
            "9ad853d3538c7fd30b6d4adb0842d1c84440b4182abcd6f4f4c3f69ac48ec9dd",
            "ea35f87349a40ffcf8d04172709bc2ecedbf3d19e747f18314cfcb7ea2b08588",
        ),
        ("5-50", "100"): (
            "1890cbece2bd7e10a8152c649ba0f1572ed19d36f0a67bb739337fe33ebf8e68",
            "39606726281f77a27cec84c8338c4fee8cbd091b4dd2ef686b4a7a4562c5daea",
        ),
        ("5-50", "5"): (
            "6f33c6adfe0f0370bb64b6d8a2fad3a83727ef40d29dea982427af15b00298bc",
            "6e61d082b84ed6bb412f14cc41c0953c027e222972e24d8068bcf5b843976829",
        ),
        ("nested", "100"): (
            "709f66ddf438be6081268457e3c190a6ea6906c038e8c1a242c150f5faf36f12",
            "2415a4447fd815f3f0bf98d0735cf347ad232c746e0075a84f4936d98003c9b1",
        ),
        ("nested", "5"): (
            "07053e76c67a3b73f93a265c1deacb6ad857024996749ec965bb69f7983955ac",
            "2415a4447fd815f3f0bf98d0735cf347ad232c746e0075a84f4936d98003c9b1",
        ),
    }

    def test_outputs_match_golden_hashes(self, tmp_path, golden_snapshot):
        name, snap = golden_snapshot
        for horizon in ("100", "5"):
            out = tmp_path / horizon
            code = main(["analyze-cochange", "--snapshot", snap,
                         "--out", str(out), "--horizon", horizon])
            assert code == 0
            got = digests(out, ("cochange.json", "precision.csv"))
            assert got == self.GOLDEN[(name, horizon)], horizon

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze-cochange", "--minsup", "1/2"],
            ["sample-merges", "--collector", "per-file"],
        ],
    )
    def test_recommender_flags_are_not_accepted(self, tmp_path, argv):
        snap = snap_of(study_graph(), tmp_path)
        code = main([*argv, "--snapshot", snap, "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("command", ["analyze-cochange", "sample-merges"])
    def test_config_file_sets_output_dir(self, tmp_path, monkeypatch, command):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        snap = snap_of(study_graph(), tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output_dir": str(tmp_path / "from-config")}))
        assert main([command, "--snapshot", snap, "--config", str(cfg)]) == 0
        assert (tmp_path / "from-config" / "run_metadata.json").exists()

    @pytest.mark.parametrize("command, value", [
        ("analyze-cochange", 5), ("sample-merges", ["a"]),
    ])
    def test_non_string_output_dir_is_data_error(
        self, tmp_path, capsys, command, value
    ):
        snap = snap_of(study_graph(), tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output_dir": value}))
        assert main([command, "--snapshot", snap, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"cochange: error: config key 'output_dir' must be a string: {value!r}\n"
        )


class TestSampleMerges:
    def test_sampled_rows(self, tmp_path, capsys):
        snap = snap_of(study_graph(), tmp_path)
        out = tmp_path / "out"
        code = main(
            ["sample-merges", "--snapshot", snap, "--out", str(out),
             "--min-added", "4"]
        )
        assert code == 0
        rows = (out / "sampled_merges.csv").read_text().splitlines()
        assert rows[0] == "merge_id,added_cochanges,branch_length,merge_size"
        assert rows[1] == f"{hid('M')},4,2,4"
        assert hid("M") in capsys.readouterr().out

    def test_n_must_be_positive(self, tmp_path):
        snap = snap_of(study_graph(), tmp_path)
        code = main(
            ["sample-merges", "--snapshot", snap,
             "--out", str(tmp_path / "o"), "--n", "0"]
        )
        assert code == 1


    # sha256 of sampled_merges.csv, recorded alongside the analyze-cochange
    # hashes above.
    GOLDEN = {
        ("7-70", "defaults"):
            "3e523dc24456cdd7f14515c6b78ed9aff95274552bb351b6754234de338f5d41",
        ("7-70", "sampled"):
            "9bae6ff7e76363a5b78d1abde85cb04a178b583ff72d1a950948d2f5b7b4ba5a",
        ("5-50", "defaults"):
            "79d1f5c024703e5f9f95cc91190611b7a672d75e7fae5bf1ac474eab29d5da44",
        ("5-50", "sampled"):
            "a803a772210b2aa14d12ba9732c39f956082a3b7d8afbb552f171b29343c4ad1",
        ("nested", "defaults"):
            "a0ec1715aabd02b48204faf1bcbcaa2c1ab7f4ed61ee69d386da3f8346637d35",
        ("nested", "sampled"):
            "12615b16f09a8449003841644adeb45992732b5424aa35013b0f52191b5717d5",
    }

    def test_outputs_match_golden_hashes(self, tmp_path, golden_snapshot):
        name, snap = golden_snapshot
        for setting, flags in (
            ("defaults", []),
            ("sampled", ["--min-added", "1", "--n", "3", "--seed", "4"]),
        ):
            out = tmp_path / setting
            code = main(["sample-merges", "--snapshot", snap,
                         "--out", str(out), *flags])
            assert code == 0
            got = digests(out, ("sampled_merges.csv",))
            assert got == (self.GOLDEN[(name, setting)],), setting


class TestUsageErrorsBeforeWork:
    CASES = [
        (["analyze-branches", "--bins", "0"], "argument --bins: must be at least 1"),
        (["analyze-cochange", "--horizon", "0"],
         "argument --horizon: must be at least 1"),
        (["sample-merges", "--n", "0"], "argument --n: must be at least 1"),
        (["sample-merges", "--min-added", "-3"],
         "argument --min-added: must be at least 0"),
        (["evaluate", "--pair", "full,fp-merge", "--max-rules", "0"],
         "argument --max-rules: must be at least 1"),
        (["evaluate", "--pair", "full,fp-no-merge", "--max-commits", "0"],
         "argument --max-commits: must be at least 1"),
        (["analyze-branches", "--max-changeset-size", "0"],
         "argument --max-changeset-size: must be at least 1"),
        (["evaluate", "--pair", "full,fp-merge", "--minsup", "0"],
         "argument --minsup: must be a number in (0, 1]"),
        (["analyze-branches", "--minconf", "3/2"],
         "argument --minconf: must be a number in (0, 1]"),
        (["analyze-branches", "--cap", "-3"],
         "argument --cap: must be at least 0"),
        (["analyze-branches", "--multi-threshold", "-3"],
         "argument --multi-threshold: must be at least 1"),
    ]

    @pytest.mark.parametrize("argv, message", CASES)
    def test_refused_before_creating_the_output_dir(
        self, tmp_path, capsys, argv, message
    ):
        snap = snap_of(study_graph(), tmp_path)
        out = tmp_path / "out" / "nested"
        assert main([*argv, "--snapshot", snap, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", CASES)
    def test_refused_before_loading_the_snapshot(
        self, tmp_path, capsys, argv, message
    ):
        missing = str(tmp_path / "missing.jsonl")
        out = tmp_path / "out"
        assert main([*argv, "--snapshot", missing, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestReport:
    def test_renders_multiple_summaries(self, tmp_path, capsys):
        snap = snap_of(branchy_graph(), tmp_path)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        for out in (out1, out2):
            assert main(
                ["evaluate", "--snapshot", snap, "--pair", "full,fp-no-merge",
                 "--out", str(out)]
            ) == 0
        capsys.readouterr()
        code = main(
            ["report", "--summary", str(out1 / "summary.json"),
             str(out2 / "summary.json")]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "repo-level winner counts" in stdout

    def test_missing_summary_is_data_error(self, tmp_path):
        assert main(["report", "--summary", str(tmp_path / "nope.json")]) == 2

    def test_non_object_summary_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text("[1,2]")
        assert main(["report", "--summary", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"cochange: error: {path} does not hold a JSON object\n"

    @pytest.mark.parametrize("pair", ["full,fp-no-merge", "full,fp-merge"])
    def test_prints_what_evaluate_printed(
        self, tmp_path, capsys, golden_snapshot, pair
    ):
        _, snap = golden_snapshot
        out = tmp_path / "out"
        assert main(["evaluate", "--snapshot", snap, "--pair", pair,
                     "--out", str(out)]) == 0
        evaluated = capsys.readouterr().out
        assert main(["report", "--summary", str(out / "summary.json")]) == 0
        assert capsys.readouterr().out == evaluated

    @pytest.mark.parametrize("summary, message", [
        ({"strategy_pair": 5}, "strategy_pair: must be a list"),
        ({"events": 3}, "strategy_pair: missing"),
        ({}, "strategy_pair: missing"),
        ({"strategy_pair": ["full", "fp-merge"], "repo_label": "\udcff"},
         "repo_label: holds a lone surrogate, not text"),
    ])
    def test_malformed_summary_is_data_error_naming_file_and_key(
        self, real_summary, tmp_path, capsys, summary, message
    ):
        good, _ = real_summary
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(summary))
        assert main(["report", "--summary", str(good), str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cochange: error: {bad}: {message}\n"

    @pytest.mark.parametrize("keys, value, message", [
        (("repo_winner", "wins"), "bogus",
         "repo_winner.wins: must name a strategy of strategy_pair or draw"),
        (("per_strategy", "full", "wins"), 999,
         "per_strategy.full.wins + per_strategy.fp-merge.wins + draws: "
         "must add up to events (34)"),
        (("per_strategy", "fp-merge", "events"), 35,
         "per_strategy.fp-merge.events: must equal events (34)"),
        (("strategy_pair", 1), "full", "strategy_pair: must name two strategies"),
        # a winner other than the figures give, one case per metric: full
        # has the greater success rate and wins, and map_all's p is 0.0625
        (("repo_winner", "success_rate"), "fp-merge",
         "repo_winner.success_rate: fp-merge contradicts per_strategy and "
         "wilcoxon_map, which give full"),
        (("repo_winner", "wins"), "draw",
         "repo_winner.wins: draw contradicts per_strategy and wilcoxon_map, "
         "which give full"),
        (("repo_winner", "map_all"), "full",
         "repo_winner.map_all: full contradicts per_strategy and wilcoxon_map, "
         "which give draw"),
        (("wilcoxon_map", "p_value"), 0.01,
         "repo_winner.map_all: draw contradicts per_strategy and wilcoxon_map, "
         "which give full"),
        # a p-value no test gives, which no comparison with alpha refuses
        (("wilcoxon_map", "p_value"), math.nan, "wilcoxon_map.p_value: must be in [0, 1]"),
        (("wilcoxon_map", "p_value"), math.inf, "wilcoxon_map.p_value: must be in [0, 1]"),
        (("wilcoxon_map", "p_value"), -1.0, "wilcoxon_map.p_value: must be in [0, 1]"),
        (("wilcoxon_map", "p_value"), 7.0, "wilcoxon_map.p_value: must be in [0, 1]"),
        (("wilcoxon_map", "statistic"), math.nan,
         "wilcoxon_map.statistic: must be finite and not below 0"),
        (("wilcoxon_map", "statistic"), -1.0,
         "wilcoxon_map.statistic: must be finite and not below 0"),
        (("per_strategy", "full", "map_all"), {"num": 1, "den": 0},
         "per_strategy.full.map_all: not a finite rational"),
        (("per_strategy", "full", "map_all"), {"num": 10**400, "den": 1},
         "per_strategy.full.map_all: not a finite rational"),
        (("per_strategy", "full", "success_rate"), None,
         "per_strategy.full.success_rate: must be an object"),
    ])
    def test_figures_that_disagree_are_data_error(
        self, real_summary, tmp_path, capsys, keys, value, message
    ):
        _, summary = real_summary
        assert summary["events"] == 34
        summary = copy.deepcopy(summary)
        parent = summary
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(summary))
        assert main(["report", "--summary", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cochange: error: {bad}: {message}\n"

    def test_winners_are_checked_against_the_figures(self, real_summary, tmp_path, capsys):
        _, summary = real_summary
        summary = copy.deepcopy(summary)
        assert summary["repo_winner"] == {
            "success_rate": "full", "map_all": "draw", "wins": "full"}
        path = tmp_path / "s.json"
        # every winner set to fp-merge: refused at the first metric
        summary["repo_winner"] = dict.fromkeys(summary["repo_winner"], "fp-merge")
        path.write_text(json.dumps(summary))
        assert main(["report", "--summary", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"cochange: error: {path}: repo_winner.success_rate: fp-merge contradicts")
        # below alpha the greater map_all wins
        summary["repo_winner"] = {"success_rate": "full", "map_all": "full",
                                  "wins": "full"}
        summary["wilcoxon_map"]["p_value"] = 0.01
        path.write_text(json.dumps(summary))
        assert main(["report", "--summary", str(path)]) == 0
        assert "repo winner: success_rate=full  map_all=full  wins=full" in (
            capsys.readouterr().out)


@pytest.fixture(scope="module")
def real_summary(tmp_path_factory):
    """Path and contents of evaluate's summary.json on generic_graph(7, 70)."""
    directory = tmp_path_factory.mktemp("report")
    snap = snap_of(generic_graph(7, 70), directory)
    assert main(["evaluate", "--snapshot", snap, "--pair", "full,fp-merge",
                 "--out", str(directory)]) == 0
    path = directory / "summary.json"
    return path, json.loads(path.read_text())


def key_paths(value, prefix=()):
    """The key path of every member of nested JSON objects and lists."""
    if isinstance(value, dict):
        members = value.items()
    elif isinstance(value, list):
        members = enumerate(value)
    else:
        return
    for key, member in members:
        yield prefix + (key,)
        yield from key_paths(member, prefix + (key,))


class TestSummaryMutations:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_single_mutation_renders_or_names_file_and_key(
        self, real_summary, data
    ):
        path, summary = real_summary
        assert summary["events"] > 0
        summary = copy.deepcopy(summary)
        keys = data.draw(st.sampled_from(sorted(key_paths(summary), key=repr)))
        parent = summary
        for key in keys[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = data.draw(JSON_VALUES)
        mutated = path.with_name("mutated.json")
        mutated.write_text(json.dumps(summary))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["report", "--summary", str(mutated)])
        assert code in (0, 2)
        if code == 2:
            prefix = f"cochange: error: {mutated}: "
            assert out.getvalue() == ""
            assert err.getvalue().startswith(prefix)
            assert keys[0] in err.getvalue()[len(prefix):]


class TestUnusableOutputPath:
    @pytest.mark.parametrize("command", ["evaluate", "analyze-cochange", "ingest"])
    def test_is_data_error_naming_the_path(
        self, tmp_path, capsys, git_sandbox, command
    ):
        if command == "ingest":
            git_sandbox.commit("one", {"a.txt": "1"})
            argv = ["ingest", "--repo", str(git_sandbox.path)]
            target = tmp_path / "missing" / "x.jsonl"
        else:
            argv = [command, "--snapshot", snap_of(study_graph(), tmp_path)]
            if command == "evaluate":
                argv += ["--pair", "full,fp-merge"]
            target = tmp_path / "taken"
            target.write_text("")
        assert main([*argv, "--out", str(target)]) == 2
        assert capsys.readouterr().err.startswith(f"cochange: error: {target}: ")
