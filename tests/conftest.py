"""Shared fixtures: deterministic ids, tiny hand-built graphs, transaction
databases, git helpers."""

import hashlib
import subprocess
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st

import cochange.evaluation as evaluation_module
from cochange import (
    Collector, Commit, CommitGraph, RecommenderConfig, Strategy, Transaction,
)
from synthgen import generic_graph


# Property tests are deterministic and keep no example database, so a
# tier-1 run repeats exactly; a test sets only its own max_examples.
settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None
)
settings.load_profile("deterministic")


def hid(tag: str) -> str:
    """Deterministic 40-hex id for a short tag."""
    return hashlib.sha1(tag.encode("utf-8")).hexdigest()


def mk_commit(tag, parents, ts, files, merge_eq=None):
    return Commit(
        id=hid(tag),
        parents=tuple(hid(p) for p in parents),
        author_timestamp=ts,
        changeset=frozenset(files),
        merge_eq=merge_eq,
    )


def build_graph(commits, head_tag, boundaries=(), label="fixture"):
    return CommitGraph.from_commits(
        commits,
        head=hid(head_tag),
        boundaries=frozenset(hid(b) for b in boundaries),
        label=label,
    )


def names_of(*tags):
    return {hid(t): t for t in tags}


def fail_prepare_on(monkeypatch, tag):
    """Make evaluation raise RuntimeError("boom") while preparing ``tag``."""
    real = evaluation_module._prepare_commit

    def flaky(graph, commit, walks, config):
        if commit == hid(tag):
            raise RuntimeError("boom")
        return real(graph, commit, walks, config)

    monkeypatch.setattr(evaluation_module, "_prepare_commit", flaky)


def tx(*filesets):
    return [
        Transaction(frozenset(fs), hid(f"t{i}")) for i, fs in enumerate(filesets)
    ]


@st.composite
def databases(draw):
    """1-14 transactions over at most 9 files, drawn from a small pool of
    distinct changesets so identical transactions (and rank ties) recur."""
    files = "abcdefghi"[: draw(st.integers(1, 9))]
    pool = draw(
        st.lists(
            st.frozensets(st.sampled_from(files), min_size=1),
            min_size=1,
            max_size=5,
        )
    )
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=14))
    return tx(*picks)


@st.composite
def thresholds(draw):
    den = draw(st.one_of(st.integers(1, 20), st.integers(10**6, 10**12)))
    return Fraction(draw(st.integers(1, den)), den)


@st.composite
def evaluation_inputs(draw):
    """A generated history, two distinct strategies and a config."""
    graph = generic_graph(draw(st.integers(0, 10_000)), draw(st.integers(10, 90)))
    strategies = tuple(draw(st.permutations(list(Strategy)))[:2])
    fractions = st.sampled_from([Fraction(1, 10), Fraction(1, 3), Fraction(1)])
    config = RecommenderConfig(
        minsup=draw(fractions),
        minconf=draw(fractions),
        max_changeset_size=draw(st.integers(2, 10)),
        max_commits=draw(st.integers(1, 12)),
        max_rules=draw(st.integers(1, 10)),
        collector=draw(st.sampled_from(list(Collector))),
    )
    return graph, strategies, config


@st.composite
def random_dags(draw):
    """Small DAGs with tied and child-older-than-parent timestamps,
    octopus merges and parents beyond a shallow boundary."""
    boundaries = [f"edge{j}" for j in range(draw(st.integers(0, 2)))]
    commits = []
    for i in range(draw(st.integers(1, 14))):
        pool = [f"n{j}" for j in range(i)] + boundaries
        parents = draw(st.lists(st.sampled_from(pool), max_size=4, unique=True)
                       if pool else st.just([]))
        ts = draw(st.integers(0, 3))
        if len(parents) >= 2:
            flags = (False,) + (True,) * (len(parents) - 1)
            commits.append(mk_commit(f"n{i}", parents, ts, ["m"], {"m": flags}))
        else:
            commits.append(mk_commit(f"n{i}", parents, ts, [f"f{i}"]))
    return build_graph(commits, f"n{len(commits) - 1}", boundaries)


def reference_newest_first(graph, nodes):
    """Repeatedly emit the greatest (author_timestamp, id) commit of
    ``nodes`` whose children inside ``nodes`` have all been emitted."""
    left = set(nodes)
    out = []
    while left:
        ready = [
            c for c in left
            if not any(c in graph.commits[k].parents for k in left)
        ]
        cid = max(ready, key=lambda c: (graph.commits[c].author_timestamp, c))
        out.append(cid)
        left.remove(cid)
    return out


def reference_reachable(graph, start):
    reach = {start}
    while True:
        more = {
            p for c in reach for p in graph.commits[c].parents if p in graph.commits
        } - reach
        if not more:
            return reach
        reach |= more


@pytest.fixture
def merge_graph():
    """One feature branch merged cleanly back into the mainline.

        A -- C ----- E -- H      (mainline: first parents)
          \\        /
           B ---- D

    E's diff against C is {b.txt, d.txt}, all of it identical to what
    parent D already had, so the merge adds nothing of its own.
    """
    commits = [
        mk_commit("A", [], 1, ["a.txt"]),
        mk_commit("C", ["A"], 2, ["c.txt"]),
        mk_commit("B", ["A"], 2, ["b.txt"]),
        mk_commit("D", ["B"], 3, ["d.txt"]),
        mk_commit(
            "E",
            ["C", "D"],
            4,
            ["b.txt", "d.txt"],
            {"b.txt": (False, True), "d.txt": (False, True)},
        ),
        mk_commit("H", ["E"], 5, ["h.txt"]),
    ]
    return build_graph(commits, "H")


@pytest.fixture
def conflict_merge_graph():
    """Same shape as merge_graph but the merge also rewrites res.txt,
    which matches neither parent (a conflict resolution)."""
    commits = [
        mk_commit("A", [], 1, ["a.txt"]),
        mk_commit("C", ["A"], 2, ["c.txt"]),
        mk_commit("B", ["A"], 2, ["b.txt"]),
        mk_commit("D", ["B"], 3, ["d.txt"]),
        mk_commit(
            "E",
            ["C", "D"],
            4,
            ["b.txt", "d.txt", "res.txt"],
            {
                "b.txt": (False, True),
                "d.txt": (False, True),
                "res.txt": (False, False),
            },
        ),
        mk_commit("H", ["E"], 5, ["h.txt"]),
    ]
    return build_graph(commits, "H")


@pytest.fixture
def nested_merge_graph():
    """Branch with an inner merge, the recursive branch-length shape.

        A -- C -- E ---------- H
         \\    \\              /
          \\    D --- F -- G
           \\        /
            B ------

    H merges G's line; that line itself merged B at F.  The commits
    attributable to H's branch are G, D and B (F is an inner merge and
    E, C, A sit below the merge base).
    """
    commits = [
        mk_commit("A", [], 1, ["a"]),
        mk_commit("C", ["A"], 2, ["c"]),
        mk_commit("E", ["C"], 3, ["e"]),
        mk_commit("B", ["A"], 2, ["b"]),
        mk_commit("D", ["C"], 3, ["d"]),
        mk_commit("F", ["D", "B"], 4, ["f3"], {"f3": (False, True)}),
        mk_commit("G", ["F"], 5, ["g"]),
        mk_commit(
            "H",
            ["E", "G"],
            6,
            ["f1", "f2", "f3"],
            {"f1": (False, True), "f2": (False, True), "f3": (False, True)},
        ),
    ]
    return build_graph(commits, "H")


@pytest.fixture
def linear_graph():
    commits = [
        mk_commit("L0", [], 1, ["a", "b"]),
        mk_commit("L1", ["L0"], 2, ["a", "b"]),
        mk_commit("L2", ["L1"], 3, ["a", "b"]),
        mk_commit("L3", ["L2"], 4, ["a", "c"]),
        mk_commit("L4", ["L3"], 5, ["a", "b"]),
        mk_commit("L5", ["L4"], 6, ["a", "b"]),
        mk_commit("L6", ["L5"], 7, ["a", "b"]),
    ]
    return build_graph(commits, "L6")


def run_git(repo, *args, env_extra=None):
    env = {
        "GIT_AUTHOR_NAME": "t",
        "GIT_AUTHOR_EMAIL": "t@example.com",
        "GIT_COMMITTER_NAME": "t",
        "GIT_COMMITTER_EMAIL": "t@example.com",
        "GIT_AUTHOR_DATE": "2020-01-01T00:00:00 +0000",
        "GIT_COMMITTER_DATE": "2020-01-01T00:00:00 +0000",
        "HOME": str(repo),
        "PATH": "/usr/bin:/bin:/usr/local/bin",
    }
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)} failed: {proc.stderr}")
    return proc.stdout.strip()


class GitSandbox:
    """A scripted git repository with increasing author dates."""

    def __init__(self, path):
        self.path = path
        self.tick = 1577836800  # 2020-01-01
        run_git(path, "init", "-q", "-b", "main")
        run_git(path, "config", "merge.ff", "false")

    def write(self, name, content):
        f = self.path / name
        f.parent.mkdir(parents=True, exist_ok=True)
        f.write_text(content)

    def _date_env(self):
        self.tick += 60
        stamp = f"{self.tick} +0000"
        return {"GIT_AUTHOR_DATE": stamp, "GIT_COMMITTER_DATE": stamp}

    def commit(self, message, files):
        for name, content in files.items():
            self.write(name, content)
        run_git(self.path, "add", "-A")
        run_git(
            self.path, "commit", "-q", "-m", message, env_extra=self._date_env()
        )
        return run_git(self.path, "rev-parse", "HEAD")

    def checkout(self, ref, create=False):
        args = ["checkout", "-q"] + (["-b"] if create else []) + [ref]
        run_git(self.path, *args)

    def merge(self, ref, message="merge"):
        env = self._date_env()
        proc = subprocess.run(
            ["git", "-C", str(self.path), "merge", "-q", "--no-ff", "--no-edit",
             "-m", message, ref],
            capture_output=True,
            text=True,
            env={
                "GIT_AUTHOR_NAME": "t",
                "GIT_AUTHOR_EMAIL": "t@example.com",
                "GIT_COMMITTER_NAME": "t",
                "GIT_COMMITTER_EMAIL": "t@example.com",
                "HOME": str(self.path),
                "PATH": "/usr/bin:/bin:/usr/local/bin",
                **env,
            },
        )
        return proc

    def merge_resolving(self, ref, resolutions, message="merge"):
        """Merge ref; on conflict write resolutions and commit them."""
        proc = self.merge(ref, message)
        if proc.returncode != 0:
            for name, content in resolutions.items():
                self.write(name, content)
            run_git(self.path, "add", "-A")
            env = {
                f"GIT_{k}_DATE": f"{self.tick} +0000"
                for k in ("AUTHOR", "COMMITTER")
            }
            run_git(
                self.path, "commit", "-q", "--no-edit", env_extra=env
            )
        return run_git(self.path, "rev-parse", "HEAD")

    def head(self):
        return run_git(self.path, "rev-parse", "HEAD")


@pytest.fixture
def git_sandbox(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    return GitSandbox(repo)
