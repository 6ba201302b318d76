import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cochange import (
    Commit,
    CommitGraph,
    EntryOrigin,
    Strategy,
    additional_changes,
    ancestors_all,
    ancestors_first_parent,
    branch_commits,
    branch_length,
    merge_base,
    merge_commit_size,
    save_snapshot,
    strategy_walk,
)
from cochange.history import (
    ChangesetEntry,
    _reachable,
    _valid_path,
    validate_commit_id,
    validate_file_path,
)

from conftest import (
    build_graph,
    hid,
    mk_commit,
    names_of,
    random_dags,
    reference_newest_first,
    reference_reachable,
)
from synthgen import generic_graph


def walk_tags(graph, start_tag, strategy, names):
    return [
        names[e.commit_id]
        for e in strategy_walk(graph, hid(start_tag), strategy)
    ]


NAMES = {hid(t): t for t in "ABCDEFGH"}


class TestValidation:
    def test_commit_id_must_be_40_hex(self):
        validate_commit_id(hid("ok"))
        for bad in ["", "abc", "Z" * 40, hid("x")[:-1], hid("x").upper(),
                    hid("x") + "\n"]:
            with pytest.raises(ValueError):
                validate_commit_id(bad)

    def test_file_path_rules(self):
        validate_file_path("src/a.py")
        validate_file_path("weird name.txt")
        for bad in ["", "/abs.txt", "a/../b", "./x", "a//b", "a/./b"]:
            with pytest.raises(ValueError):
                validate_file_path(bad)

    def test_file_path_must_be_utf8(self):
        validate_file_path("docs/caf\u00e9/\u65e5\u672c.txt")
        # a non-UTF-8 byte as git output decodes it (surrogate escape)
        with pytest.raises(ValueError, match="not valid UTF-8: 'bad\\\\udcff.txt'"):
            validate_file_path("bad\udcff.txt")
        with pytest.raises(ValueError, match="not valid UTF-8"):
            mk_commit("A", [], 1, ["ok.txt", "bad\udcff.txt"])

    @staticmethod
    def graph_with_merge(merge_files, merge_eq):
        commits = [
            mk_commit("A", [], 1, ["x"]),
            mk_commit("B", ["A"], 2, ["y"]),
            mk_commit("M", ["A", "B"], 3, merge_files, merge_eq),
        ]
        return build_graph(commits, "M")

    def test_merge_eq_must_cover_changeset(self):
        with pytest.raises(ValueError):
            self.graph_with_merge(["x", "y"], {"x": (False, True)})

    def test_merge_eq_vector_length_matches_parents(self):
        with pytest.raises(ValueError):
            self.graph_with_merge(["x"], {"x": (False, True, False)})

    def test_merge_eq_first_flag_is_false(self):
        # the changeset IS the diff against the first parent
        with pytest.raises(ValueError):
            self.graph_with_merge(["x"], {"x": (True, True)})

    def test_non_merge_cannot_carry_merge_eq(self):
        with pytest.raises(ValueError):
            build_graph(
                [
                    mk_commit("A", [], 1, ["x"]),
                    mk_commit("N", ["A"], 2, ["x"], {"x": (False,)}),
                ],
                "N",
            )

    def test_commit_rejects_boolean_timestamp(self):
        with pytest.raises(ValueError, match="non-integer timestamp"):
            Commit(hid("A"), (), True, frozenset({"a"}))

    def test_commit_rejects_duplicate_parent(self):
        with pytest.raises(ValueError, match="duplicate parent"):
            Commit(hid("M"), (hid("A"), hid("A")), 2, frozenset())

    def test_graph_rejects_unknown_head(self):
        with pytest.raises(ValueError):
            build_graph([mk_commit("A", [], 1, ["a"])], "Z")

    def test_graph_rejects_dangling_parent(self):
        commits = [mk_commit("B", ["A"], 2, ["b"])]
        with pytest.raises(ValueError):
            build_graph(commits, "B")
        # declaring the parent as a boundary makes it legal
        g = build_graph(commits, "B", boundaries=["A"])
        assert g.boundaries == {hid("A")}

    def test_graph_rejects_malformed_boundary_id(self):
        commits = [mk_commit("B", ["A"], 2, ["b"])]
        with pytest.raises(ValueError, match="not a 40-hex commit id: 'not-an-id'"):
            CommitGraph.from_commits(
                commits, hid("B"), boundaries=[hid("A"), "not-an-id"]
            )

    def test_graph_rejects_duplicate_commit(self):
        first = mk_commit("A", [], 1, ["a"])
        second = mk_commit("A", [], 2, ["b"])
        with pytest.raises(ValueError, match=f"^duplicate commit {hid('A')}$"):
            CommitGraph.from_commits([first, second], hid("A"))

    def test_graph_rejects_no_commits(self):
        with pytest.raises(ValueError, match="must contain at least one commit"):
            CommitGraph({}, hid("A"))

    def test_graph_rejects_boundary_that_is_a_commit(self):
        commits = [mk_commit("A", [], 1, ["a"]), mk_commit("B", ["A"], 2, ["b"])]
        with pytest.raises(ValueError, match="must not also be present commits"):
            build_graph(commits, "B", boundaries=["A"])

    def test_graph_rejects_commit_under_another_key(self):
        with pytest.raises(
            ValueError, match=f"commit keyed as {hid('X')} has id {hid('A')}"
        ):
            CommitGraph({hid("X"): mk_commit("A", [], 1, ["a"])}, hid("X"))

    def test_commit_stores_given_collections_as_tuple_and_frozenset(self):
        c = Commit(hid("M"), [hid("A"), hid("B")], 3, {"x"}, {"x": [False, True]})
        assert type(c.parents) is tuple and c.parents == (hid("A"), hid("B"))
        assert type(c.changeset) is frozenset and c.changeset == {"x"}
        assert c.merge_eq == {"x": (False, True)}

    def test_graph_rejects_cycle(self):
        a = Commit(hid("A"), (hid("B"),), 1, frozenset({"a"}))
        b = Commit(hid("B"), (hid("A"),), 2, frozenset({"b"}))
        with pytest.raises(ValueError):
            CommitGraph.from_commits([a, b], head=hid("B"))

    def test_graph_rejects_cycle_anywhere(self):
        a = Commit(hid("A"), (hid("B"),), 1, frozenset({"a"}))
        b = Commit(hid("B"), (hid("A"),), 2, frozenset({"b"}))
        c = Commit(hid("C"), (hid("A"),), 3, frozenset({"c"}))
        loop = Commit(hid("L"), (hid("L"),), 4, frozenset({"l"}))
        root = mk_commit("R", [], 5, ["r"])
        for commits, head in [([a, b, c], "C"), ([loop, root], "R")]:
            with pytest.raises(ValueError, match="^commit graph contains a cycle$"):
                CommitGraph.from_commits(commits, head=hid(head))

    @pytest.mark.parametrize("where", ["id", "parent", "boundary"])
    def test_trailing_newline_is_not_a_commit_id(self, where):
        bad = hid("A") + "\n"
        with pytest.raises(ValueError, match="not a 40-hex commit id"):
            if where == "id":
                Commit(bad, (), 1, frozenset({"a"}))
            elif where == "parent":
                Commit(hid("B"), (bad,), 2, frozenset({"b"}))
            else:
                CommitGraph.from_commits(
                    [mk_commit("B", ["A"], 2, ["b"])], hid("B"), boundaries=[bad]
                )

    def test_path_memo_keeps_only_valid_paths(self):
        _valid_path.cache_clear()
        mk_commit("A", [], 1, ["ok.txt"])
        for _ in range(2):
            with pytest.raises(ValueError, match="dot segments"):
                mk_commit("B", [], 1, ["a/../b"])
        info = _valid_path.cache_info()
        assert info.currsize == 1
        assert info.maxsize is not None

    def test_unknown_commit_lookup(self, merge_graph):
        with pytest.raises(KeyError):
            merge_graph.commit(hid("nope"))


def reference_commit(cid, parents, ts, changeset, merge_eq):
    """The rules ``Commit`` enforced before its checks were made cheaper,
    as a function: the fields it stores, or ValueError."""
    parents = tuple(parents)
    changeset = frozenset(changeset)
    validate_commit_id(cid)
    for p in parents:
        validate_commit_id(p)
    if len(set(parents)) != len(parents):
        raise ValueError(f"commit {cid} lists a duplicate parent")
    if not isinstance(ts, int) or isinstance(ts, bool):
        raise ValueError(f"commit {cid} has a non-integer timestamp")
    for f in changeset:
        validate_file_path(f)
    if len(parents) < 2:
        if merge_eq:
            raise ValueError(f"non-merge {cid} carries equality flags")
        return cid, parents, ts, changeset, None
    eq = {f: tuple(bool(x) for x in v) for f, v in (merge_eq or {}).items()}
    if set(eq) != changeset:
        raise ValueError(
            f"merge {cid}: per-parent equality flags must cover "
            "exactly the changed files"
        )
    for f, flags in eq.items():
        if len(flags) != len(parents):
            raise ValueError(
                f"merge {cid}: equality flags for {f!r} do not "
                "match the parent count"
            )
        if flags[0]:
            raise ValueError(
                f"merge {cid}: {f!r} is in the changeset but "
                "flagged equal to the first parent"
            )
    return cid, parents, ts, changeset, eq


ID_POOL = [hid("a"), hid("b"), hid("c"), hid("a") + "\n", "abc", hid("a").upper(), 5]
PATH_POOL = ["x", "y", "d/z", "", "/abs", "a/../b", "bad\udcff", 5]


def mostly(valid, invalid):
    """``valid`` three times in four, else ``invalid``."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else invalid)


@st.composite
def commit_arguments(draw):
    """Commit arguments, most of them valid, some breaking a rule."""
    cid = draw(mostly(st.sampled_from(ID_POOL[:3]), st.sampled_from(ID_POOL)))
    parents = draw(mostly(
        st.lists(st.sampled_from(ID_POOL[:3]), max_size=3, unique=True),
        st.lists(st.sampled_from(ID_POOL), max_size=3),
    ))
    parents = draw(st.sampled_from([tuple, list]))(parents)
    ts = draw(mostly(st.integers(0, 9), st.sampled_from([True, "1", None])))
    files = draw(mostly(
        st.sets(st.sampled_from(PATH_POOL[:3]), max_size=3),
        st.sets(st.sampled_from(PATH_POOL), max_size=3),
    ))
    changeset = draw(st.sampled_from([frozenset, set, list]))(files)
    n = len(parents)
    fitting = st.none()
    if n >= 2:  # one flag per parent, the first one false
        flag = st.booleans() | st.integers(0, 1)
        flags = st.tuples(st.sampled_from([False, 0]), *[flag] * (n - 1))
        fitting = st.fixed_dictionaries({f: flags for f in files})
    any_flags = st.lists(st.booleans() | st.integers(0, 1), max_size=4)
    merge_eq = draw(mostly(fitting, st.one_of(
        st.none(),
        st.just({}),
        st.fixed_dictionaries({f: st.tuples(*[st.booleans()] * n) for f in files}),
        st.fixed_dictionaries({f: any_flags for f in files}),
        st.dictionaries(st.sampled_from(PATH_POOL[:3]), any_flags, max_size=3),
    )))
    return cid, parents, ts, changeset, merge_eq


class TestCommitAgainstReference:
    @settings(max_examples=1000)
    @given(args=commit_arguments())
    def test_same_fields_or_same_error(self, args):
        try:
            expected = reference_commit(*args)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                Commit(*args)
            assert str(got.value) == str(exc)
            return
        c = Commit(*args)
        assert (c.id, c.parents, c.author_timestamp, c.changeset, c.merge_eq) == expected
        assert type(c.parents) is tuple and type(c.changeset) is frozenset
        assert repr(c.merge_eq) == repr(expected[4])  # True, not 1


class TestTraversal:
    def test_first_parent_chain(self, merge_graph):
        chain = [NAMES[c] for c in ancestors_first_parent(merge_graph, hid("H"))]
        assert chain == ["H", "E", "C", "A"]

    def test_first_parent_chain_stops_at_boundary(self):
        commits = [
            mk_commit("B", ["A"], 2, ["b"]),
            mk_commit("C", ["B"], 3, ["c"]),
        ]
        g = build_graph(commits, "C", boundaries=["A"])
        assert [NAMES[c] for c in ancestors_first_parent(g, hid("C"))] == ["C", "B"]

    def test_all_ancestors_reverse_topo_with_tie_breaks(self, merge_graph):
        # B and C share timestamp 2; descending id puts B (ae…) first
        assert [NAMES[c] for c in ancestors_all(merge_graph, hid("H"))] == [
            "H", "E", "D", "B", "C", "A",
        ]

    def test_all_ancestors_nested(self, nested_merge_graph):
        assert [NAMES[c] for c in ancestors_all(nested_merge_graph, hid("H"))] == [
            "H", "G", "F", "E", "D", "B", "C", "A",
        ]

    def test_children_before_parents_everywhere(self):
        g = generic_graph(seed=3, n_commits=120)
        order = ancestors_all(g, g.head)
        seen = {}
        for i, cid in enumerate(order):
            seen[cid] = i
        assert len(order) == len(set(order))
        for cid in order:
            for p in g.commits[cid].parents:
                if p in g.commits:
                    assert seen[p] > seen[cid]

    def test_reachable_excludes_boundary_side(self):
        commits = [
            mk_commit("B", ["A"], 2, ["b"]),
            mk_commit("C", ["B"], 3, ["c"]),
        ]
        g = build_graph(commits, "C", boundaries=["A"])
        assert _reachable(g, hid("C")) == {hid("C"), hid("B")}


def longest_path_from_roots(graph, cid):
    """Edges on the longest parent path from ``cid`` down to a root,
    trying every path."""
    return max(
        (1 + longest_path_from_roots(graph, p)
         for p in graph.commits[cid].parents if p in graph.commits),
        default=0,
    )


class TestWalkOrderAgainstReference:
    @settings(max_examples=300)
    @given(graph=random_dags())
    def test_topological_orders_match_reference(self, graph):
        with tempfile.TemporaryDirectory() as tmp:
            save_snapshot(graph, Path(tmp) / "s.jsonl")
            lines = (Path(tmp) / "s.jsonl").read_text().splitlines()[1:]
        assert [json.loads(line)["id"] for line in lines] == (
            reference_newest_first(graph, graph.commits)[::-1]
        )
        assert graph._generation == {
            cid: longest_path_from_roots(graph, cid) for cid in graph.commits
        }
        for start in graph.commits:
            assert ancestors_all(graph, start) == reference_newest_first(
                graph, reference_reachable(graph, start)
            )


class TestFirstParentSpans:
    @settings(max_examples=300)
    @given(graph=random_dags())
    def test_span_test_finds_the_first_parent_chain(self, graph):
        spans = graph._first_parent_spans
        for cid in graph.commits:
            enter, last = spans[cid]
            assert {
                m for m, (m_enter, m_last) in spans.items()
                if m_enter < enter and last <= m_last
            } == set(ancestors_first_parent(graph, cid)[1:])


@st.composite
def dags_with_merge_diffs(draw):
    """Small DAGs whose commits change a few files of a shared pool and
    whose merges (octopus ones included) carry random equality flags, so
    a merge's full diff and its additional changes differ.  Any parent,
    a first one included, may lie beyond a shallow boundary."""
    boundaries = [f"edge{j}" for j in range(draw(st.integers(0, 2)))]
    commits = []
    for i in range(draw(st.integers(1, 12))):
        pool = [f"n{j}" for j in range(i)] + boundaries
        parents = draw(st.lists(st.sampled_from(pool), max_size=4, unique=True)
                       if pool else st.just([]))
        files = draw(st.lists(st.sampled_from("abcd"), max_size=3, unique=True))
        flags = None
        if len(parents) >= 2:
            others = st.tuples(*[st.booleans()] * (len(parents) - 1))
            flags = {f: (False, *draw(others)) for f in files}
        commits.append(mk_commit(f"n{i}", parents, draw(st.integers(0, 3)),
                                 files, flags))
    return build_graph(commits, f"n{len(commits) - 1}", boundaries)


def reference_walk(graph, start, strategy):
    """``strategy_walk`` from scratch: the ancestor order, then each
    commit's files under the strategy's rule for merges."""
    if strategy is Strategy.FULL:
        order = reference_newest_first(graph, reference_reachable(graph, start))
    else:
        order, cur = [], start
        while cur in graph.commits:
            order.append(cur)
            cur = (graph.commits[cur].parents or (None,))[0]
    out = []
    for cid in order:
        c = graph.commits[cid]
        if len(c.parents) < 2:
            files, origin = c.changeset, EntryOrigin.ORDINARY
        elif strategy is Strategy.FIRST_PARENT_MERGE:
            files, origin = c.changeset, EntryOrigin.MERGE_FULL_DIFF
        else:
            files = frozenset(f for f in c.changeset if not any(c.merge_eq[f]))
            origin = EntryOrigin.MERGE_ADDITIONAL_ONLY
        if files:
            out.append(ChangesetEntry(cid, files, origin))
    return out


class TestWalkMemoAgainstReference:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_memoised_walks_match_reference_and_fresh_graph(self, data):
        graph = data.draw(dags_with_merge_diffs())
        # starts come in random order: no walk may hang on the walks before it
        visits = data.draw(st.permutations(
            [(s, cid) for s in Strategy for cid in sorted(graph.commits)]
        ))
        for strategy, start in visits:
            walk = strategy_walk(graph, start, strategy)
            fresh = CommitGraph(graph.commits, graph.head, graph.boundaries)
            assert walk == reference_walk(graph, start, strategy)
            assert walk == strategy_walk(fresh, start, strategy)

    def test_boundary_first_parent_ends_the_chain(self):
        commits = [
            mk_commit("A", [], 1, ["a"]),
            mk_commit("M", ["edge", "A"], 2, ["a", "m"],
                      {"a": (False, True), "m": (False, False)}),
            mk_commit("T", ["M"], 3, ["t"]),
        ]
        g = build_graph(commits, "T", boundaries=["edge"])
        names = names_of("A", "M", "T")
        for strategy, expected in [
            (Strategy.FIRST_PARENT_NO_MERGE, ["T", "M"]),
            (Strategy.FIRST_PARENT_MERGE, ["T", "M"]),
            (Strategy.FULL, ["T", "M", "A"]),
        ]:
            assert walk_tags(g, "T", strategy, names) == expected
            assert strategy_walk(g, hid("T"), strategy) == reference_walk(
                g, hid("T"), strategy
            )


class TestAdditionalChanges:
    def test_clean_merge_adds_nothing(self, merge_graph):
        assert additional_changes(merge_graph, hid("E")) == frozenset()

    def test_conflict_file_is_additional(self, conflict_merge_graph):
        assert additional_changes(conflict_merge_graph, hid("E")) == {"res.txt"}

    def test_requires_merge(self, merge_graph):
        with pytest.raises(ValueError):
            additional_changes(merge_graph, hid("C"))


class TestStrategyWalks:
    def test_full_includes_branch_commits(self, merge_graph):
        assert walk_tags(merge_graph, "H", Strategy.FULL, NAMES) == [
            "H", "D", "B", "C", "A",
        ]

    def test_first_parent_excludes_branch_commits(self, merge_graph):
        assert walk_tags(
            merge_graph, "H", Strategy.FIRST_PARENT_NO_MERGE, NAMES
        ) == ["H", "C", "A"]

    def test_first_parent_merge_carries_full_diff(self, merge_graph):
        walk = strategy_walk(merge_graph, hid("H"), Strategy.FIRST_PARENT_MERGE)
        assert [NAMES[e.commit_id] for e in walk] == ["H", "E", "C", "A"]
        merge_entry = walk[1]
        assert merge_entry.files == {"b.txt", "d.txt"}
        assert merge_entry.origin is EntryOrigin.MERGE_FULL_DIFF

    def test_merge_diff_equals_branch_union_plus_additional(
        self, conflict_merge_graph
    ):
        g = conflict_merge_graph
        walk = strategy_walk(g, hid("H"), Strategy.FIRST_PARENT_MERGE)
        merge_entry = next(e for e in walk if e.commit_id == hid("E"))
        union = set()
        for b in branch_commits(g, hid("E")):
            union |= g.commits[b].changeset
        assert merge_entry.files == union | additional_changes(g, hid("E"))

    def test_conflict_merge_contributes_additional_under_full(
        self, conflict_merge_graph
    ):
        walk = strategy_walk(conflict_merge_graph, hid("H"), Strategy.FULL)
        entry = next(e for e in walk if e.commit_id == hid("E"))
        assert entry.files == {"res.txt"}
        assert entry.origin is EntryOrigin.MERGE_ADDITIONAL_ONLY

    def test_clean_merge_disappears_from_full_and_no_merge(self, merge_graph):
        for strategy in (Strategy.FULL, Strategy.FIRST_PARENT_NO_MERGE):
            walk = strategy_walk(merge_graph, hid("H"), strategy)
            assert hid("E") not in {e.commit_id for e in walk}

    def test_linear_history_all_strategies_identical(self, linear_graph):
        walks = [
            strategy_walk(linear_graph, linear_graph.head, s)
            for s in Strategy
        ]
        as_pairs = [[(e.commit_id, e.files) for e in w] for w in walks]
        assert as_pairs[0] == as_pairs[1] == as_pairs[2]
        assert all(
            e.origin is EntryOrigin.ORDINARY for w in walks for e in w
        )

    def test_origins_on_ordinary_commits(self, merge_graph):
        for e in strategy_walk(merge_graph, hid("H"), Strategy.FULL):
            assert e.origin is EntryOrigin.ORDINARY

    def test_fp_walks_stay_on_first_parent_chain(self):
        g = generic_graph(seed=5, n_commits=150)
        chain = set(ancestors_first_parent(g, g.head))
        for s in (Strategy.FIRST_PARENT_NO_MERGE, Strategy.FIRST_PARENT_MERGE):
            for e in strategy_walk(g, g.head, s):
                assert e.commit_id in chain

    def test_full_walk_covers_every_nonempty_contribution(self):
        g = generic_graph(seed=5, n_commits=150)
        walk = strategy_walk(g, g.head, Strategy.FULL)
        ids = [e.commit_id for e in walk]
        assert len(ids) == len(set(ids))
        expected = []
        for cid in ancestors_all(g, g.head):
            c = g.commits[cid]
            files = additional_changes(g, cid) if c.is_merge else c.changeset
            if files:
                expected.append((cid, files))
        assert [(e.commit_id, e.files) for e in walk] == expected


class TestMergeBase:
    def test_simple_fork(self, merge_graph):
        assert merge_base(merge_graph, hid("C"), hid("D")) == hid("A")

    def test_self_is_own_base(self, merge_graph):
        assert merge_base(merge_graph, hid("D"), hid("D")) == hid("D")

    def test_ancestor_is_base(self, merge_graph):
        assert merge_base(merge_graph, hid("A"), hid("D")) == hid("A")

    def test_nested_base_skips_covered_ancestors(self, nested_merge_graph):
        # common ancestors of E and G are {C, A}; A is covered by C
        assert merge_base(nested_merge_graph, hid("E"), hid("G")) == hid("C")

    def test_disjoint_roots_have_no_base(self):
        commits = [
            mk_commit("A", [], 1, ["a"]),
            mk_commit("B", [], 1, ["b"]),
            mk_commit("M", ["A", "B"], 2, ["b"], {"b": (False, True)}),
        ]
        g = build_graph(commits, "M")
        assert merge_base(g, hid("A"), hid("B")) is None

    def test_criss_cross_prefers_higher_generation(self):
        # two common ancestors at the same depth; neither covers the other
        commits = [
            mk_commit("A", [], 1, ["a"]),
            mk_commit("P", ["A"], 2, ["p"]),
            mk_commit("Q", ["A"], 2, ["q"]),
            mk_commit("X", ["P", "Q"], 3, ["q"], {"q": (False, True)}),
            mk_commit("Y", ["Q", "P"], 3, ["p"], {"p": (False, True)}),
            mk_commit("Z", ["X", "Y"], 4, ["z"], {"z": (False, False)}),
        ]
        g = build_graph(commits, "Z")
        base = merge_base(g, hid("X"), hid("Y"))
        # P and Q are both maximal; the tie goes to the greater id
        assert base == max([hid("P"), hid("Q")])


class TestBranchCommits:
    def test_recursive_branch_attribution(self, nested_merge_graph):
        got = branch_commits(nested_merge_graph, hid("H"))
        assert {NAMES[c] for c in got} == {"G", "D", "B"}
        assert branch_length(nested_merge_graph, hid("H")) == 3

    def test_plain_branch(self, merge_graph):
        got = branch_commits(merge_graph, hid("E"))
        assert {NAMES[c] for c in got} == {"D", "B"}
        assert branch_length(merge_graph, hid("E")) == 2

    def test_inner_merge_itself_not_attributed(self, nested_merge_graph):
        assert hid("F") not in branch_commits(nested_merge_graph, hid("H"))

    def test_single_commit_branch(self):
        commits = [
            mk_commit("A", [], 1, ["a"]),
            mk_commit("B", ["A"], 2, ["b"]),
            mk_commit("M", ["A", "B"], 3, ["b"], {"b": (False, True)}),
        ]
        g = build_graph(commits, "M")
        assert branch_commits(g, hid("M")) == {hid("B")}
        assert branch_length(g, hid("M")) == 1

    def test_root_ended_side_sharing_no_history_adds_nothing(self):
        commits = [
            mk_commit("A", [], 1, ["a"]),
            mk_commit("F", ["A"], 2, ["f"]),
            mk_commit("R", [], 1, ["r"]),
            mk_commit("S", ["R"], 2, ["s"]),
            mk_commit("M", ["F", "S"], 3, ["s"], {"s": (False, True)}),
        ]
        g = build_graph(commits, "M")
        assert branch_commits(g, hid("M")) == frozenset()

    def test_boundary_ended_side_meeting_fp_history_adds_its_chain(self):
        # S's first-parent chain runs S -> J -> edge, but J's history
        # reaches A, deep down the first parent F's ancestry.
        commits = [
            mk_commit("A", [], 1, ["a"]),
            mk_commit("B", ["A"], 2, ["b"]),
            mk_commit("C", ["B"], 3, ["c"]),
            mk_commit("F", ["C"], 4, ["f"]),
            mk_commit("K", ["A"], 2, ["k"]),
            mk_commit("J", ["edge", "K"], 3, ["j"], {"j": (False, True)}),
            mk_commit("S", ["J"], 4, ["s"]),
            mk_commit("M", ["F", "S"], 5, ["s"], {"s": (False, True)}),
        ]
        g = build_graph(commits, "M", boundaries=["edge"])
        assert branch_commits(g, hid("M")) == {hid("S")}

    def test_octopus_side_forking_above_the_first_sides_floor(self):
        # X forks at the root A, so marking F's ancestry reaches A first;
        # Y forks higher, at C, and must still stop there.
        commits = [
            mk_commit("A", [], 1, ["a"]),
            mk_commit("B", ["A"], 2, ["b"]),
            mk_commit("C", ["B"], 3, ["c"]),
            mk_commit("F", ["C"], 4, ["f"]),
            mk_commit("X1", ["A"], 2, ["x1"]),
            mk_commit("X2", ["X1"], 3, ["x2"]),
            mk_commit("Y", ["C"], 4, ["y"]),
            mk_commit("M", ["F", "X2", "Y"], 5, ["x2", "y"],
                      {"x2": (False, True, False), "y": (False, False, True)}),
        ]
        g = build_graph(commits, "M")
        assert branch_commits(g, hid("M")) == {hid("X1"), hid("X2"), hid("Y")}

    def test_matches_reachability_oracle_on_generated_dags(self):
        # without nested merges on side branches, the attributable commits
        # are exactly the non-merges reachable from the second parent only
        for seed in range(4):
            g = generic_graph(seed=seed, n_commits=100)
            for cid, c in g.commits.items():
                if not c.is_merge:
                    continue
                expected = {
                    x
                    for x in _reachable(g, c.parents[1]) - _reachable(g, c.parents[0])
                    if not g.commits[x].is_merge
                }
                assert branch_commits(g, cid) == expected
                assert branch_commits(g, cid) == expected  # from the table

    def test_requires_merge(self, merge_graph):
        with pytest.raises(ValueError):
            branch_commits(merge_graph, hid("C"))


class TestMergeCommitSize:
    def test_counts_merge_diff(self, conflict_merge_graph):
        assert merge_commit_size(conflict_merge_graph, hid("E")) == 3

    def test_rejects_non_merge(self, merge_graph):
        with pytest.raises(ValueError):
            merge_commit_size(merge_graph, hid("H"))
