import pytest

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
    strategy_walk,
)
from cochange.history import validate_commit_id, validate_file_path, _reachable

from conftest import build_graph, hid, mk_commit
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
        for bad in ["", "abc", "Z" * 40, hid("x")[:-1], hid("x").upper()]:
            with pytest.raises(ValueError):
                validate_commit_id(bad)

    def test_file_path_rules(self):
        validate_file_path("src/a.py")
        validate_file_path("weird name.txt")
        for bad in ["", "/abs.txt", "a/../b", "./x", "a//b", "a/./b"]:
            with pytest.raises(ValueError):
                validate_file_path(bad)

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
        commits = [
            mk_commit("A", [], 1, ["x"]),
            mk_commit("N", ["A"], 2, ["x"], {"x": (False,)}),
        ]
        with pytest.raises(ValueError):
            build_graph(commits, "N")

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

    def test_graph_rejects_cycle(self):
        a = Commit(hid("A"), (hid("B"),), 1, frozenset({"a"}))
        b = Commit(hid("B"), (hid("A"),), 2, frozenset({"b"}))
        with pytest.raises(ValueError):
            CommitGraph.from_commits([a, b], head=hid("B"))

    def test_unknown_commit_lookup(self, merge_graph):
        with pytest.raises(KeyError):
            merge_graph.commit(hid("nope"))


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
                assert branch_commits(g, cid) == expected  # from the memo

    def test_requires_merge(self, merge_graph):
        with pytest.raises(ValueError):
            branch_commits(merge_graph, hid("C"))


class TestMergeCommitSize:
    def test_counts_merge_diff(self, conflict_merge_graph):
        assert merge_commit_size(conflict_merge_graph, hid("E")) == 3

    def test_rejects_non_merge(self, merge_graph):
        with pytest.raises(ValueError):
            merge_commit_size(merge_graph, hid("H"))
