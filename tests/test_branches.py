import json
from fractions import Fraction

import pytest

from cochange import (
    CausalDiagnosis,
    CauseAttributionError,
    CochangeMode,
    Cohort,
    Collector,
    PairedVerdict,
    Query,
    RecommenderConfig,
    Strategy,
    TestCase as EvalCase,
    added_cochange_count,
    branch_info,
    cochange_study,
    cochanged_files,
    collect_commits,
    diagnose_causes,
    eligible_merges_for_cochange,
    future_oracle,
    precision,
    run_experiment,
    sample_heavy_merges,
    save_snapshot,
    winner_rate_table,
)
from cochange.branches import median_cap
from cochange.cli import main

from conftest import build_graph, hid, mk_commit
from synthgen import generic_graph

CONFIG = RecommenderConfig()
FULL_VS_FP = (Strategy.FULL, Strategy.FIRST_PARENT_NO_MERGE)


def diagnose(graph, case, strategies=FULL_VS_FP):
    """diagnose_causes on the two strategies' collections for ``case``."""
    query = Query(case.query, case.commit)
    db_a, db_b = (collect_commits(graph, query, s, CONFIG) for s in strategies)
    return diagnose_causes(graph, case, db_a, db_b)


def clean_merge(tag, parents, ts, files):
    return mk_commit(tag, parents, ts, files, {f: (False, True) for f in files})


def two_merge_graph():
    """Two feature branches, merged one after the other."""
    commits = [
        mk_commit("R", [], 1, ["p"]),
        mk_commit("B1", ["R"], 2, ["u", "p"]),
        clean_merge("M1", ["R", "B1"], 3, ["u", "p"]),
        mk_commit("B2", ["M1"], 4, ["v", "p"]),
        clean_merge("M2", ["M1", "B2"], 5, ["v", "p"]),
        mk_commit("T", ["M2"], 6, ["q"]),
    ]
    return build_graph(commits, "T")


def study_graph():
    """One merge bundling two unrelated pairs, futures scripted per pair,
    plus a trivial single-commit merge downstream."""
    commits = [
        mk_commit("R", [], 1, ["base"]),
        mk_commit("b1", ["R"], 2, ["p1", "q1"]),
        mk_commit("b2", ["b1"], 3, ["p2", "q2"]),
        clean_merge("M", ["R", "b2"], 4, ["p1", "q1", "p2", "q2"]),
        mk_commit("F1", ["M"], 5, ["p1", "q1"]),
        mk_commit("F2", ["F1"], 6, ["p2", "q2"]),
        mk_commit("T", ["F2"], 7, ["t"]),
        mk_commit("s1", ["T"], 8, ["s"]),
        clean_merge("MT", ["T", "s1"], 9, ["s"]),
        mk_commit("H", ["MT"], 10, ["z"]),
    ]
    return build_graph(commits, "H")


def bundle_chain(k):
    """k sequential merges, each bundling four singleton branch commits."""
    commits = [mk_commit("R", [], 1, ["p"])]
    tip = "R"
    ts = 1
    for j in range(k):
        prev = tip
        for letter in "abcd":
            ts += 1
            parent = prev if letter == "a" else f"{letter_prev}{j}"
            commits.append(mk_commit(f"{letter}{j}", [parent], ts, [f"{letter}_{j}"]))
            letter_prev = letter
        ts += 1
        commits.append(
            clean_merge(
                f"M{j}", [prev, f"d{j}"], ts, [f"{x}_{j}" for x in "abcd"]
            )
        )
        tip = f"M{j}"
    commits.append(mk_commit("T", [tip], ts + 1, ["t"]))
    return build_graph(commits, "T")


def mk_diag(i, value, n_causes=1, characteristic="branch_length"):
    case = EvalCase(hid(f"case{i}"), frozenset({"q"}), "o")
    merges = frozenset(hid(f"m{i}.{j}") for j in range(n_causes))
    length = value if characteristic == "branch_length" else 1
    size = value if characteristic == "merge_size" else 1
    return CausalDiagnosis(
        test_case=case,
        causing_merges=merges,
        max_branch_length=length,
        max_merge_size=size,
    )


class TestDiagnoseCauses:
    def test_single_clean_merge_blamed(self, merge_graph):
        case = EvalCase(hid("H"), frozenset({"b.txt"}), "d.txt")
        d = diagnose(merge_graph, case)
        assert d.causing_merges == {hid("E")}
        assert d.n_causing == 1
        assert d.max_branch_length == 2
        assert d.max_merge_size == 2

    def test_identical_collections_mean_no_diagnosis(self, linear_graph):
        case = EvalCase(hid("L5"), frozenset({"a"}), "b")
        assert diagnose(linear_graph, case) is None

    def test_two_independent_merges_both_blamed(self):
        g = two_merge_graph()
        case = EvalCase(hid("T"), frozenset({"p"}), "w")
        d = diagnose(g, case)
        assert d.causing_merges == {hid("M1"), hid("M2")}
        assert d.n_causing == 2
        assert d.max_branch_length == 1
        assert d.max_merge_size == 2

    def test_merge_entry_membership_is_a_cause(self, conflict_merge_graph):
        case = EvalCase(hid("H"), frozenset({"res.txt"}), "d.txt")
        pair = (Strategy.FIRST_PARENT_NO_MERGE, Strategy.FIRST_PARENT_MERGE)
        d = diagnose(conflict_merge_graph, case, pair)
        assert d.causing_merges == {hid("E")}
        assert d.max_merge_size == 3

    def test_branch_side_must_come_first(self, merge_graph):
        # blame is defined against the first strategy's collection
        case = EvalCase(hid("H"), frozenset({"b.txt"}), "d.txt")
        reversed_pair = (Strategy.FIRST_PARENT_NO_MERGE, Strategy.FULL)
        with pytest.raises(CauseAttributionError):
            diagnose(merge_graph, case, reversed_pair)


class TestWinnerRateTable:
    def test_hand_counted_two_bins(self):
        verdicts = [
            PairedVerdict.WIN_A,
            PairedVerdict.WIN_A,
            PairedVerdict.DRAW,
            PairedVerdict.WIN_B,
            PairedVerdict.WIN_B,
        ]
        cases = [
            (mk_diag(i, value), v)
            for i, (value, v) in enumerate(zip([1, 2, 3, 4, 5], verdicts))
        ]
        table = winner_rate_table(
            cases, "branch_length", Cohort.SINGLE, n_bins=2
        )
        assert len(table) == 2
        first, second = table
        assert (first.low, first.high, first.n) == (1, 3, 3)
        assert (first.wins_a, first.wins_b, first.draws) == (2, 0, 1)
        assert first.win_rate_a == Fraction(2, 3)
        assert (second.low, second.high, second.n) == (4, 5, 2)
        assert (second.wins_a, second.wins_b, second.draws) == (0, 2, 0)

    def test_populations_differ_by_at_most_one(self):
        cases = [
            (mk_diag(i, i % 11 + 1), PairedVerdict.DRAW) for i in range(37)
        ]
        table = winner_rate_table(cases, "branch_length", Cohort.SINGLE)
        sizes = [b.n for b in table]
        assert sum(sizes) == 37
        assert max(sizes) - min(sizes) <= 1

    def test_multi_cause_cohort_median_split(self):
        verdicts = [
            PairedVerdict.WIN_A,
            PairedVerdict.WIN_B,
            PairedVerdict.WIN_A,
            PairedVerdict.WIN_B,
        ]
        cases = [
            (mk_diag(i, value, n_causes=6, characteristic="merge_size"), v)
            for i, (value, v) in enumerate(zip([10, 20, 30, 40], verdicts))
        ]
        # single-cause cases must not leak into the multi cohort
        cases.append((mk_diag(99, 5, n_causes=1), PairedVerdict.WIN_A))
        table = winner_rate_table(cases, "merge_size", Cohort.SIX_PLUS)
        assert [(b.low, b.high, b.n) for b in table] == [(10, 20, 2), (30, 40, 2)]
        assert all(b.wins_a == 1 and b.wins_b == 1 for b in table)

    def test_empty_cohort_yields_empty_table(self):
        cases = [(mk_diag(0, 3, n_causes=2), PairedVerdict.DRAW)]
        assert winner_rate_table(cases, "branch_length", Cohort.SIX_PLUS) == []
        assert winner_rate_table([], "branch_length", Cohort.SINGLE) == []

    def test_fewer_cases_than_bins(self):
        cases = [(mk_diag(0, 7), PairedVerdict.WIN_A)]
        table = winner_rate_table(cases, "branch_length", Cohort.SINGLE, n_bins=5)
        assert [(b.low, b.high, b.n, b.wins_a) for b in table] == [(7, 7, 1, 1)]

    def test_validation(self):
        cases = [(mk_diag(0, 1), PairedVerdict.DRAW)]
        with pytest.raises(ValueError):
            winner_rate_table(cases, "nope", Cohort.SINGLE)
        with pytest.raises(ValueError):
            winner_rate_table(cases, "branch_length", Cohort.SINGLE, n_bins=0)


class TestMedianCap:
    def test_odd_count_takes_the_middle(self):
        assert median_cap([6, 2, 4]) == 4

    def test_even_count_rounds_the_mean_up(self):
        assert median_cap([2, 5]) == 4
        assert median_cap([6, 2, 4, 8]) == 5

    def test_no_sizes_means_no_cap(self):
        assert median_cap([]) is None


class TestCollectionFilters:
    """``analyze-branches --cap`` against first-parent collection sizes
    recomputed with ``collect_commits`` for every evaluated case."""

    CONFIG = RecommenderConfig(collector=Collector.PER_FILE_SLICE)

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        graph = generic_graph(seed=7, n_commits=70)
        snap = tmp_path_factory.mktemp("caps") / "snap.jsonl"
        save_snapshot(graph, snap)
        pair = (Strategy.FULL, Strategy.FIRST_PARENT_MERGE)
        result = run_experiment(graph, pair, self.CONFIG, False)
        sizes = [
            len(collect_commits(
                graph,
                Query(r.test_case.query, r.test_case.commit),
                Strategy.FIRST_PARENT_MERGE,
                self.CONFIG,
            ))
            for r in result.records_a
        ]
        return str(snap), sizes

    def cases_after_cap(self, snap, out, cap):
        code = main(
            ["analyze-branches", "--snapshot", snap, "--out", str(out),
             "--cap", cap]
        )
        assert code == 0
        return json.loads((out / "branch_analysis.json").read_text())[
            "cases_after_cap"
        ]

    def test_cap_keeps_small_collections(self, corpus, tmp_path):
        snap, sizes = corpus
        expected = sum(size <= 3 for size in sizes)
        assert 0 < expected < len(sizes)
        assert self.cases_after_cap(snap, tmp_path, "3") == expected

    def test_median_cap_uses_first_parent_sizes(self, corpus, tmp_path):
        snap, sizes = corpus
        cap = median_cap(sizes)
        expected = sum(size <= cap for size in sizes)
        assert self.cases_after_cap(snap, tmp_path, "median") == expected

    def test_cap_none_keeps_everything(self, corpus, tmp_path):
        snap, sizes = corpus
        assert self.cases_after_cap(snap, tmp_path, "none") == len(sizes)

    def test_cap_zero_drops_everything_nonempty(self, corpus, tmp_path):
        snap, sizes = corpus
        assert self.cases_after_cap(snap, tmp_path, "0") == sizes.count(0)


class TestEligibleMerges:
    def test_long_branch_merge_is_eligible(self, merge_graph):
        assert eligible_merges_for_cochange(merge_graph) == [hid("E")]

    def test_trivial_single_commit_merge_excluded(self):
        commits = [
            mk_commit("R", [], 1, ["p"]),
            mk_commit("B1", ["R"], 2, ["u"]),
            clean_merge("M", ["R", "B1"], 3, ["u"]),
            mk_commit("T", ["M"], 4, ["t"]),
        ]
        g = build_graph(commits, "T")
        assert eligible_merges_for_cochange(g) == []

    def test_single_commit_merge_with_extra_file_is_eligible(self):
        commits = [
            mk_commit("R", [], 1, ["p"]),
            mk_commit("B1", ["R"], 2, ["u"]),
            mk_commit(
                "M", ["R", "B1"], 3, ["u", "res"],
                {"u": (False, True), "res": (False, False)},
            ),
            mk_commit("T", ["M"], 4, ["t"]),
        ]
        g = build_graph(commits, "T")
        assert eligible_merges_for_cochange(g) == [hid("M")]

    def test_only_first_parent_chain_merges_count(self, nested_merge_graph):
        # the inner merge F is reachable only through the branch
        assert eligible_merges_for_cochange(nested_merge_graph) == [hid("H")]


class TestCochangedFilesAndOracle:
    def test_cochanged_files(self):
        sets = [frozenset({"a", "b"}), frozenset({"b", "c"}), frozenset({"d"})]
        assert cochanged_files(sets, "b") == {"a", "c"}
        assert cochanged_files(sets, "d") == frozenset()
        assert cochanged_files(sets, "missing") == frozenset()

    def test_future_oracle_walks_descendants(self, linear_graph):
        # futures of L2 are L3 {a,c}, L4 {a,b}, L5 {a,b}, L6 {a,b}
        g = linear_graph
        assert future_oracle(g, hid("L2"), "a", horizon=1) == {"c"}
        assert future_oracle(g, hid("L2"), "a", horizon=2) == {"b", "c"}
        assert future_oracle(g, hid("L2"), "a") == {"b", "c"}

    def test_future_oracle_horizon_zero(self, linear_graph):
        assert future_oracle(linear_graph, hid("L2"), "a", horizon=0) == frozenset()

    def test_future_oracle_nearest_first(self, merge_graph):
        # descendants of A by distance, then timestamp: C, B, D, E, H;
        # b.txt co-changes only at E (distance 2), the fourth entry
        g = merge_graph
        assert future_oracle(g, hid("A"), "b.txt", horizon=3) == frozenset()
        assert future_oracle(g, hid("A"), "b.txt", horizon=4) == {"d.txt"}

    def test_future_oracle_no_descendants(self, merge_graph):
        assert future_oracle(merge_graph, hid("H"), "h.txt") == frozenset()

    def test_future_oracle_unknown_commit(self, merge_graph):
        with pytest.raises(KeyError):
            future_oracle(merge_graph, hid("nope"), "x")


class TestPrecisionFormula:
    def test_half(self):
        assert precision(
            frozenset({"a", "b"}), frozenset({"a"})
        ) == Fraction(1, 2)

    def test_subset_is_perfect(self):
        assert precision(frozenset({"a"}), frozenset({"a", "b", "c"})) == 1

    def test_disjoint_is_zero(self):
        assert precision(frozenset({"a"}), frozenset({"b"})) == 0

    def test_empty_changed_rejected(self):
        with pytest.raises(ValueError):
            precision(frozenset(), frozenset({"a"}))


class TestCochangeStudy:
    def test_bundled_pairs_fixture(self):
        g = study_graph()
        records, diag = cochange_study(g)
        assert len(records) == 2
        (rec_merge, info_m), (rec_branch, info_b) = records
        assert rec_merge.mode is CochangeMode.FROM_MERGE
        assert rec_branch.mode is CochangeMode.FROM_BRANCH
        assert info_m == info_b
        assert info_m.branch_length == 2
        assert info_m.merge_size == 4

        # the squashed diff claims each file co-changes with three others,
        # the future confirms only its real partner
        files = ["p1", "p2", "q1", "q2"]
        assert dict(rec_merge.per_file_precision) == {
            f: Fraction(1, 3) for f in files
        }
        assert rec_merge.mean_precision == Fraction(1, 3)
        assert dict(rec_branch.per_file_precision) == {
            f: Fraction(1) for f in files
        }
        assert rec_branch.mean_precision == 1
        assert rec_branch.mean_precision > rec_merge.mean_precision

        assert diag.merges_skipped_no_future == 0
        assert diag.files_skipped_empty_changed == 0
        assert diag.modes_skipped_empty == 0

    def test_trivial_merge_excluded_from_study(self):
        g = study_graph()
        assert eligible_merges_for_cochange(g) == [hid("M")]

    def test_merge_without_future_is_skipped(self):
        commits = [
            mk_commit("R", [], 1, ["p"]),
            mk_commit("b1", ["R"], 2, ["u"]),
            mk_commit("b2", ["b1"], 3, ["v"]),
            clean_merge("M", ["R", "b2"], 4, ["u", "v"]),
        ]
        g = build_graph(commits, "M")
        records, diag = cochange_study(g)
        assert records == []
        assert diag.merges_skipped_no_future == 1

    def test_lonely_files_are_skipped_per_mode(self):
        # branch commits touch one file each: branch-level co-change is
        # empty for every file, merge-level still pairs them up
        commits = [
            mk_commit("R", [], 1, ["p"]),
            mk_commit("b1", ["R"], 2, ["u"]),
            mk_commit("b2", ["b1"], 3, ["v"]),
            clean_merge("M", ["R", "b2"], 4, ["u", "v"]),
            mk_commit("T", ["M"], 5, ["t"]),
        ]
        g = build_graph(commits, "T")
        records, diag = cochange_study(g)
        assert [r.mode for r, _ in records] == [CochangeMode.FROM_MERGE]
        assert records[0][0].mean_precision == 0
        assert diag.files_skipped_empty_changed == 2
        assert diag.modes_skipped_empty == 1

    def test_horizon_limits_the_future(self):
        g = study_graph()
        records, _ = cochange_study(g, horizon=1)
        # only F1 {p1, q1} is visible: the p2/q2 claims all score zero
        rec_merge = records[0][0]
        assert rec_merge.per_file_precision["p1"] == Fraction(1, 3)
        assert rec_merge.per_file_precision["p2"] == 0


class TestAddedCochange:
    def test_bundling_two_pairs_adds_four(self):
        g = study_graph()
        assert added_cochange_count(g, hid("M")) == 4

    def test_four_singletons_add_six(self):
        g = bundle_chain(1)
        assert added_cochange_count(g, hid("M0")) == 6

    def test_requires_merge(self, merge_graph):
        with pytest.raises(ValueError):
            added_cochange_count(merge_graph, hid("A"))


class TestSampleHeavyMerges:
    def test_threshold_filters(self):
        g = study_graph()
        assert sample_heavy_merges(g, min_added_cochanges=0) == [
            hid("MT"),
            hid("M"),
        ]
        assert sample_heavy_merges(g, min_added_cochanges=4) == [hid("M")]
        assert sample_heavy_merges(g, min_added_cochanges=5) == []

    def test_default_threshold_excludes_six_pair_merge(self):
        g = bundle_chain(1)
        assert sample_heavy_merges(g) == []
        assert sample_heavy_merges(g, min_added_cochanges=6) == [hid("M0")]

    def test_sampling_is_seeded(self):
        g = bundle_chain(3)
        first = sample_heavy_merges(g, min_added_cochanges=6, n=2, seed=0)
        second = sample_heavy_merges(g, min_added_cochanges=6, n=2, seed=0)
        assert first == second
        assert len(first) == 2
        assert set(first) <= {hid("M0"), hid("M1"), hid("M2")}

    def test_small_candidate_set_returned_whole(self):
        g = bundle_chain(3)
        got = sample_heavy_merges(g, min_added_cochanges=6, n=40)
        assert got == [hid("M2"), hid("M1"), hid("M0")]


class TestBranchInfo:
    def test_clean_merge(self, merge_graph):
        info = branch_info(merge_graph, hid("E"))
        assert info.merge == hid("E")
        assert info.merge_base == hid("A")
        assert info.branch_commit_ids == {hid("D"), hid("B")}
        assert info.branch_length == 2
        assert info.merge_size == 2
        assert not info.has_additional_changes

    def test_conflicted_merge(self, conflict_merge_graph):
        info = branch_info(conflict_merge_graph, hid("E"))
        assert info.merge_size == 3
        assert info.has_additional_changes
