import importlib
import io
import itertools
import json
import math
import random
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import example, given, settings, strategies as st

import cochange.history as history_module
import cochange.mining as mining_module
from cochange import (
    AssociationRule,
    Commit,
    CommitGraph,
    EvaluationRecord,
    Outcome,
    PairedVerdict,
    Query,
    Recommendation,
    RecommendationEntry,
    RecommenderConfig,
    Strategy,
    TestCase as EvalCase,
    Transaction,
    aggregate_rates,
    generate_test_cases,
    load_snapshot,
    map_all,
    map_app,
    pairwise_verdict,
    recommend,
    run_experiment,
    save_snapshot,
    single_consequent_rules,
    wilcoxon_signed_rank,
)
from cochange.branches import analyze_branches
from cochange.cli import main
import cochange.evaluation as evaluation_module
from cochange.evaluation import (
    ALPHA,
    METRICS,
    ExperimentResult,
    _ChainWalk,
    _classify,
    _compare,
    _prepare_commit,
    _scored_cases,
)
from cochange.history import _entry_files, ancestors_all, ancestors_first_parent
from cochange.mining import _ranked
from cochange.recommend import (
    Collector,
    _collect,
    _fire,
    _walk_before,
)
from cochange.reporting import summarize_experiment

from conftest import (
    build_graph,
    evaluation_inputs,
    fail_prepare_on,
    hid,
    mk_commit,
    random_dags,
    reference_newest_first,
    reference_reachable,
)
from synthgen import generic_graph, long_branch_graph, short_branch_graph

PAIR_NO_MERGE = (Strategy.FULL, Strategy.FIRST_PARENT_NO_MERGE)
# ``cochange.recommend`` the attribute is the function
recommend_module = importlib.import_module("cochange.recommend")


def record(ap, outcome, case=None, strategy=Strategy.FULL, n_recs=1, n_rules=1):
    rank = None
    ap = Fraction(ap)
    if outcome is Outcome.SUCCESS:
        rank = int(1 / ap)
    return EvaluationRecord(
        test_case=case or EvalCase(hid("c"), frozenset({"q"}), "o"),
        strategy=strategy,
        outcome=outcome,
        oracle_rank=rank,
        average_precision=ap,
        n_recommendations=n_recs,
        n_rules=n_rules,
    )


def eligible_graph():
    """One long-enough branch, oversized merge, then a 3-file test commit.

    The merge squashes to 15 files so it is never a test commit itself;
    only T qualifies, and only the full walk sees the branch changesets.
    """
    commits = [mk_commit("R", [], 1, ["seed"])]
    union = set()
    prev = "R"
    for i in range(6):
        tag = f"b{i}"
        files = {"x", "y", "z", f"fa{i}", f"fb{i}"}
        union |= files
        commits.append(mk_commit(tag, [prev], 2 + i, files))
        prev = tag
    commits.append(
        mk_commit(
            "M",
            ["R", prev],
            10,
            union,
            {f: (False, True) for f in union},
        )
    )
    commits.append(mk_commit("T", ["M"], 11, ["x", "y", "z"]))
    return build_graph(commits, "T")


class TestGenerateTestCases:
    def test_leave_one_out(self, linear_graph):
        cases = generate_test_cases(linear_graph, hid("L3"))
        assert [(c.oracle, sorted(c.query)) for c in cases] == [
            ("a", ["c"]),
            ("c", ["a"]),
        ]

    def test_three_file_changeset(self):
        g = build_graph([mk_commit("A", [], 1, ["a", "b", "c"])], "A")
        cases = generate_test_cases(g, hid("A"))
        assert len(cases) == 3
        for c in cases:
            assert c.query == {"a", "b", "c"} - {c.oracle}

    def test_oversized_changeset_yields_nothing(self):
        g = build_graph(
            [mk_commit("A", [], 1, [f"f{i}" for i in range(11)])], "A"
        )
        assert generate_test_cases(g, hid("A")) == []

    def test_single_file_changeset_yields_nothing(self):
        g = build_graph([mk_commit("A", [], 1, ["only"])], "A")
        assert generate_test_cases(g, hid("A")) == []

    def test_max_files_parameter(self):
        g = build_graph([mk_commit("A", [], 1, ["a", "b", "c"])], "A")
        assert generate_test_cases(g, hid("A"), max_files=2) == []

    def test_unknown_commit(self, linear_graph):
        with pytest.raises(KeyError):
            generate_test_cases(linear_graph, hid("missing"))

    def test_oracle_never_in_query(self):
        with pytest.raises(ValueError):
            EvalCase(hid("c"), frozenset({"a"}), "a")


def eligibility(graph, commit, strategies, config):
    """Whether ``commit`` alone is eligible, and the first reason it fails."""
    changesets = {}
    walks = tuple(_ChainWalk(graph, s, config, commit, changesets) for s in strategies)
    reason, _ = _prepare_commit(graph, commit, walks, config)
    return reason is None, reason


class TestEligibility:
    def test_size_out_of_range(self):
        g = build_graph([mk_commit("A", [], 1, ["only"])], "A")
        ok, reason = eligibility(g, hid("A"), PAIR_NO_MERGE, RecommenderConfig())
        assert (ok, reason) == (False, "changeset size out of range")

    def test_linear_history_is_identical(self, linear_graph):
        ok, reason = eligibility(
            linear_graph, hid("L5"), PAIR_NO_MERGE, RecommenderConfig()
        )
        assert (ok, reason) == (False, "identical changesets")

    def test_too_few_changesets(self):
        commits = [mk_commit("R", [], 1, ["seed"])]
        prev = "R"
        for i in range(4):
            commits.append(mk_commit(f"b{i}", [prev], 2 + i, ["q", "o"]))
            prev = f"b{i}"
        commits.append(
            mk_commit(
                "M", ["R", prev], 8, ["q", "o"],
                {"q": (False, True), "o": (False, True)},
            )
        )
        commits.append(mk_commit("T", ["M"], 9, ["q", "o"]))
        g = build_graph(commits, "T")
        ok, reason = eligibility(g, hid("T"), PAIR_NO_MERGE, RecommenderConfig())
        assert (ok, reason) == (False, "fewer than five changesets")

    def test_no_rules_when_history_has_only_singletons(self):
        commits = [mk_commit("R", [], 1, ["seed"])]
        prev = "R"
        for i in range(5):
            commits.append(mk_commit(f"b{i}", [prev], 2 + i, ["q"]))
            prev = f"b{i}"
        commits.append(
            mk_commit("M", ["R", prev], 8, ["q"], {"q": (False, True)})
        )
        commits.append(mk_commit("T", ["M"], 9, ["q", "o"]))
        g = build_graph(commits, "T")
        ok, reason = eligibility(g, hid("T"), PAIR_NO_MERGE, RecommenderConfig())
        assert (ok, reason) == (False, "no association rules generated")

    def test_fully_eligible_commit(self):
        g = eligible_graph()
        ok, reason = eligibility(g, hid("T"), PAIR_NO_MERGE, RecommenderConfig())
        assert (ok, reason) == (True, None)


class TestClassify:
    CASE = EvalCase(hid("c"), frozenset({"q1", "q2"}), "oracle")

    def test_success_at_rank_two(self):
        outcome, rank, ap = _classify(["other", "oracle", "late"], self.CASE)
        assert (outcome, rank, ap) == (Outcome.SUCCESS, 2, Fraction(1, 2))

    def test_query_entries_stripped_before_ranking(self):
        outcome, rank, ap = _classify(["q1", "q2", "oracle"], self.CASE)
        assert (outcome, rank, ap) == (Outcome.SUCCESS, 1, Fraction(1))

    def test_only_query_entries_is_no_prediction(self):
        outcome, rank, ap = _classify(["q1", "q2"], self.CASE)
        assert (outcome, rank, ap) == (Outcome.NO_PREDICTION, None, Fraction(0))

    def test_empty_recommendation_is_no_prediction(self):
        outcome, rank, ap = _classify([], self.CASE)
        assert (outcome, rank, ap) == (Outcome.NO_PREDICTION, None, Fraction(0))

    def test_wrong_files_is_failure(self):
        outcome, rank, ap = _classify(["wrong", "also-wrong"], self.CASE)
        assert (outcome, rank, ap) == (Outcome.FAILURE, None, Fraction(0))


class TestAggregates:
    def test_rates_sum_to_one(self):
        records = [
            record(Fraction(1), Outcome.SUCCESS),
            record(Fraction(1, 2), Outcome.SUCCESS),
            record(0, Outcome.FAILURE),
            record(0, Outcome.NO_PREDICTION),
        ]
        s, f, np_, mean_recs, mean_rules = aggregate_rates(records)
        assert (s, f, np_) == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        assert s + f + np_ == 1
        assert mean_recs == 1 and mean_rules == 1

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            aggregate_rates([])

    def test_map_all_counts_no_prediction_as_zero(self):
        records = [
            record(Fraction(1), Outcome.SUCCESS),
            record(0, Outcome.FAILURE),
            record(0, Outcome.NO_PREDICTION),
        ]
        assert map_all(records) == Fraction(1, 3)
        assert map_app(records) == Fraction(1, 2)

    def test_map_app_undefined_without_predictions(self):
        records = [record(0, Outcome.NO_PREDICTION)]
        assert map_all(records) == 0
        with pytest.raises(ValueError):
            map_app(records)

    def test_maps_equal_without_no_prediction_records(self):
        records = [
            record(Fraction(1), Outcome.SUCCESS),
            record(0, Outcome.FAILURE),
        ]
        assert map_all(records) == map_app(records) == Fraction(1, 2)


class TestPairwiseVerdict:
    def test_higher_ap_wins(self):
        a = record(Fraction(1, 2), Outcome.SUCCESS)
        b = record(Fraction(1, 3), Outcome.SUCCESS)
        assert pairwise_verdict(a, b) is PairedVerdict.WIN_A
        assert pairwise_verdict(b, a) is PairedVerdict.WIN_B

    def test_silence_beats_false_recommendations(self):
        silent = record(0, Outcome.NO_PREDICTION, n_recs=0)
        wrong = record(0, Outcome.FAILURE, n_recs=3)
        assert pairwise_verdict(silent, wrong) is PairedVerdict.WIN_A
        assert pairwise_verdict(wrong, silent) is PairedVerdict.WIN_B

    def test_mutual_silence_draws(self):
        a = record(0, Outcome.NO_PREDICTION, n_recs=0)
        b = record(0, Outcome.NO_PREDICTION, n_recs=0)
        assert pairwise_verdict(a, b) is PairedVerdict.DRAW

    def test_mutual_failure_draws(self):
        a = record(0, Outcome.FAILURE)
        b = record(0, Outcome.FAILURE)
        assert pairwise_verdict(a, b) is PairedVerdict.DRAW

    def test_requires_same_case(self):
        a = record(0, Outcome.FAILURE)
        b = record(
            0, Outcome.FAILURE, case=EvalCase(hid("d"), frozenset({"q"}), "o")
        )
        with pytest.raises(ValueError):
            pairwise_verdict(a, b)

    def test_antisymmetry_on_random_records(self):
        rng = random.Random(42)
        flipped = {
            PairedVerdict.WIN_A: PairedVerdict.WIN_B,
            PairedVerdict.WIN_B: PairedVerdict.WIN_A,
            PairedVerdict.DRAW: PairedVerdict.DRAW,
        }
        for _ in range(300):
            def random_record():
                kind = rng.randrange(3)
                if kind == 0:
                    rank = rng.randint(1, 10)
                    return record(Fraction(1, rank), Outcome.SUCCESS)
                if kind == 1:
                    return record(0, Outcome.FAILURE, n_recs=rng.randint(1, 5))
                return record(0, Outcome.NO_PREDICTION, n_recs=0)

            a, b = random_record(), random_record()
            assert pairwise_verdict(b, a) is flipped[pairwise_verdict(a, b)]


class TestWilcoxon:
    def test_six_positive_differences_exact(self):
        pairs = [(Fraction(i + 2), Fraction(1)) for i in range(6)]
        result = wilcoxon_signed_rank(pairs)
        assert result.statistic == 0
        assert result.p_value == Fraction(2, 64)

    def test_symmetric_pairs_not_significant(self):
        pairs = [(1, 2), (2, 1), (3, 5), (5, 3)]
        result = wilcoxon_signed_rank(pairs)
        assert result.p_value >= 0.99

    def test_tied_magnitudes_get_average_ranks(self):
        result = wilcoxon_signed_rank([(2, 1), (1, 2), (3, 1)], method="exact")
        assert result.statistic == 1.5
        assert result.p_value == 0.75

    def test_all_zero_differences_is_no_decision(self):
        result = wilcoxon_signed_rank([(1, 1), (2, 2)])
        assert result.p_value is None

    def test_zero_differences_dropped(self):
        with_zeros = wilcoxon_signed_rank([(1, 1)] * 4 + [(3, 1), (4, 1)])
        without = wilcoxon_signed_rank([(3, 1), (4, 1)])
        assert with_zeros == without

    def test_exact_method_capped(self):
        pairs = [(Fraction(i + 2), Fraction(1)) for i in range(26)]
        with pytest.raises(ValueError):
            wilcoxon_signed_rank(pairs, method="exact")

    @pytest.mark.parametrize("pairs", [
        [(2, 1)] * 6 + [(1, 2)],  # exact p 0.125; the approximation's is 0.0726
        [(1, 1), (2, 2)],  # all-zero differences return before any method runs
    ], ids=["non-zero", "all-zero"])
    def test_unknown_method_is_refused(self, pairs):
        with pytest.raises(ValueError, match="'exakt'"):
            wilcoxon_signed_rank(pairs, method="exakt")

    def test_exact_and_approx_agree_on_most_samples(self):
        rng = random.Random(2024)
        deviations = []
        for _ in range(100):
            n = rng.randint(9, 12)
            pairs = [
                (
                    Fraction(rng.randint(0, 99), 100),
                    Fraction(rng.randint(0, 99), 100),
                )
                for _ in range(n)
            ]
            exact = wilcoxon_signed_rank(pairs, method="exact")
            approx = wilcoxon_signed_rank(pairs, method="approx")
            if exact.p_value is None:
                assert approx.p_value is None
                continue
            deviations.append(abs(exact.p_value - approx.p_value))
        close = sum(d <= 0.02 for d in deviations)
        assert close / len(deviations) >= 0.95
        assert max(deviations) < 0.1

    def test_empty_input_is_no_decision(self):
        assert wilcoxon_signed_rank([]).p_value is None


def reference_wilcoxon(pairs, method):
    """The signed-rank test in plain ``Fraction`` arithmetic: each rank
    counted from its definition, the exact p by enumerating every sign
    assignment."""
    diffs = [d for d in (Fraction(a) - Fraction(b) for a, b in pairs) if d]
    n = len(diffs)
    if n == 0:
        return 0.0, None
    mags = [abs(d) for d in diffs]
    ranks = [sum(m < x for m in mags) + Fraction(sum(m == x for m in mags) + 1, 2)
             for x in mags]
    w_pos = sum((r for d, r in zip(diffs, ranks) if d > 0), Fraction(0))
    w_neg = sum((r for d, r in zip(diffs, ranks) if d < 0), Fraction(0))
    t = min(w_pos, w_neg)
    if method == "exact":
        total = sum(ranks)
        hits = 0
        for signs in itertools.product((False, True), repeat=n):
            w = sum((r for s, r in zip(signs, ranks) if s), Fraction(0))
            hits += w <= t or w >= total - t
        return float(t), hits / 2 ** n
    mu = Fraction(n * (n + 1), 4)
    var = Fraction(n * (n + 1) * (2 * n + 1), 24) - Fraction(
        sum(k ** 3 - k for k in Counter(mags).values()), 48
    )
    z = (float(t) - float(mu) + 0.5) / math.sqrt(float(var))
    return float(t), min(1.0, math.erfc(-z / math.sqrt(2)))


AVERAGE_PRECISIONS = st.one_of(
    st.sampled_from([Fraction(0)] + [Fraction(1, rank) for rank in range(1, 11)]),
    st.fractions(min_value=0, max_value=1, max_denominator=60),
)


class TestExactSumsAgainstFractionFormulas:
    """``map_all``, ``map_app`` and ``wilcoxon_signed_rank`` sum integers
    over common denominators; they equal the plain ``Fraction`` formulas."""

    @settings(max_examples=200)
    @given(st.lists(
        st.one_of(
            st.builds(lambda rank: (Fraction(1, rank), Outcome.SUCCESS),
                      st.integers(1, 10)),
            st.sampled_from([(Fraction(0), Outcome.FAILURE),
                             (Fraction(0), Outcome.NO_PREDICTION)]),
        ),
        min_size=1, max_size=40,
    ))
    def test_maps(self, rows):
        records = [record(ap, outcome) for ap, outcome in rows]
        aps = [ap for ap, _ in rows]
        assert map_all(records) == Fraction(sum(aps, Fraction(0)), len(aps))
        applicable = [ap for ap, outcome in rows if outcome is not Outcome.NO_PREDICTION]
        if applicable:
            assert map_app(records) == Fraction(sum(applicable, Fraction(0)), len(applicable))
        else:
            with pytest.raises(ValueError):
                map_app(records)

    @settings(max_examples=300)
    @given(
        pairs=st.lists(st.tuples(AVERAGE_PRECISIONS, AVERAGE_PRECISIONS), max_size=30),
        method=st.sampled_from(["auto", "exact", "approx"]),
    )
    def test_wilcoxon(self, pairs, method):
        n = sum(a != b for a, b in pairs)
        if method == "exact" and n > 10:
            pairs = [(a, b) for a, b in pairs if a != b][:10]
        elif method == "auto":
            method = "exact" if n < 10 else "approx"
        assert tuple(wilcoxon_signed_rank(pairs, method)) == reference_wilcoxon(pairs, method)


def reference_repo_level_winner(records_a, records_b, metric):
    """Repository-level winner under one metric.

    ``success_rate`` and ``wins`` compare strictly; ``map_all`` requires
    a significant signed-rank test (two-sided, alpha 0.05) before the
    higher mean wins.
    """
    if len(records_a) != len(records_b) or not records_a:
        raise ValueError("paired, non-empty record lists required")
    if metric == "success_rate":
        return _compare(
            aggregate_rates(records_a)[0], aggregate_rates(records_b)[0]
        )
    if metric == "map_all":
        pairs = [
            (a.average_precision, b.average_precision)
            for a, b in zip(records_a, records_b)
        ]
        result = wilcoxon_signed_rank(pairs)
        if result.p_value is None or result.p_value >= ALPHA:
            return PairedVerdict.DRAW
        return _compare(map_all(records_a), map_all(records_b))
    if metric == "wins":
        verdicts = Counter(
            pairwise_verdict(a, b) for a, b in zip(records_a, records_b)
        )
        return _compare(verdicts[PairedVerdict.WIN_A], verdicts[PairedVerdict.WIN_B])
    raise ValueError(f"unknown metric: {metric}")


class TestRepoLevelWinner:
    def paired(self, aps_a, aps_b):
        records_a, records_b = [], []
        for i, (ap_a, ap_b) in enumerate(zip(aps_a, aps_b)):
            case = EvalCase(hid(f"case{i}"), frozenset({"q"}), "o")
            for ap, strategy, bucket in [
                (ap_a, Strategy.FULL, records_a),
                (ap_b, Strategy.FIRST_PARENT_NO_MERGE, records_b),
            ]:
                out = Outcome.SUCCESS if ap else Outcome.FAILURE
                bucket.append(record(ap, out, case=case, strategy=strategy))
        return records_a, records_b

    def test_success_rate_strict(self):
        a, b = self.paired([1, 1, 0], [1, 0, 0])
        assert reference_repo_level_winner(a, b, "success_rate") is PairedVerdict.WIN_A
        assert reference_repo_level_winner(b, a, "success_rate") is PairedVerdict.WIN_B

    def test_success_rate_equal_is_draw(self):
        a, b = self.paired([1, 0], [0, 1])
        assert reference_repo_level_winner(a, b, "success_rate") is PairedVerdict.DRAW

    def test_map_all_needs_significance(self):
        # five uniform positive differences: exact p = 2/32 > 0.05
        a, b = self.paired([1] * 5, [0] * 5)
        assert reference_repo_level_winner(a, b, "map_all") is PairedVerdict.DRAW
        # six: exact p = 2/64 < 0.05
        a, b = self.paired([1] * 6, [0] * 6)
        assert reference_repo_level_winner(a, b, "map_all") is PairedVerdict.WIN_A
        assert reference_repo_level_winner(b, a, "map_all") is PairedVerdict.WIN_B

    def test_map_all_all_zero_differences_is_draw(self):
        a, b = self.paired([1, 0, 1], [1, 0, 1])
        assert reference_repo_level_winner(a, b, "map_all") is PairedVerdict.DRAW

    def test_wins_strict_count(self):
        a, b = self.paired([1, 1, 0], [0, 0, 1])
        assert reference_repo_level_winner(a, b, "wins") is PairedVerdict.WIN_A

    def test_unknown_metric(self):
        a, b = self.paired([1], [0])
        with pytest.raises(ValueError):
            reference_repo_level_winner(a, b, "nope")

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            reference_repo_level_winner([], [], "wins")


@st.composite
def paired_record_lists(draw):
    """1..30 paired records (so the signed-rank test runs both exact and
    approximate), sometimes skewed so that map_all is significant."""
    skew = draw(st.booleans())
    records_a, records_b = [], []
    for i in range(draw(st.integers(1, 30))):
        case = EvalCase(hid(f"case{i}"), frozenset({"q"}), "o")
        for strategy, bucket, top in (
            (Strategy.FULL, records_a, 4),
            (Strategy.FIRST_PARENT_MERGE, records_b, 0 if skew else 4),
        ):
            rank = draw(st.integers(0, top))  # 0: the oracle was missed
            outcome = Outcome.SUCCESS if rank else draw(
                st.sampled_from([Outcome.FAILURE, Outcome.NO_PREDICTION]))
            bucket.append(record(
                Fraction(1, rank) if rank else 0, outcome, case=case,
                strategy=strategy, n_recs=draw(st.integers(0, 3)),
                n_rules=draw(st.integers(0, 3)),
            ))
    return records_a, records_b


class TestSummaryAgainstRepoLevelWinner:
    @settings(max_examples=150)
    @given(paired_record_lists())
    def test_winners_and_test_match_the_reference(self, records):
        records_a, records_b = records
        result = ExperimentResult(
            Strategy.FULL, Strategy.FIRST_PARENT_MERGE, fairness=False,
            records_a=records_a, records_b=records_b,
            verdicts=[pairwise_verdict(a, b) for a, b in zip(*records)],
        )
        summary = summarize_experiment(result)
        names = {PairedVerdict.WIN_A: "full", PairedVerdict.WIN_B: "fp-merge",
                 PairedVerdict.DRAW: "draw"}
        assert list(summary["repo_winner"]) == list(METRICS)
        for metric in METRICS:
            expected = reference_repo_level_winner(records_a, records_b, metric)
            assert summary["repo_winner"][metric] == names[expected], metric
        pairs = [(a.average_precision, b.average_precision)
                 for a, b in zip(*records)]
        assert summary["wilcoxon_map"] == wilcoxon_signed_rank(pairs)._asdict()


class TestRunExperiment:
    def test_single_eligible_commit_yields_three_events(self):
        g = eligible_graph()
        result = run_experiment(
            g, PAIR_NO_MERGE, RecommenderConfig(), fairness=False
        )
        assert result.commits_considered == 3  # T, M, R on the chain
        assert result.commits_eligible == 1
        assert result.events == 3
        assert result.ineligible_reasons == {
            "changeset size out of range": 2
        }
        assert [r.outcome for r in result.records_a] == [Outcome.SUCCESS] * 3
        assert [r.outcome for r in result.records_b] == [
            Outcome.NO_PREDICTION
        ] * 3
        assert result.verdicts == [PairedVerdict.WIN_A] * 3

    def test_fairness_truncation_can_silence_both_sides(self):
        g = eligible_graph()
        result = run_experiment(
            g, PAIR_NO_MERGE, RecommenderConfig(), fairness=True
        )
        assert result.events == 3
        # the no-merge side had nothing, so fairness empties both lists
        assert all(r.n_recommendations == 0 for r in result.records_a)
        assert result.verdicts == [PairedVerdict.DRAW] * 3

    def test_no_eligible_commits(self, linear_graph):
        result = run_experiment(
            linear_graph, PAIR_NO_MERGE, RecommenderConfig(), fairness=True
        )
        assert result.events == 0
        assert result.commits_eligible == 0
        assert result.ineligible_reasons == {"identical changesets": 7}

    def test_deterministic_across_runs(self):
        g = eligible_graph()
        first = run_experiment(g, PAIR_NO_MERGE, RecommenderConfig(), False)
        second = run_experiment(g, PAIR_NO_MERGE, RecommenderConfig(), False)
        assert first.records_a == second.records_a
        assert first.records_b == second.records_b
        assert first.verdicts == second.verdicts

    def test_per_commit_errors_recorded_and_run_continues(self, monkeypatch):
        g = eligible_graph()
        fail_prepare_on(monkeypatch, "M")
        result = run_experiment(g, PAIR_NO_MERGE, RecommenderConfig(), False)
        assert result.errors == [(hid("M"), "RuntimeError: boom")]
        assert result.events == 3  # T still evaluated
        # R sits beyond the failing commit in walk order, so reaching it
        # proves the loop survived the error
        assert result.ineligible_reasons == {"changeset size out of range": 1}

    def test_same_strategy_twice_is_refused(self):
        with pytest.raises(ValueError, match="needs two distinct strategies"):
            run_experiment(
                eligible_graph(), (Strategy.FULL, Strategy.FULL),
                RecommenderConfig(), False,
            )

    def test_repo_label_defaults_to_graph_label(self):
        g = eligible_graph()
        result = run_experiment(g, PAIR_NO_MERGE, RecommenderConfig(), False)
        assert result.repo_label == "fixture"


def mine_first(graph, commit, strategies, config):
    """The earlier order: mine every case of ``commit`` under both
    strategies, then name the first eligibility condition it fails."""
    cases = generate_test_cases(graph, commit, config.max_changeset_size)
    if not cases:
        return "changeset size out of range", []
    walks = [_walk_before(graph, commit, s) for s in strategies]
    rows = []
    for case in cases:
        dbs = [_collect(walk, case.query, config) for walk in walks]
        rows.append((case, *(
            _fire(db, _ranked(db, config.minsup, config.minconf, config.max_rules),
                  case.query)
            for db in dbs
        )))
    runs = [run for row in rows for run in row[1:]]

    def fingerprint(db):
        return [(t.source_commit, t.files) for t in db]

    if all(fingerprint(ra.db) == fingerprint(rb.db) for _, ra, rb in rows):
        return "identical changesets", []
    if not any(len(run.db) >= 5 for run in runs):
        return "fewer than five changesets", []
    if not any(
        single_consequent_rules(run.db, config.minsup, config.minconf)
        for run in runs if run.db
    ):
        return "no association rules generated", []
    return None, rows


class TestEligibilityBeforeMining:
    @settings(max_examples=80)
    @given(drawn=evaluation_inputs())
    def test_same_reasons_counters_and_rows_as_mine_first(self, drawn):
        graph, strategies, config = drawn
        result = ExperimentResult(*strategies, fairness=False)
        rows = list(_scored_cases(graph, config, result))
        chain = ancestors_first_parent(graph, graph.head)
        expected_rows, reasons = [], Counter()
        for commit in chain:
            reason, commit_rows = mine_first(graph, commit, strategies, config)
            assert eligibility(graph, commit, strategies, config) == (
                reason is None, reason
            )
            reasons.update([reason] if reason else [])
            expected_rows += commit_rows
        assert [row[:3] for row in rows] == expected_rows
        # one verdict per row, the same one the result keeps for its records
        assert [row[3] for row in rows] == result.verdicts
        assert [row[0] for row in rows] == [
            r.test_case for r in result.records_a
        ] == [r.test_case for r in result.records_b]
        assert result.ineligible_reasons == reasons
        assert result.commits_considered == len(chain)
        assert result.commits_eligible == len(chain) - sum(reasons.values())
        assert result.errors == []

    def test_runs_compare_on_what_was_mined_not_on_the_built_rules(self):
        graph = eligible_graph()
        result = ExperimentResult(*PAIR_NO_MERGE, fairness=False)
        (_, run, _, _), *_ = _scored_cases(graph, RecommenderConfig(), result)
        assert run.fired
        again = replace(run)
        assert again == run
        for changed in (replace(run, db=run.db[1:]),
                        replace(run, n_rules=run.n_rules + 1),
                        replace(run, fired=run.fired[1:])):
            assert changed != run


def reference_records(case, runs, strategies, fairness):
    """Both records of one case scored the earlier way: build each run's
    entries, cut them to the shorter list, classify each."""
    entry_lists = []
    for run in runs:
        rules = [mining_module._rule(len(run.db), key) for key in run.fired]
        entry_lists.append(tuple(
            RecommendationEntry(key[4], rule.support, rule)
            for key, rule in zip(run.fired, rules)
        ))
    cut = min(map(len, entry_lists)) if fairness else None
    recs = [Recommendation(entries[:cut], s)
            for entries, s in zip(entry_lists, strategies)]
    return tuple(
        EvaluationRecord(case, s, *_classify((e.file for e in rec.entries), case),
                         len(rec.entries), run.n_rules)
        for s, rec, run in zip(strategies, recs, runs)
    )


class TestKeyScoredStreamAgainstReference:
    @settings(max_examples=60)
    @given(drawn=evaluation_inputs())
    def test_records_and_verdicts_match_scoring_the_recommendations(self, drawn):
        graph, strategies, config = drawn
        for fairness in (False, True):
            result = ExperimentResult(*strategies, fairness=fairness)
            rows = list(_scored_cases(graph, config, result))
            # a commit that raised would leave its records out of both sides
            assert not result.errors
            expected = [
                reference_records(case, (run_a, run_b), strategies, fairness)
                for case, run_a, run_b, _ in rows
            ]
            assert result.records_a == [a for a, _ in expected]
            assert result.records_b == [b for _, b in expected]
            assert [row[3] for row in rows] == result.verdicts == [
                pairwise_verdict(a, b) for a, b in expected
            ]
            # built unchecked, each is what the constructors build
            for r in result.records_a + result.records_b:
                case = r.test_case
                twin_case = EvalCase(case.commit, case.query, case.oracle)
                twin = EvaluationRecord(twin_case, r.strategy, r.outcome, r.oracle_rank,
                                        r.average_precision, r.n_recommendations,
                                        r.n_rules)
                for got, built in ((case, twin_case), (r, twin)):
                    assert got == built
                    assert hash(got) == hash(built) and repr(got) == repr(built)


class TestScoringBuildsNoRule:
    """Evaluation and the branch analysis score on the fired keys; only
    ``recommend()`` builds rules."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every rule built while the fixture is active."""
        built = []
        real_rule, real_check = mining_module._rule, AssociationRule.__post_init__

        def counted_rule(n, key):
            built.append(key)
            return real_rule(n, key)

        def counted_check(rule):
            built.append(rule)
            real_check(rule)

        for module in (mining_module, recommend_module):
            monkeypatch.setattr(module, "_rule", counted_rule)
        monkeypatch.setattr(AssociationRule, "__post_init__", counted_check)
        return built

    def test_run_experiment_builds_no_rule(self, built):
        result = run_experiment(generic_graph(7, 70), PAIR_NO_MERGE,
                                RecommenderConfig(), True)
        assert result.events and any(r.n_recommendations for r in result.records_a)
        assert built == []
        # the counters do see the rules recommend() builds
        graph = eligible_graph()
        result = ExperimentResult(*PAIR_NO_MERGE, fairness=True)
        (case, _, _, _), *_ = _scored_cases(graph, RecommenderConfig(), result)
        rec = recommend(graph, Query(case.query, case.commit), Strategy.FULL,
                        RecommenderConfig())
        assert rec.entries and built

    def test_analyze_branches_builds_no_rule(self, built, tmp_path):
        snapshot = tmp_path / "snap.jsonl"
        save_snapshot(generic_graph(7, 70), snapshot)
        out = tmp_path / "out"
        with redirect_stdout(io.StringIO()):
            code = main(["analyze-branches", "--snapshot", str(snapshot),
                         "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "branch_analysis.json").read_text())
        assert summary["cases_evaluated"] and summary["cases_diagnosed"]
        assert built == []


_POOL = ("a", "b", "c", "d", "e")


@st.composite
def chain_walk_inputs(draw):
    """A ``random_dags`` graph whose commits change up to four files of
    a pool of five (merges with random per-parent flags, so some add
    nothing), small caps that both bind, and which head-chain commits
    ask for their history."""
    shape = draw(random_dags())
    commits = []
    for c in shape.commits.values():
        files = draw(st.frozensets(st.sampled_from(_POOL), max_size=4))
        flags = None
        if c.is_merge:
            others = st.lists(st.booleans(), min_size=len(c.parents) - 1,
                              max_size=len(c.parents) - 1)
            flags = {f: (False, *draw(others)) for f in sorted(files)}
        commits.append(Commit(c.id, c.parents, c.author_timestamp, files, flags))
    graph = CommitGraph.from_commits(commits, shape.head, shape.boundaries)
    caps = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    chain = ancestors_first_parent(graph, graph.head)
    asks = draw(st.lists(st.booleans(), min_size=len(chain), max_size=len(chain)))
    return graph, caps, list(zip(chain, asks))


def _cut_binds():
    """Q's case hiding c queries a and b.  With ``max_commits`` 1 their
    slices hold A and B, and the sequential collector cuts them to B."""
    graph = build_graph([mk_commit("A", [], 1, ["a"]), mk_commit("B", ["A"], 2, ["b"]),
                         mk_commit("Q", ["B"], 3, ["a", "b", "c"])], "Q")
    return graph, (3, 1), [(c, True) for c in ancestors_first_parent(graph, graph.head)]


def _merge_repushed():
    """T is older than M, so N's splice pops M and pushes T, M, N; ``at(M)``
    then undoes it and pushes M again, with its additional change a built
    anew."""
    graph = build_graph([
        mk_commit("A", [], 1, ["a", "b"]),
        mk_commit("S", ["A"], 2, ["b"]),
        mk_commit("T", ["A"], 3, ["c"]),
        mk_commit("M", ["A", "S"], 4, ["a", "b"],
                  {"a": (False, False), "b": (False, True)}),
        mk_commit("N", ["M", "T"], 5, ["a", "c"],
                  {"a": (False, True), "c": (False, False)}),
    ], "N")
    return graph, (3, 2), [(c, True) for c in ancestors_first_parent(graph, graph.head)]


class TestChainWalkAgainstReference:
    @settings(max_examples=300)
    @given(drawn=chain_walk_inputs())
    @example(drawn=_cut_binds())
    def test_reused_indexed_walk_collects_what_collect_does(self, drawn):
        graph, (max_size, max_commits), chain = drawn
        for strategy in Strategy:
            for collector in Collector:
                config = RecommenderConfig(max_changeset_size=max_size,
                                           max_commits=max_commits,
                                           collector=collector)
                walk = _ChainWalk(graph, strategy, config, graph.head, {})
                for commit, asks in chain:
                    walk.at(commit)
                    cases = generate_test_cases(graph, commit)
                    if not (asks and cases):  # a commit without cases collects nothing
                        continue
                    reference = _walk_before(graph, commit, strategy)
                    dbs, index = walk.collect(graph.commit(commit).changeset)
                    assert [dbs[i] for i in index] == [
                        _collect(reference, case.query, config) for case in cases
                    ]
                    # one list per distinct collection, each one used
                    assert len({tuple(db) for db in dbs}) == len(dbs)
                    assert sorted(set(index)) == list(range(len(dbs)))
                    # built unchecked, each is what the constructor builds
                    for t in (t for db in dbs for t in db):
                        assert type(t.files) is frozenset
                        assert t == Transaction(t.files, t.source_commit)

    @settings(max_examples=150)
    @given(drawn=chain_walk_inputs())
    @example(drawn=_merge_repushed())
    def test_both_walks_share_one_object_per_distinct_changeset(self, drawn):
        graph, (max_size, max_commits), chain = drawn
        config = RecommenderConfig(max_changeset_size=max_size, max_commits=max_commits)
        for pair in itertools.combinations(Strategy, 2):
            table = {}
            walks = [_ChainWalk(graph, s, config, graph.head, table) for s in pair]
            # every changeset either walk ever pushes: each ancestor's
            # under full, each first-parent one's otherwise
            pushed = {
                _entry_files(graph, cid, s)[0] for s in pair
                for cid in (ancestors_all if s is Strategy.FULL
                            else ancestors_first_parent)(graph, graph.head)
            } - {frozenset()}
            for commit, asks in chain:
                for walk in walks:
                    walk.at(commit)
                held = [t.files for walk in walks for t in walk._transactions if t]
                assert all(table[files] is files for files in held)
                assert set(table) == pushed
                assert all(key is value for key, value in table.items())
                cases = generate_test_cases(graph, commit)
                if not (asks and cases):
                    continue
                for walk, strategy in zip(walks, pair):
                    reference = _walk_before(graph, commit, strategy)
                    dbs, index = walk.collect(graph.commit(commit).changeset)
                    for k, db in enumerate(dbs):
                        # counting by identity weighs each changeset as
                        # counting the reference collection by value does
                        expected = Counter(t.files for t in _collect(
                            reference, cases[index.index(k)].query, config))
                        assert Counter(id(t.files) for t in db) == {
                            id(table[files]): n for files, n in expected.items()}

    def test_cases_that_collect_alike_share_one_list_and_one_ranking(
        self, monkeypatch
    ):
        #   A -- B -- C -- D -- M -- Q      (first parents)
        #                   \   /
        #                    S --
        # Every commit before Q changes a and b together, except C, which
        # changes c alone.  Q changes a, b and c, so its cases that hide a
        # and b both query c and one of a, b: they collect the same
        # transactions, and the case hiding c collects the others.  Full
        # also collects the side commit S, which fp-no-merge skips.
        graph = build_graph([
            mk_commit("A", [], 1, ["a", "b"]),
            mk_commit("B", ["A"], 2, ["a", "b"]),
            mk_commit("C", ["B"], 3, ["c"]),
            mk_commit("D", ["C"], 4, ["a", "b"]),
            mk_commit("S", ["D"], 5, ["a", "b"]),
            mk_commit("M", ["D", "S"], 6, ["a", "b"],
                      {"a": (False, True), "b": (False, True)}),
            mk_commit("Q", ["M"], 7, ["a", "b", "c"]),
        ], "Q")
        config = RecommenderConfig()
        changesets = {}
        walks = tuple(_ChainWalk(graph, s, config, graph.head, changesets)
                      for s in PAIR_NO_MERGE)
        ranked = []
        real = evaluation_module._ranked

        def counted(db, *thresholds):
            ranked.append(db)
            return real(db, *thresholds)

        monkeypatch.setattr(evaluation_module, "_ranked", counted)
        reason, rows = _prepare_commit(graph, hid("Q"), walks, config)
        assert reason is None
        assert [case.oracle for case, _, _ in rows] == ["a", "b", "c"]
        for k, strategy in enumerate(PAIR_NO_MERGE, 1):
            hide_a, hide_b, hide_c = (row[k].db for row in rows)
            assert hide_a is hide_b and hide_a != hide_c
            assert hide_a == _collect(_walk_before(graph, hid("Q"), strategy),
                                      rows[0][0].query, config)
        assert rows[0][1].db != rows[0][2].db  # the strategies differ
        # one ranking per distinct list per strategy: two each
        expected = [rows[0][1].db, rows[2][1].db, rows[0][2].db, rows[2][2].db]
        assert len(ranked) == 4
        assert all(got is db for got, db in zip(ranked, expected))
        monkeypatch.undo()
        assert [row[1:] for row in rows] == [
            row[1:] for row in mine_first(graph, hid("Q"), PAIR_NO_MERGE, config)[1]
        ]

    def test_run_experiment_builds_no_strategy_walk(self, monkeypatch):
        #   A -- C -- M1 -- G -- M2 -- H     (first parents)
        #    \       /         /
        #     B ------     D --
        # D forks from M1.  Every stretch of the chain up to a merge
        # starts with a two-file commit, so each one collects.
        merged = {"b": (False, True), "d": (False, True)}
        graph = build_graph([
            mk_commit("A", [], 1, ["a", "b"]),
            mk_commit("C", ["A"], 2, ["a", "c"]),
            mk_commit("B", ["A"], 3, ["b", "d"]),
            mk_commit("M1", ["C", "B"], 4, ["b", "d"], merged),
            mk_commit("G", ["M1"], 5, ["a", "d"]),
            mk_commit("D", ["M1"], 6, ["b", "d"]),
            mk_commit("M2", ["G", "D"], 7, ["b", "d"], merged),
            mk_commit("H", ["M2"], 8, ["a", "b"]),
        ], "H")
        expected = run_experiment(graph, PAIR_NO_MERGE, RecommenderConfig(), True)
        calls = []

        def refused(graph, start, *strategy):
            calls.append(start)
            raise AssertionError("a whole walk was built")

        for module in (history_module, recommend_module, evaluation_module):
            for name in ("strategy_walk", "ancestors_all"):
                monkeypatch.setattr(module, name, refused, raising=False)
        result = run_experiment(graph, PAIR_NO_MERGE, RecommenderConfig(), True)
        assert result.commits_considered == 6 and result.errors == []
        assert calls == []
        assert result.records_a == expected.records_a
        assert result.records_b == expected.records_b


def _walk_orders(graph, head):
    """Each strategy's spliced walk ending at ``head``, newest first."""
    return {
        s: _ChainWalk(graph, s, RecommenderConfig(), head, {})._order[::-1]
        for s in Strategy
    }


def _reference_orders(graph, commit):
    fp = ancestors_first_parent(graph, commit)
    full = reference_newest_first(graph, reference_reachable(graph, commit))
    return {Strategy.FULL: full,
            Strategy.FIRST_PARENT_NO_MERGE: fp,
            Strategy.FIRST_PARENT_MERGE: fp}


class TestSplicedWalkOrder:
    @settings(max_examples=300)
    @given(graph=random_dags())
    def test_walk_is_the_ancestor_order_at_every_chain_commit(self, graph):
        chain = ancestors_first_parent(graph, graph.head)
        # forward: the splices of a walk built up to each chain commit
        for commit in chain:
            assert _walk_orders(graph, commit) == _reference_orders(graph, commit)
        # backward: one walk built to the head, undone newest first
        walks = {s: _ChainWalk(graph, s, RecommenderConfig(), graph.head, {})
                 for s in Strategy}
        for commit in chain:
            for walk in walks.values():
                walk.at(commit)
                assert walk._pos == {c: i for i, c in enumerate(walk._order)}
            assert {s: w._order[::-1] for s, w in walks.items()} == (
                _reference_orders(graph, commit)
            )

    def test_splice_runs_on_until_the_old_walk_lines_up(self):
        #   B ---.
        #         \
        #   A ---- P ---- C      (first parents)
        #    \           /
        #     X --------'        X is older than B
        # At C the old walk [P, A, B] comes out as P, B, X, A: once X, the
        # last new commit, is out, the old ones out are P and B, not its
        # two newest, so the splice must go on until A is out too.
        graph = build_graph([
            mk_commit("A", [], 5, ["a"]),
            mk_commit("B", [], 1, ["b"]),
            mk_commit("P", ["A", "B"], 10, ["b"], {"b": (False, True)}),
            mk_commit("X", ["A"], 0, ["x"]),
            mk_commit("C", ["P", "X"], 20, ["x"], {"x": (False, True)}),
        ], "C")
        walk = _ChainWalk(graph, Strategy.FULL, RecommenderConfig(), graph.head, {})
        assert walk._order[::-1] == ancestors_all(graph, hid("C")) == [
            hid(t) for t in "CPBXA"
        ]
        assert walk._log[-1] == (5, [hid("B"), hid("A"), hid("P")])
        walk.at(hid("P"))
        assert walk._order[::-1] == ancestors_all(graph, hid("P"))

    @pytest.mark.parametrize("graph", [
        long_branch_graph(), short_branch_graph(), generic_graph(0, 600),
    ], ids=["long-branches", "short-branches", "generic-600"])
    def test_splices_emit_each_ancestor_once(self, graph):
        # a splice that re-walks the old history would emit it again
        walk = _ChainWalk(graph, Strategy.FULL, RecommenderConfig(), graph.head, {})
        assert walk._order[::-1] == ancestors_all(graph, graph.head)
        assert sum(pushed for pushed, _ in walk._log) == len(walk._order)


def _evaluate(pair):
    return lambda graph: run_experiment(graph, pair, RecommenderConfig(), False)


def _analyze(graph):
    result = ExperimentResult(*PAIR_NO_MERGE, False)
    return result, analyze_branches(graph, RecommenderConfig(), result, "median")


class TestGraphHoldsOnlyDerivedState:
    """Runs leave nothing of their own on the graph they read: after
    both evaluation profiles and a branch analysis on one graph, its
    instance state is its four fields and cached indexes equal to a
    fresh copy's, and each run scores as it does on a graph of its own."""

    RUNS = (_evaluate(PAIR_NO_MERGE),
            _evaluate((Strategy.FULL, Strategy.FIRST_PARENT_MERGE)), _analyze)

    def test_runs_on_one_graph_leave_only_derived_state(self, tmp_path):
        built = generic_graph(7, 70)
        save_snapshot(built, tmp_path / "snap.jsonl")
        for graph in (built, load_snapshot(tmp_path / "snap.jsonl")):
            shared = [run(graph) for run in self.RUNS]
            assert shared[0].records_a and shared[1].records_a

            def fresh():
                return CommitGraph(dict(graph.commits), graph.head,
                                   graph.boundaries, graph.label)

            copy = fresh()
            for key, value in vars(graph).items():
                if key not in ("commits", "head", "boundaries", "label"):
                    assert isinstance(vars(CommitGraph).get(key), cached_property), key
                    assert value == getattr(copy, key), key
            assert shared == [run(fresh()) for run in self.RUNS]
