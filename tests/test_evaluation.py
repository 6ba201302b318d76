import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cochange import (
    AssociationRule,
    EvaluationRecord,
    Outcome,
    PairedVerdict,
    Recommendation,
    RecommendationEntry,
    RecommenderConfig,
    Strategy,
    TestCase as EvalCase,
    aggregate_rates,
    classify,
    eligible,
    generate_test_cases,
    map_all,
    map_app,
    pairwise_verdict,
    repo_level_winner,
    run_experiment,
    wilcoxon_signed_rank,
)
from cochange.evaluation import METRICS, ExperimentResult, _scored_cases
from cochange.history import ancestors_first_parent
from cochange.recommend import Collector, _collect, _run_pipeline, _walk_before
from cochange.reporting import summarize_experiment

from conftest import build_graph, fail_prepare_on, hid, mk_commit
from synthgen import generic_graph

PAIR_NO_MERGE = (Strategy.FULL, Strategy.FIRST_PARENT_NO_MERGE)


def entry(file, score=Fraction(1, 2)):
    rule = AssociationRule(
        frozenset({"seed"}), frozenset({file}), score, score
    )
    return RecommendationEntry(file, score, rule)


def rec(*files):
    return Recommendation(tuple(entry(f) for f in files), Strategy.FULL)


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


class TestEligibility:
    def test_size_out_of_range(self):
        g = build_graph([mk_commit("A", [], 1, ["only"])], "A")
        ok, reason = eligible(g, hid("A"), PAIR_NO_MERGE, RecommenderConfig())
        assert (ok, reason) == (False, "changeset size out of range")

    def test_linear_history_is_identical(self, linear_graph):
        ok, reason = eligible(
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
        ok, reason = eligible(g, hid("T"), PAIR_NO_MERGE, RecommenderConfig())
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
        ok, reason = eligible(g, hid("T"), PAIR_NO_MERGE, RecommenderConfig())
        assert (ok, reason) == (False, "no association rules generated")

    def test_fully_eligible_commit(self):
        g = eligible_graph()
        ok, reason = eligible(g, hid("T"), PAIR_NO_MERGE, RecommenderConfig())
        assert (ok, reason) == (True, None)

    def test_distinct_strategies_required(self, linear_graph):
        with pytest.raises(ValueError):
            eligible(
                linear_graph,
                hid("L5"),
                (Strategy.FULL, Strategy.FULL),
                RecommenderConfig(),
            )


class TestClassify:
    CASE = EvalCase(hid("c"), frozenset({"q1", "q2"}), "oracle")

    def test_success_at_rank_two(self):
        outcome, rank, ap = classify(rec("other", "oracle", "late"), self.CASE)
        assert (outcome, rank, ap) == (Outcome.SUCCESS, 2, Fraction(1, 2))

    def test_query_entries_stripped_before_ranking(self):
        outcome, rank, ap = classify(rec("q1", "q2", "oracle"), self.CASE)
        assert (outcome, rank, ap) == (Outcome.SUCCESS, 1, Fraction(1))

    def test_only_query_entries_is_no_prediction(self):
        outcome, rank, ap = classify(rec("q1", "q2"), self.CASE)
        assert (outcome, rank, ap) == (Outcome.NO_PREDICTION, None, Fraction(0))

    def test_empty_recommendation_is_no_prediction(self):
        outcome, rank, ap = classify(rec(), self.CASE)
        assert (outcome, rank, ap) == (Outcome.NO_PREDICTION, None, Fraction(0))

    def test_wrong_files_is_failure(self):
        outcome, rank, ap = classify(rec("wrong", "also-wrong"), self.CASE)
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
        assert repo_level_winner(a, b, "success_rate") is PairedVerdict.WIN_A
        assert repo_level_winner(b, a, "success_rate") is PairedVerdict.WIN_B

    def test_success_rate_equal_is_draw(self):
        a, b = self.paired([1, 0], [0, 1])
        assert repo_level_winner(a, b, "success_rate") is PairedVerdict.DRAW

    def test_map_all_needs_significance(self):
        # five uniform positive differences: exact p = 2/32 > 0.05
        a, b = self.paired([1] * 5, [0] * 5)
        assert repo_level_winner(a, b, "map_all") is PairedVerdict.DRAW
        # six: exact p = 2/64 < 0.05
        a, b = self.paired([1] * 6, [0] * 6)
        assert repo_level_winner(a, b, "map_all") is PairedVerdict.WIN_A
        assert repo_level_winner(b, a, "map_all") is PairedVerdict.WIN_B

    def test_map_all_all_zero_differences_is_draw(self):
        a, b = self.paired([1, 0, 1], [1, 0, 1])
        assert repo_level_winner(a, b, "map_all") is PairedVerdict.DRAW

    def test_wins_strict_count(self):
        a, b = self.paired([1, 1, 0], [0, 0, 1])
        assert repo_level_winner(a, b, "wins") is PairedVerdict.WIN_A

    def test_unknown_metric(self):
        a, b = self.paired([1], [0])
        with pytest.raises(ValueError):
            repo_level_winner(a, b, "nope")

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            repo_level_winner([], [], "wins")


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
            expected = repo_level_winner(records_a, records_b, metric)
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
        rows.append((case, *(
            _run_pipeline(_collect(walk, case.query, config), case.query, s, config)
            for walk, s in zip(walks, strategies)
        )))
    runs = [run for row in rows for run in row[1:]]

    def fingerprint(db):
        return [(t.source_commit, t.files) for t in db]

    if all(fingerprint(ra.db) == fingerprint(rb.db) for _, ra, rb in rows):
        return "identical changesets", []
    if not any(len(run.db) >= 5 for run in runs):
        return "fewer than five changesets", []
    if not any(run.n_raw_rules for run in runs):
        return "no association rules generated", []
    return None, rows


@st.composite
def evaluation_inputs(draw):
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
            assert eligible(graph, commit, strategies, config) == (
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
