import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cochange import (
    Collector,
    Query,
    RecommenderConfig,
    Strategy,
    collect_commits,
    filter_rules,
    generate_test_cases,
    recommend,
    single_consequent_rules,
)
from cochange.history import ancestors_first_parent
from cochange.mining import _rule
from cochange.recommend import _run_pipeline

from conftest import (
    build_graph, databases, evaluation_inputs, hid, mk_commit, thresholds,
)


def chain_graph(changesets):
    """Linear history; changesets listed oldest first, head is the last."""
    commits = []
    prev = None
    for i, files in enumerate(changesets):
        tag = f"n{i}"
        commits.append(mk_commit(tag, [prev] if prev else [], i + 1, files))
        prev = tag
    return build_graph(commits, prev), prev


class TestConfigAndQueryValidation:
    def test_threshold_range(self):
        with pytest.raises(ValueError):
            RecommenderConfig(minsup=Fraction(0))
        with pytest.raises(ValueError):
            RecommenderConfig(minconf=Fraction(11, 10))

    def test_positive_sizes(self):
        for field in ("max_changeset_size", "max_commits", "max_rules"):
            with pytest.raises(ValueError):
                RecommenderConfig(**{field: 0})

    @pytest.mark.parametrize("field", ["minsup", "minconf"])
    @pytest.mark.parametrize("value", [0.1, 1.0, True])
    def test_thresholds_must_be_exact(self, field, value):
        # Fraction(0.1) is not 1/10 and would drop a rule at exactly 1/10
        with pytest.raises(ValueError, match=f"{field} must be exact"):
            RecommenderConfig(**{field: value})

    def test_exact_threshold_forms_accepted(self):
        for value in (Fraction(1, 10), "0.1", "1/10"):
            assert RecommenderConfig(minsup=value).minsup == Fraction(1, 10)
        assert RecommenderConfig(minconf=1).minconf == Fraction(1)

    @pytest.mark.parametrize(
        "field", ["max_changeset_size", "max_commits", "max_rules"]
    )
    @pytest.mark.parametrize("value", [True, 2.5, 7.0, "3"])
    def test_sizes_must_be_ints(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            RecommenderConfig(**{field: value})

    @pytest.mark.parametrize("value", ["sequential", "per-file", "bogus", None])
    def test_collector_must_be_a_collector(self, value):
        # a string would fail the `is Collector.SEQUENTIAL` tests and
        # silently run the per-file collector
        with pytest.raises(ValueError, match="collector must be a Collector"):
            RecommenderConfig(collector=value)

    def test_query_needs_files(self):
        with pytest.raises(ValueError):
            Query(frozenset(), hid("x"))

    def test_unknown_at_commit(self, linear_graph):
        config = RecommenderConfig()
        with pytest.raises(KeyError):
            recommend(
                linear_graph,
                Query(frozenset({"a"}), hid("missing")),
                Strategy.FULL,
                config,
            )


class TestSequentialCollector:
    def test_newest_first_and_excludes_query_commit(self, linear_graph):
        config = RecommenderConfig(collector=Collector.SEQUENTIAL)
        db = collect_commits(
            linear_graph,
            Query(frozenset({"a"}), linear_graph.head),
            Strategy.FULL,
            config,
        )
        assert [t.source_commit for t in db] == [
            hid(f"L{i}") for i in (5, 4, 3, 2, 1, 0)
        ]

    def test_skips_non_matching_changesets(self, linear_graph):
        config = RecommenderConfig(collector=Collector.SEQUENTIAL)
        db = collect_commits(
            linear_graph,
            Query(frozenset({"b"}), linear_graph.head),
            Strategy.FULL,
            config,
        )
        # L3 touched {a, c} only
        assert hid("L3") not in {t.source_commit for t in db}

    def test_oversized_changeset_does_not_consume_a_slot(self):
        big = {f"big{i}" for i in range(10)} | {"q"}
        graph, head = chain_graph(
            [{"q", "r0"}, {"q", "f4"}, {"q", "f3"}, {"q", "f2"}, {"q", "f1"},
             big, {"t"}]
        )
        config = RecommenderConfig(
            collector=Collector.SEQUENTIAL, max_commits=3
        )
        db = collect_commits(
            graph, Query(frozenset({"q"}), hid(head)), Strategy.FULL, config
        )
        assert [sorted(t.files) for t in db] == [
            ["f1", "q"], ["f2", "q"], ["f3", "q"],
        ]

    def test_stops_at_max_commits(self):
        graph, head = chain_graph(
            [{"q", f"f{i}"} for i in range(8)] + [{"t"}]
        )
        config = RecommenderConfig(
            collector=Collector.SEQUENTIAL, max_commits=4
        )
        db = collect_commits(
            graph, Query(frozenset({"q"}), hid(head)), Strategy.FULL, config
        )
        assert len(db) == 4
        assert [sorted(t.files) for t in db] == [
            ["f7", "q"], ["f6", "q"], ["f5", "q"], ["f4", "q"],
        ]


class TestPerFileCollector:
    def test_cap_applies_before_size_filter(self):
        big = {f"big{i}" for i in range(10)} | {"q"}
        graph, head = chain_graph(
            [{"q", "r0"}, {"q", "f4"}, {"q", "f3"}, {"q", "f2"}, {"q", "f1"},
             big, {"t"}]
        )
        config = RecommenderConfig(
            collector=Collector.PER_FILE_SLICE, max_commits=3
        )
        db = collect_commits(
            graph, Query(frozenset({"q"}), hid(head)), Strategy.FULL, config
        )
        # the oversized entry burned one of the three slots, then fell to
        # the size filter; only two changesets survive
        assert [sorted(t.files) for t in db] == [["f1", "q"], ["f2", "q"]]

    def test_slices_union_in_walk_order(self):
        graph, head = chain_graph(
            [{"seed"}, {"b", "x5"}, {"a", "x4"}, {"a", "b"}, {"b", "x2"},
             {"a", "x1"}, {"t"}]
        )
        config = RecommenderConfig(
            collector=Collector.PER_FILE_SLICE, max_commits=2
        )
        db = collect_commits(
            graph,
            Query(frozenset({"a", "b"}), hid(head)),
            Strategy.FULL,
            config,
        )
        # slice(a) = newest two touching a; slice(b) = newest two touching
        # b; union keeps walk order and drops the older leftovers
        assert [sorted(t.files) for t in db] == [
            ["a", "x1"], ["b", "x2"], ["a", "b"],
        ]

    def test_shared_entry_counts_in_both_slices(self):
        graph, head = chain_graph(
            [{"seed"}, {"a", "x3"}, {"b", "x2"}, {"a", "b"}, {"t"}]
        )
        config = RecommenderConfig(
            collector=Collector.PER_FILE_SLICE, max_commits=1
        )
        db = collect_commits(
            graph,
            Query(frozenset({"a", "b"}), hid(head)),
            Strategy.FULL,
            config,
        )
        assert [sorted(t.files) for t in db] == [["a", "b"]]


class TestRecommend:
    def pipeline_graph(self):
        return chain_graph(
            [
                {"x", "y"}, {"x", "y"}, {"x", "y"},
                {"z", "y"}, {"z", "y"}, {"x", "z"},
                {"t"},
            ]
        )

    def test_fired_rules_and_dedup(self):
        graph, head = self.pipeline_graph()
        rec = recommend(
            graph,
            Query(frozenset({"x", "z"}), hid(head)),
            Strategy.FULL,
            RecommenderConfig(),
        )
        files = [(e.file, e.score) for e in rec.entries]
        # y is recommended once, at the score of the stronger rule
        assert files == [
            ("y", Fraction(1, 2)),
            ("x", Fraction(1, 6)),
            ("z", Fraction(1, 6)),
        ]

    def test_query_files_not_stripped_here(self):
        graph, head = self.pipeline_graph()
        rec = recommend(
            graph,
            Query(frozenset({"x", "z"}), hid(head)),
            Strategy.FULL,
            RecommenderConfig(),
        )
        assert {"x", "z"} <= {e.file for e in rec.entries}

    def test_rules_with_uncovered_antecedents_do_not_fire(self):
        graph, head = self.pipeline_graph()
        rec = recommend(
            graph,
            Query(frozenset({"z"}), hid(head)),
            Strategy.FULL,
            RecommenderConfig(),
        )
        assert all(e.via_rule.antecedent <= {"z"} for e in rec.entries)

    def test_max_rules_cut_comes_before_the_antecedent_check(self):
        # Collected for {z}: {z,y} twice and {x,z}.  The best rule, y -> z,
        # does not fire for the query, and with max_rules=1 it is the only
        # rule kept, so z -> y never gets its turn.
        graph, head = self.pipeline_graph()
        query = Query(frozenset({"z"}), hid(head))
        rec = recommend(graph, query, Strategy.FULL, RecommenderConfig())
        assert rec.entries[0].file == "y"
        rec = recommend(
            graph, query, Strategy.FULL, RecommenderConfig(max_rules=1)
        )
        assert rec.entries == ()

    def test_entries_carry_rule_provenance(self):
        graph, head = self.pipeline_graph()
        rec = recommend(
            graph,
            Query(frozenset({"x"}), hid(head)),
            Strategy.FULL,
            RecommenderConfig(),
        )
        for e in rec.entries:
            assert e.score == e.via_rule.support
            assert e.file in e.via_rule.consequent

    def test_empty_history_gives_empty_recommendation(self):
        graph, head = chain_graph([{"only"}])
        rec = recommend(
            graph,
            Query(frozenset({"only"}), hid(head)),
            Strategy.FULL,
            RecommenderConfig(),
        )
        assert rec.entries == ()
        assert rec.strategy is Strategy.FULL


def reference_pipeline(db, files, config):
    """Every single-consequent rule built, ranked and cut, then the first
    covered rule per consequent: the numbers of rules mined and kept, and
    the entries."""
    raw = single_consequent_rules(db, config.minsup, config.minconf) if db else []
    rules = filter_rules(raw, config.max_rules)
    entries, seen = [], set()
    for rule in rules:
        if rule.antecedent <= files:
            (consequent,) = rule.consequent
            if consequent not in seen:
                seen.add(consequent)
                entries.append((consequent, rule.support, rule))
    return len(raw), len(rules), entries


class TestPipelineAgainstReference:
    @settings(max_examples=300)
    @given(
        db=st.one_of(st.just([]), databases()),
        files=st.frozensets(st.sampled_from("abcdefghij"), min_size=1),
        minsup=st.one_of(st.just(Fraction(1)), thresholds()),
        minconf=st.one_of(st.just(Fraction(1)), thresholds()),
        max_rules=st.one_of(st.just(1), st.integers(1, 40)),
    )
    def test_matches_building_every_rule(self, db, files, minsup, minconf, max_rules):
        config = RecommenderConfig(minsup=minsup, minconf=minconf, max_rules=max_rules)
        run = _run_pipeline(db, files, config)
        n_raw, n_rules, entries = reference_pipeline(db, files, config)
        assert run.n_rules == n_rules
        # reason 4 of evaluation reads n_rules as "was any rule mined"
        assert (run.n_rules == 0) == (n_raw == 0)
        rules = [_rule(len(db), key) for key in run.fired]
        assert [
            (key[4], rule.support, rule) for key, rule in zip(run.fired, rules)
        ] == entries
        assert run.db is db


class TestThresholdsStayGuarded:
    """The pipeline ranks on a config's thresholds without re-validating
    them, so every way to make a config must still check (the miners'
    own checks are in ``tests/test_mining.py``)."""

    @pytest.mark.parametrize("field", ["minsup", "minconf"])
    @pytest.mark.parametrize(
        "value, message",
        [(0.5, "must be exact"), (True, "must be exact"),
         (Fraction(0), r"must be in \(0, 1\]"),
         (Fraction(3, 2), r"must be in \(0, 1\]")],
    )
    def test_replace_revalidates(self, field, value, message):
        with pytest.raises(ValueError, match=f"{field} {message}"):
            dataclasses.replace(RecommenderConfig(), **{field: value})


class TestRecommendAgainstReference:
    """``recommend`` against collecting and building every rule, on the
    case queries of head-chain commits."""

    @settings(max_examples=40)
    @given(drawn=evaluation_inputs())
    def test_matches_reference_pipeline(self, drawn):
        graph, strategies, config = drawn
        for commit in ancestors_first_parent(graph, graph.head):
            for case in generate_test_cases(graph, commit, config.max_changeset_size):
                query = Query(case.query, commit)
                for s in strategies:
                    entries = reference_pipeline(
                        collect_commits(graph, query, s, config), query.files, config
                    )[2]
                    rec = recommend(graph, query, s, config)
                    assert rec.strategy is s
                    assert [(e.file, e.score, e.via_rule) for e in rec.entries] == entries
