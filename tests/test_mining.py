import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cochange import (
    AssociationRule,
    Transaction,
    apriori,
    filter_rules,
    single_consequent_rules,
)
from cochange.mining import _ranked, _rule

from conftest import databases, hid, thresholds, tx


FIVE = tx({"x", "y"}, {"x", "y"}, {"x", "y", "z"}, {"x"}, {"w"})


def brute_force_rules(db, minsup, minconf):
    """Enumerate every itemset and every split; the oracle for apriori."""
    items = sorted({f for t in db for f in t.files})
    n = len(db)
    out = set()
    for r in range(2, len(items) + 1):
        for combo in combinations(items, r):
            s = frozenset(combo)
            c_all = sum(1 for t in db if s <= t.files)
            if c_all == 0 or Fraction(c_all, n) < minsup:
                continue
            for k in range(1, r):
                for ante in combinations(combo, k):
                    a = frozenset(ante)
                    c_a = sum(1 for t in db if a <= t.files)
                    conf = Fraction(c_all, c_a)
                    if conf >= minconf:
                        out.add((a, s - a, Fraction(c_all, n), conf))
    return out


def as_tuples(rules):
    return {(r.antecedent, r.consequent, r.support, r.confidence) for r in rules}


def reference_support(db, itemset):
    """Fraction of transactions containing every item of ``itemset``."""
    items = frozenset(itemset)
    if not db:
        raise ValueError("support is undefined on an empty database")
    if not items:
        raise ValueError("support is undefined for the empty itemset")
    hits = sum(1 for t in db if items <= t.files)
    return Fraction(hits, len(db))


def reference_confidence(db, antecedent, consequent):
    """support(antecedent | consequent) / support(antecedent)."""
    x = frozenset(antecedent)
    y = frozenset(consequent)
    sx = reference_support(db, x)
    if sx == 0:
        raise ValueError("confidence is undefined: antecedent never occurs")
    return reference_support(db, x | y) / sx


class TestSupportConfidence:
    def test_worked_example(self):
        assert reference_support(FIVE, {"x", "y"}) == Fraction(3, 5)
        assert reference_confidence(FIVE, {"x"}, {"y"}) == Fraction(3, 4)

    def test_absent_itemset_has_zero_support(self):
        assert reference_support(FIVE, {"nope"}) == 0

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            reference_support([], {"x"})

    def test_empty_itemset_rejected(self):
        with pytest.raises(ValueError):
            reference_support(FIVE, set())

    def test_confidence_undefined_without_antecedent_occurrences(self):
        with pytest.raises(ValueError):
            reference_confidence(FIVE, {"nope"}, {"x"})

    def test_results_are_exact_rationals(self):
        s = reference_support(FIVE, {"x"})
        assert isinstance(s, Fraction) and s == Fraction(4, 5)


class TestTransactionAndRuleValidation:
    def test_transaction_needs_files(self):
        with pytest.raises(ValueError):
            Transaction(frozenset(), hid("t"))

    def test_rule_sides_disjoint(self):
        with pytest.raises(ValueError):
            AssociationRule(
                frozenset({"a"}), frozenset({"a"}), Fraction(1, 2), Fraction(1, 2)
            )

    def test_rule_support_cannot_exceed_confidence(self):
        with pytest.raises(ValueError):
            AssociationRule(
                frozenset({"a"}), frozenset({"b"}), Fraction(1, 2), Fraction(1, 4)
            )

    def test_rule_sides_non_empty(self):
        with pytest.raises(ValueError):
            AssociationRule(
                frozenset(), frozenset({"b"}), Fraction(1, 2), Fraction(1, 2)
            )

    @staticmethod
    def rule(sup, conf):
        return AssociationRule(frozenset({"a"}), frozenset({"b"}), sup, conf)

    @pytest.mark.parametrize("sup, conf, message", [
        (Fraction(0), Fraction(1, 2), "support out of range: 0"),
        (Fraction(-1, 3), Fraction(1, 2), "support out of range: -1/3"),
        (Fraction(5, 4), Fraction(5, 4), "support out of range: 5/4"),
        (2, 2, "support out of range: 2"),
        (Fraction(1, 2), Fraction(49, 100), "confidence out of range: 49/100"),
        (Fraction(1, 3), Fraction(1, 4), "confidence out of range: 1/4"),
        (Fraction(1, 2), Fraction(101, 100), "confidence out of range: 101/100"),
        (Fraction(1, 2), 2, "confidence out of range: 2"),
    ])
    def test_rule_range_boundaries_rejected(self, sup, conf, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.rule(sup, conf)

    @pytest.mark.parametrize("sup, conf", [
        (Fraction(1, 1000), Fraction(1, 1000)),  # support just above 0
        (Fraction(1, 3), Fraction(2, 6)),  # confidence equal to support
        (Fraction(1, 2), Fraction(1)),  # confidence at 1
        (1, 1),  # int inputs at the top of both ranges
        (Fraction(1, 4), 1),
    ])
    def test_rule_range_boundaries_accepted(self, sup, conf):
        r = self.rule(sup, conf)
        assert (r.support, r.confidence) == (sup, conf)

    @pytest.mark.parametrize("sup, conf, field", [
        (0.5, Fraction(1, 2), "support"),
        (True, Fraction(1), "support"),
        (Fraction(1, 2), 0.75, "confidence"),
        (Fraction(1, 2), True, "confidence"),
        ("1/2", Fraction(1, 2), "support"),
    ])
    def test_rule_rejects_non_rational_values(self, sup, conf, field):
        with pytest.raises(ValueError, match=f"^{field} must be a Fraction or an int"):
            self.rule(sup, conf)


class TestApriori:
    def test_worked_example_rules(self):
        rules = apriori(FIVE, Fraction(1, 10), Fraction(1, 10))
        got = as_tuples(rules)
        assert (
            frozenset({"x"}),
            frozenset({"y"}),
            Fraction(3, 5),
            Fraction(3, 4),
        ) in got
        assert (
            frozenset({"y"}),
            frozenset({"x"}),
            Fraction(3, 5),
            Fraction(1),
        ) in got

    def test_thresholds_validated(self):
        with pytest.raises(ValueError):
            apriori(FIVE, Fraction(0), Fraction(1, 2))
        with pytest.raises(ValueError):
            apriori(FIVE, Fraction(1, 2), Fraction(3, 2))

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            apriori([], Fraction(1, 10), Fraction(1, 10))

    def test_high_minsup_prunes_everything(self):
        assert apriori(FIVE, Fraction(9, 10), Fraction(1, 10)) == set()

    def test_single_transaction(self):
        rules = apriori(tx({"a", "b"}), Fraction(1, 2), Fraction(1, 2))
        assert as_tuples(rules) == {
            (frozenset({"a"}), frozenset({"b"}), Fraction(1), Fraction(1)),
            (frozenset({"b"}), frozenset({"a"}), Fraction(1), Fraction(1)),
        }

    def test_multi_file_consequents_present_before_filtering(self):
        rules = apriori(tx({"a", "b", "c"}), Fraction(1, 2), Fraction(1, 2))
        assert any(len(r.consequent) == 2 for r in rules)

    def test_matches_brute_force_on_random_databases(self):
        rng = random.Random(1234)
        items = list("abcdef")
        for _ in range(40):
            n_tx = rng.randint(1, 12)
            db = tx(
                *[
                    set(rng.sample(items, rng.randint(1, len(items))))
                    for _ in range(n_tx)
                ]
            )
            minsup = Fraction(rng.randint(1, 9), 10)
            minconf = Fraction(rng.randint(1, 9), 10)
            assert as_tuples(apriori(db, minsup, minconf)) == brute_force_rules(
                db, minsup, minconf
            )

    def test_rule_support_meets_threshold(self):
        rng = random.Random(7)
        items = list("abcde")
        db = tx(*[set(rng.sample(items, rng.randint(1, 4))) for _ in range(10)])
        minsup = Fraction(3, 10)
        for r in apriori(db, minsup, Fraction(1, 10)):
            assert r.support >= minsup
            assert r.support == reference_support(db, r.antecedent | r.consequent)
            assert r.confidence == reference_confidence(db, r.antecedent, r.consequent)


class TestSingleConsequentRules:
    def test_equals_filtered_apriori_on_random_databases(self):
        rng = random.Random(99)
        items = list("abcdef")
        for _ in range(40):
            db = tx(
                *[
                    set(rng.sample(items, rng.randint(1, len(items))))
                    for _ in range(rng.randint(1, 12))
                ]
            )
            minsup = Fraction(rng.randint(1, 9), 10)
            minconf = Fraction(rng.randint(1, 9), 10)
            fast = single_consequent_rules(db, minsup, minconf)
            slow = {
                r for r in apriori(db, minsup, minconf)
                if len(r.consequent) == 1
            }
            assert set(fast) == slow
            assert len(fast) == len(set(fast))

    def test_rule_existence_matches_apriori(self):
        # a frozen wide transaction below any integral support threshold:
        # every subset is frequent either way
        db = tx({"a", "b", "c", "d"}, {"a"}, {"e"})
        minsup, minconf = Fraction(1, 10), Fraction(1, 10)
        assert bool(single_consequent_rules(db, minsup, minconf)) == bool(
            apriori(db, minsup, minconf)
        )

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            single_consequent_rules([], Fraction(1, 2), Fraction(1, 2))


class TestFilterRules:
    def rules_from(self, db):
        return apriori(db, Fraction(1, 10), Fraction(1, 10))

    def test_single_consequent_only(self):
        kept = filter_rules(self.rules_from(tx({"a", "b", "c"}, {"a", "b", "c"})))
        assert all(len(r.consequent) == 1 for r in kept)

    def test_cap_at_max_rules(self):
        db = tx(*[set("abcdefg") for _ in range(3)])
        kept = filter_rules(self.rules_from(db), max_rules=10)
        assert len(kept) == 10

    def test_order_independent_of_input_permutation(self):
        db = tx({"a", "b"}, {"a", "b", "c"}, {"b", "c"}, {"a", "c"}, {"a", "b"})
        rules = list(self.rules_from(db))
        rng = random.Random(99)
        baseline = filter_rules(rules)
        for _ in range(5):
            rng.shuffle(rules)
            assert filter_rules(rules) == baseline

    def test_ordering_support_then_confidence(self):
        kept = filter_rules(self.rules_from(FIVE))
        metrics = [(r.support, r.confidence) for r in kept]
        assert metrics == sorted(metrics, key=lambda m: (-m[0], -m[1]))

    def test_tie_break_prefers_smaller_antecedent(self):
        db = tx({"a", "b", "c"}, {"a", "b", "c"})
        kept = filter_rules(self.rules_from(db), max_rules=100)
        same_score = [
            r for r in kept if (r.support, r.confidence) == (Fraction(1), Fraction(1))
        ]
        sizes = [len(r.antecedent) for r in same_score]
        assert sizes == sorted(sizes)

    def test_max_rules_must_be_positive(self):
        with pytest.raises(ValueError):
            filter_rules([], max_rules=0)


def ranked_rules(db, minsup, minconf, max_rules):
    return [_rule(len(db), key) for key in _ranked(db, minsup, minconf, max_rules)]


class TestTopRules:
    """The best ``max_rules`` rules as ``_ranked`` picks them on integer keys."""

    @settings(max_examples=300)
    @given(
        db=databases(),
        minsup=st.one_of(st.just(Fraction(1)), thresholds()),
        minconf=st.one_of(st.just(Fraction(1)), thresholds()),
        max_rules=st.one_of(st.just(1), st.integers(1, 40)),
    )
    def test_matches_reference(self, db, minsup, minconf, max_rules):
        assert ranked_rules(db, minsup, minconf, max_rules) == filter_rules(
            single_consequent_rules(db, minsup, minconf), max_rules
        )

    def test_rule_exactly_at_minsup_is_kept(self):
        db = tx({"a", "b"}, *[{"c"}] * 9)
        rules = ranked_rules(db, Fraction(1, 10), Fraction(1, 10), 10)
        assert {(r.antecedent, r.support) for r in rules} == {
            (frozenset({"a"}), Fraction(1, 10)),
            (frozenset({"b"}), Fraction(1, 10)),
        }

    def test_rule_exactly_at_minconf_is_kept(self):
        # a -> b: support 1/2 and confidence 1/2, both exactly at threshold
        db = tx({"a", "b"}, {"a"})
        rules = ranked_rules(db, Fraction(1, 2), Fraction(1, 2), 10)
        assert AssociationRule(
            frozenset({"a"}), frozenset({"b"}), Fraction(1, 2), Fraction(1, 2)
        ) in rules

    def test_cut_keeps_the_best_of_tied_rules(self):
        db = tx(*[set("abcd")] * 3)
        rules = ranked_rules(db, Fraction(1), Fraction(1), 1)
        assert rules == [
            AssociationRule(
                frozenset({"a"}), frozenset({"b"}), Fraction(1), Fraction(1)
            )
        ]


def tied_databases():
    """Databases over 2-5 files drawn from at most 3 distinct changesets,
    so many itemsets share a count and the cut often splits a level."""
    files = st.sampled_from("abcde")
    pool = st.lists(st.frozensets(files, min_size=1), min_size=1, max_size=3)
    return pool.flatmap(
        lambda p: st.lists(st.sampled_from(p), min_size=1, max_size=12)
    ).map(lambda picks: tx(*picks))


class TestLevelCut:
    """``_ranked`` keys the count levels best first and stops before a
    level once ``max_rules`` keys are built."""

    # Count 3: ab, ac, bc and abc (9 rules at minconf 1/2); count 2: de.
    TIERED = tx(*[set("abc")] * 3, {"c"}, {"c"}, *[{"d", "e"}] * 2)

    @pytest.mark.parametrize("max_rules, expected", [
        (1, [("a", "b")]),
        (4, [("a", "b"), ("a", "c"), ("b", "a"), ("b", "c")]),
        (6, [("a", "b"), ("a", "c"), ("b", "a"), ("b", "c"),
             ("ab", "c"), ("ac", "b")]),
        (8, [("a", "b"), ("a", "c"), ("b", "a"), ("b", "c"),
             ("ab", "c"), ("ac", "b"), ("bc", "a"), ("c", "a")]),
    ])
    def test_cut_inside_a_level_keeps_its_best(self, max_rules, expected):
        # Within count 3: c_x 3 before c_x 5 (c's rules), then one-file
        # antecedents before two, then antecedent, then consequent order.
        keys = _ranked(self.TIERED, Fraction(1, 7), Fraction(1, 2), max_rules)
        assert [("".join(x), item) for _, _, _, x, item in keys] == expected
        assert {k[0] for k in keys} == {-3}
        assert [_rule(7, k) for k in keys] == filter_rules(
            single_consequent_rules(self.TIERED, Fraction(1, 7), Fraction(1, 2)),
            max_rules,
        )

    def test_cut_at_a_level_boundary(self):
        # The 9 rules of count 3 fill a cut of 9; a cut of 10 takes one of de.
        nine = _ranked(self.TIERED, Fraction(1, 7), Fraction(1, 2), 9)
        ten = _ranked(self.TIERED, Fraction(1, 7), Fraction(1, 2), 10)
        assert {k[0] for k in nine} == {-3}
        assert ten[:9] == nine
        assert ten[9] == (-2, 2, 1, ("d",), "e")

    def test_top_level_failing_minconf_falls_through(self):
        # ab (count 3) has confidence 3/8 both ways; cd (count 2) has 1.
        db = tx(*[{"a", "b"}] * 3, *[{"a"}] * 5, *[{"b"}] * 5, *[{"c", "d"}] * 2)
        rules = ranked_rules(db, Fraction(1, 15), Fraction(1, 2), 1)
        assert rules == [AssociationRule(
            frozenset({"c"}), frozenset({"d"}), Fraction(2, 15), Fraction(1)
        )]
        assert ranked_rules(db, Fraction(1, 15), Fraction(1, 2), 5) == filter_rules(
            single_consequent_rules(db, Fraction(1, 15), Fraction(1, 2)), 5
        )

    def test_max_rules_above_the_rule_count_keeps_every_rule(self):
        every = single_consequent_rules(FIVE, Fraction(1, 5), Fraction(1, 5))
        assert ranked_rules(FIVE, Fraction(1, 5), Fraction(1, 5), 100) == filter_rules(
            every, 100
        )
        assert len(every) < 100

    def test_empty_database_has_no_keys(self):
        assert _ranked([], Fraction(1, 2), Fraction(1, 2), 10) == []

    @settings(max_examples=400)
    @given(
        db=tied_databases(),
        minsup=st.one_of(st.just(Fraction(1, 12)), thresholds()),
        minconf=st.one_of(st.just(Fraction(1, 12)), thresholds()),
        max_rules=st.integers(1, 3),
    )
    def test_small_cuts_on_tied_databases_match_reference(
        self, db, minsup, minconf, max_rules
    ):
        assert ranked_rules(db, minsup, minconf, max_rules) == filter_rules(
            single_consequent_rules(db, minsup, minconf), max_rules
        )


@st.composite
def repeated_databases(draw):
    """1-4 distinct changesets over up to six files, each repeated 1-120
    times, in shuffled order: each distinct changeset is one run of bits
    in ``_ranked``'s masks, up to 120 wide."""
    pool = draw(st.lists(st.frozensets(st.sampled_from("abcdef"), min_size=1),
                         min_size=1, max_size=4, unique=True))
    picks = [files for files in pool for _ in range(draw(st.integers(1, 120)))]
    draw(st.randoms(use_true_random=False)).shuffle(picks)
    return tx(*picks)


class TestMaskRuns:
    @settings(max_examples=150)
    @given(
        db=repeated_databases(),
        minsup=st.one_of(st.just(Fraction(1, 480)), thresholds()),
        minconf=st.one_of(st.just(Fraction(1, 480)), thresholds()),
        max_rules=st.integers(1, 40),
    )
    def test_repeated_changesets_match_reference(self, db, minsup, minconf, max_rules):
        assert ranked_rules(db, minsup, minconf, max_rules) == filter_rules(
            single_consequent_rules(db, minsup, minconf), max_rules
        )

    def test_interleaved_repeats_count_every_transaction(self):
        # 120 of {a, b} and 70 of {a}, alternating while both last: a
        # run per changeset must still count a in all 190.
        db = tx(*[{"a", "b"}, {"a"}] * 70, *[{"a", "b"}] * 50)
        assert _ranked(db, Fraction(1, 190), Fraction(1, 190), 10) == [
            (-120, 120, 1, ("b",), "a"), (-120, 190, 1, ("a",), "b"),
        ]


class TestExactThresholds:
    @pytest.mark.parametrize("value", [0.5, 1.0, True])
    def test_float_and_bool_rejected_naming_the_field(self, value):
        with pytest.raises(ValueError, match="minsup must be exact"):
            apriori(FIVE, value, Fraction(1, 2))
        with pytest.raises(ValueError, match="minconf must be exact"):
            single_consequent_rules(FIVE, Fraction(1, 2), value)

    def test_int_and_decimal_string_accepted(self):
        assert single_consequent_rules(FIVE, 1, "0.1") == single_consequent_rules(
            FIVE, Fraction(1), Fraction(1, 10)
        )
