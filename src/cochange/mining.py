"""Association rule mining over co-change transactions.

Transactions are sets of file paths extracted from history; rules are
scored with exact rational support and confidence.  Floats never enter
the mining path.

Mining and ranking are one integer pass, ``_ranked``: vertical bitmask
counts, thresholds compared as integer cross-products, and a top-k pick
on integer rank keys.  Rules rank by count first, so it keys the
frequent itemsets one count level at a time, best first, and stops
before a level once ``max_rules`` keys are built: no rule of a lower
count can reach the cut.  It trusts its thresholds: the recommendation
pipeline passes those of a ``RecommenderConfig``, validated when it was
built, and builds a ``Fraction`` rule (``_rule``) only for a key whose
rule fires.  ``apriori`` (level-wise, with candidate pruning), and
``single_consequent_rules`` followed by ``filter_rules``, are the
straightforward reference it is tested against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Transaction:
    """One changeset offered to the miner, tagged with its source commit."""

    files: frozenset[str]
    source_commit: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "files", frozenset(self.files))
        if not self.files:
            raise ValueError("transaction must contain at least one file")


@dataclass(frozen=True)
class AssociationRule:
    antecedent: frozenset[str]
    consequent: frozenset[str]
    support: Fraction
    confidence: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "antecedent", frozenset(self.antecedent))
        object.__setattr__(self, "consequent", frozenset(self.consequent))
        if not self.antecedent or not self.consequent:
            raise ValueError("rule sides must be non-empty")
        if not self.antecedent.isdisjoint(self.consequent):
            raise ValueError("rule sides must be disjoint")
        s, c = self.support, self.confidence
        for name, v in (("support", s), ("confidence", c)):
            if type(v) is bool or not isinstance(v, (Fraction, int)):
                raise ValueError(
                    f"{name} must be a Fraction or an int, "
                    f"not {type(v).__name__}: {v!r}"
                )
        # Denominators are positive, so the range checks are integer
        # cross-products: 0 < s <= 1 and s <= c <= 1.
        if not (0 < s.numerator <= s.denominator):
            raise ValueError(f"support out of range: {s}")
        if not (
            s.numerator * c.denominator <= c.numerator * s.denominator
            and c.numerator <= c.denominator
        ):
            raise ValueError(f"confidence out of range: {c}")


def _validate_threshold(name: str, value: Fraction) -> Fraction:
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10, and
    # would silently drop a rule sitting exactly at the threshold.
    if isinstance(value, (float, bool)):
        raise ValueError(
            f"{name} must be exact (a Fraction, an int or a decimal "
            f"string), not {type(value).__name__}: {value!r}"
        )
    value = Fraction(value)
    if not (0 < value <= 1):
        raise ValueError(f"{name} must be in (0, 1]: {value}")
    return value


def _frequent_itemsets(
    db: Sequence[Transaction], minsup: Fraction
) -> dict[frozenset[str], int]:
    """Level-wise frequent itemset counts.

    (k+1)-candidates are joined from frequent k-itemsets sharing a
    (k-1)-prefix and pruned unless every k-subset is frequent.
    """
    tx = [t.files for t in db]
    n = len(tx)
    counts: dict[frozenset[str], int] = {}
    singles = Counter(f for t in tx for f in t)
    level = []
    for item, c in singles.items():
        if Fraction(c, n) >= minsup:
            s = frozenset((item,))
            counts[s] = c
            level.append(s)

    while level:
        level_set = set(level)
        tuples = sorted(tuple(sorted(s)) for s in level)
        candidates: list[frozenset[str]] = []
        for i in range(len(tuples)):
            for j in range(i + 1, len(tuples)):
                a, b = tuples[i], tuples[j]
                if a[:-1] != b[:-1]:
                    break
                cand = frozenset(a + (b[-1],))
                if all(cand - {x} in level_set for x in cand):
                    candidates.append(cand)
        level = []
        for cand in candidates:
            c = sum(1 for t in tx if cand <= t)
            if c and Fraction(c, n) >= minsup:
                counts[cand] = c
                level.append(cand)
    return counts


def _mining_input(
    db: Sequence[Transaction], minsup: Fraction, minconf: Fraction
) -> tuple[Fraction, Fraction]:
    """The validated thresholds; ValueError on an empty ``db``."""
    if not db:
        raise ValueError("cannot mine an empty transaction database")
    return (_validate_threshold("minsup", minsup),
            _validate_threshold("minconf", minconf))


def apriori(
    db: Sequence[Transaction], minsup: Fraction, minconf: Fraction
) -> set[AssociationRule]:
    """All rules x -> y with support(x|y) >= minsup and confidence >= minconf.

    Rules are generated from every split of every frequent itemset of
    size >= 2; consequents of any size are produced here (the
    single-consequent restriction lives in filter_rules).
    """
    minsup, minconf = _mining_input(db, minsup, minconf)
    n = len(db)
    counts = _frequent_itemsets(db, minsup)

    rules: set[AssociationRule] = set()
    for itemset, c_all in counts.items():
        if len(itemset) < 2:
            continue
        members = sorted(itemset)
        for k in range(1, len(members)):
            for ante in combinations(members, k):
                x = frozenset(ante)
                conf = Fraction(c_all, counts[x])
                if conf >= minconf:
                    rules.add(
                        AssociationRule(x, itemset - x, Fraction(c_all, n), conf)
                    )
    return rules


def single_consequent_rules(
    db: Sequence[Transaction], minsup: Fraction, minconf: Fraction
) -> list[AssociationRule]:
    """Rules x -> {y} only, unordered.

    Equal to filtering apriori's output down to one-file consequents,
    but skips the exponential sweep over wider splits, which matters on
    small databases where every subset of a wide changeset is frequent.
    A frequent itemset of size >= 2 yields some split at >= minconf iff
    it yields a single-consequent one (shrinking the consequent can only
    raise confidence), so even rule existence is preserved.
    """
    minsup, minconf = _mining_input(db, minsup, minconf)
    n = len(db)
    counts = _frequent_itemsets(db, minsup)

    rules: list[AssociationRule] = []
    for itemset, c_all in counts.items():
        if len(itemset) < 2:
            continue
        sup = Fraction(c_all, n)
        for item in itemset:
            x = itemset - {item}
            conf = Fraction(c_all, counts[x])
            if conf >= minconf:
                rules.append(AssociationRule(x, frozenset((item,)), sup, conf))
    return rules


def _rule_order(rule: AssociationRule):
    # descending support, descending confidence, small antecedents first,
    # then lexicographic file order for full determinism
    return (
        -rule.support,
        -rule.confidence,
        len(rule.antecedent),
        tuple(sorted(rule.antecedent)),
        tuple(sorted(rule.consequent)),
    )


def filter_rules(
    rules: Iterable[AssociationRule], max_rules: int = 10
) -> list[AssociationRule]:
    """Keep single-consequent rules, best ``max_rules`` of them.

    The ordering is a total order, so the result does not depend on the
    input ordering.
    """
    if max_rules < 1:
        raise ValueError("max_rules must be positive")
    kept = [r for r in rules if len(r.consequent) == 1]
    kept.sort(key=_rule_order)
    return kept[:max_rules]


# (-c_all, c_x, len(x), x, item): rule x -> {item} of count c_all
_RankKey = tuple[int, int, int, tuple[str, ...], str]


def _ranked(
    db: Sequence[Transaction], minsup: Fraction, minconf: Fraction, max_rules: int
) -> list[_RankKey]:
    """The rank keys ``(-c_all, c_x, len(x), x, item)`` of the best
    ``max_rules`` single-consequent rules, best first, for thresholds
    already validated; an empty ``db`` has none.  Built as rules by
    ``_rule``, they equal ``filter_rules(single_consequent_rules(...))``.

    Each file's transactions are one bitmask, so an itemset's count is
    the popcount of its prefix's mask ANDed with its last file's mask
    (Eclat's vertical tidsets); the bits are laid out per distinct
    changeset, so each is read once.  With n fixed, support c_all/n and
    confidence c_all/c_x rank exactly as the key.  The search counts
    every frequent itemset; keys are built only for the count levels
    that can reach the cut, and each level begun is keyed whole, since
    its rules are ordered by the key's later fields.
    """
    n = len(db)
    sup_den, sup_need = minsup.denominator, minsup.numerator * n
    conf_den, conf_num = minconf.denominator, minconf.numerator

    # Each distinct changeset is one run of bits, as wide as the number
    # of transactions holding it, so every popcount is unchanged.
    weights: dict[frozenset[str], int] = {}
    for t in db:
        weights[t.files] = weights.get(t.files, 0) + 1
    masks: dict[str, int] = {}
    low = 0
    for files, w in weights.items():
        run = ((1 << w) - 1) << low
        low += w
        for f in files:
            masks[f] = masks.get(f, 0) | run

    # Depth-first over frequent prefixes, each with its transaction mask
    # and the files after its last one that may extend it.
    counts: dict[tuple[str, ...], int] = {}
    multi: list[tuple[tuple[str, ...], int]] = []  # itemsets of 2+ files
    stack = [((), (1 << n) - 1, sorted(masks.items()))]
    while stack:
        prefix, prefix_mask, extensions = stack.pop()
        frequent = []
        for f, mask in extensions:
            mask &= prefix_mask
            c = mask.bit_count()
            if c * sup_den >= sup_need:
                itemset = prefix + (f,)
                counts[itemset] = c
                if prefix:
                    multi.append((itemset, c))
                frequent.append((f, mask))
        # The last frequent extension has nothing left to extend it.
        for i in range(len(frequent) - 1):
            f, mask = frequent[i]
            stack.append((prefix + (f,), mask, frequent[i + 1:]))

    # Key one count level at a time, best first: a rule of a lower count
    # ranks below every rule of a higher one, so once ``max_rules`` keys
    # are built no lower level can reach the cut.
    multi.sort(key=itemgetter(1), reverse=True)
    keys: list[_RankKey] = []
    level = 0
    for itemset, c_all in multi:
        if c_all != level:
            if len(keys) >= max_rules:
                break
            level = c_all
        for i, item in enumerate(itemset):
            x = itemset[:i] + itemset[i + 1:]
            c_x = counts[x]
            if c_all * conf_den >= conf_num * c_x:
                keys.append((-c_all, c_x, len(x), x, item))
    keys.sort()
    return keys[:max_rules]


def _rule(n: int, key: _RankKey) -> AssociationRule:
    """The rule a ``_ranked`` key stands for, over ``n`` transactions."""
    neg, c_x, _, x, item = key
    return AssociationRule(
        frozenset(x), frozenset((item,)), Fraction(-neg, n), Fraction(-neg, c_x)
    )

