import random

import pytest

from repro.grammar.sequitur import Sequitur, induce_grammar
from tests.oracles import (
    Guard,
    NonTerminal,
    ObjectSequitur,
    Terminal,
    grammar_snapshot,
    recording_token_streams,
)
from tests.oracles import ObjectRule as Rule


class TestSymbols:
    def test_insert_after_links(self):
        a, b, c = Terminal("a"), Terminal("b"), Terminal("c")
        a.insert_after(c)
        a.insert_after(b)
        assert a.next is b and b.next is c and c.prev is b and b.prev is a

    def test_unlink_repairs_neighbours(self):
        a, b, c = Terminal("a"), Terminal("b"), Terminal("c")
        a.insert_after(c)
        a.insert_after(b)
        b.unlink()
        assert a.next is c and c.prev is a

    def test_nonterminal_tracks_refcount(self):
        rule = Rule(1)
        ref = NonTerminal(rule)
        assert rule.refcount == 1
        ref.release()
        assert rule.refcount == 0

    def test_keys_distinguish_kinds(self):
        rule = Rule(3)
        assert Terminal("x").key() != NonTerminal(rule).key()
        assert Guard(rule).is_guard()


class TestRule:
    def test_append_and_iterate(self):
        rule = Rule(0)
        rule.append(Terminal("a"))
        rule.append(Terminal("b"))
        assert [s.token for s in rule.symbols()] == ["a", "b"]
        assert len(rule) == 2

    def test_empty_rule(self):
        assert Rule(0).is_empty()

    def test_expansion_recurses(self):
        inner = Rule(1)
        inner.append(Terminal("x"))
        inner.append(Terminal("y"))
        outer = Rule(0)
        outer.append(NonTerminal(inner))
        outer.append(Terminal("z"))
        assert outer.expansion() == ["x", "y", "z"]

    def test_rhs_string(self):
        inner = Rule(2)
        inner.append(Terminal("x"))
        outer = Rule(0)
        outer.append(Terminal("a"))
        outer.append(NonTerminal(inner))
        assert outer.rhs_string() == "a R2"


class TestSequitur:
    def test_paper_example(self):
        # §3.2.2 of the RPM paper: S = aba bac bac bac cab acc bac bac cab
        # after numerosity reduction = aba bac cab acc bac cab.
        g = induce_grammar("aba bac cab acc bac cab".split())
        rules = g.non_start_rules()
        assert len(rules) == 1
        assert rules[0].expansion() == ["bac", "cab"]

    def test_abcdbc(self):
        g = induce_grammar(list("abcdbcabcdbc"))
        assert g.start.expansion() == list("abcdbcabcdbc")
        expansions = {tuple(r.expansion()) for r in g.non_start_rules()}
        assert ("b", "c") in expansions

    def test_derivation_is_exact(self):
        tokens = list("peter piper picked a peck of pickled peppers")
        g = induce_grammar(tokens)
        assert g.start.expansion() == tokens

    def test_no_rules_for_unique_tokens(self):
        g = induce_grammar(["a", "b", "c", "d"])
        assert g.non_start_rules() == []

    def test_single_token(self):
        g = induce_grammar(["x"])
        assert g.start.expansion() == ["x"]

    def test_empty_input(self):
        g = Sequitur()
        assert g.start.expansion() == []
        assert g.tokens_fed == 0

    def test_rule_utility_invariant(self):
        rnd = random.Random(1)
        for _ in range(100):
            tokens = [rnd.choice("abcde") for _ in range(rnd.randint(1, 120))]
            g = induce_grammar(tokens)
            for rule in g.non_start_rules():
                assert rule.refcount >= 2

    def test_every_rule_is_a_repeat(self):
        rnd = random.Random(2)
        for _ in range(100):
            tokens = [rnd.choice(["aa", "bb", "cc"]) for _ in range(rnd.randint(1, 100))]
            g = induce_grammar(tokens)
            joined = " ".join(tokens)
            for rule in g.non_start_rules():
                needle = " ".join(rule.expansion())
                assert joined.count(needle) >= 2

    def test_derivation_random_fuzz(self):
        rnd = random.Random(3)
        for _ in range(200):
            tokens = [rnd.choice("abc") for _ in range(rnd.randint(1, 200))]
            g = induce_grammar(tokens)
            assert g.start.expansion() == tokens

    def test_compression_on_repetitive_input(self):
        tokens = ["w", "x", "y", "z"] * 100
        g = induce_grammar(tokens)
        assert g.grammar_size() < len(tokens) / 4

    def test_grammar_size_counts_symbols(self):
        g = induce_grammar(["a", "b"])
        assert g.grammar_size() == 2

    def test_to_string_mentions_all_rules(self):
        g = induce_grammar(list("abcabcabc"))
        text = g.to_string()
        assert text.startswith("R0 ->")
        for rule in g.non_start_rules():
            assert f"R{rule.rule_id} ->" in text

    def test_rules_sorted_start_first(self):
        g = induce_grammar(list("xyxyxzxz"))
        rules = g.rules()
        assert rules[0].rule_id == 0
        assert [r.rule_id for r in rules] == sorted(r.rule_id for r in rules)

    def test_feed_all_returns_self(self):
        g = Sequitur()
        assert g.feed_all("ab") is g


def _assert_same_grammar(tokens) -> None:
    array = induce_grammar(tokens)
    reference = ObjectSequitur().feed_all(tokens)
    assert grammar_snapshot(array) == grammar_snapshot(reference)
    assert array.start.expansion() == list(tokens)
    assert array.grammar_size() == reference.grammar_size()
    assert array.to_string() == reference.to_string()
    assert array.tokens_fed == reference.tokens_fed == len(tokens)


def _random_stream(seed: int) -> list:
    """A seeded stream: 1-40 distinct string or int tokens, 0-3,000 long."""
    rnd = random.Random(seed)
    size = rnd.randint(1, 40)
    alphabet = [f"w{i}" for i in range(size)] if seed % 2 else list(range(size))
    length = rnd.randint(0, 3000)
    if seed % 3 == 0:
        # Runs of one token, as numerosity-free SAX streams have.
        tokens = []
        while len(tokens) < length:
            tokens += [rnd.choice(alphabet)] * rnd.randint(1, 60)
        return tokens[:length]
    weights = [rnd.random() ** 3 for _ in alphabet]
    return rnd.choices(alphabet, weights=weights, k=length)


def _tiny_fit_streams() -> list[list[int]]:
    """The token streams the tiny benchmark fits feed Sequitur."""
    from repro import RPMClassifier
    from tests.test_fit_fingerprint import WORKLOADS

    with recording_token_streams() as streams:
        for workload in WORKLOADS.TINY.values():
            for training_set in workload.fits:
                data = training_set.make()
                RPMClassifier(**training_set.classifier_kwargs()).fit(
                    data.X_train, data.y_train
                )
    return streams


class TestArrayMatchesObjectSequitur:
    """The array Sequitur against the object reference in tests/oracles.py."""

    @pytest.mark.parametrize("seed", range(36))
    def test_random_streams(self, seed):
        _assert_same_grammar(_random_stream(seed))

    @pytest.mark.parametrize("length", [0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 255, 1024, 3000])
    def test_single_token_runs(self, length):
        # Every digram of a run overlaps the previous one.
        _assert_same_grammar(["a"] * length)
        _assert_same_grammar([0] * length + [1] + [0] * length)

    def test_alternating_runs(self):
        tokens = []
        for length in range(1, 80):
            tokens += ["x"] * length + ["y"] * (80 - length)
        _assert_same_grammar(tokens)

    def test_tiny_benchmark_fit_streams(self):
        streams = _tiny_fit_streams()
        assert len(streams) > 40
        for tokens in streams:
            _assert_same_grammar(tokens)

    def test_incremental_feeding_matches_one_shot(self):
        tokens = _random_stream(7)
        grammar = Sequitur()
        for token in tokens:
            grammar.feed(token)
        assert grammar_snapshot(grammar) == grammar_snapshot(induce_grammar(tokens))

    def test_expansions_return_fed_tokens(self):
        tokens = [("x", 1), ("y", 2)] * 5
        grammar = induce_grammar(tokens)
        assert grammar.start.expansion() == tokens
        for rule in grammar.non_start_rules():
            assert all(isinstance(token, tuple) for token in rule.expansion())
