from treewilf.oracle import (
    brute_histogram,
    count_avoiders,
    count_avoiders_by_leaves,
    enumerate_trees,
    internal_count_totals,
    trees_up_to_word_length,
    trees_with_internal,
)
from treewilf.trees import Alphabet, PatternSet, Tree, catalan, emit_polish, parse_polish, vertex_count

BIN = Alphabet.binary()
MIXED = Alphabet(labels=(("m", 2), ("w", 3), ("x", 0)), free_end="x")


class TestEnumeration:
    def test_zero_internal(self):
        assert list(enumerate_trees(BIN, 0)) == [Tree("x")]

    def test_binary_layer_sizes(self):
        assert len(list(enumerate_trees(BIN, 2))) == 4
        assert len(list(enumerate_trees(BIN, 4))) == 23

    def test_layers_are_catalan(self):
        for i in range(8):
            assert len(trees_with_internal(BIN, i)) == catalan(i)

    def test_no_duplicates(self):
        seen = [emit_polish(t) for t in enumerate_trees(MIXED, 4)]
        assert len(seen) == len(set(seen))

    def test_recurrence_matches_enumeration(self):
        for alphabet, bound in ((BIN, 7), (MIXED, 5)):
            totals = internal_count_totals(alphabet, bound)
            for i in range(bound + 1):
                assert len(trees_with_internal(alphabet, i)) == totals[i]

    def test_word_length_enumeration(self):
        for alphabet in (BIN, MIXED):
            trees = trees_up_to_word_length(alphabet, 9)
            words = [emit_polish(t) for t in trees]
            assert len(words) == len(set(words))
            assert all(len(alphabet.tokenize(w)) <= 9 for w in words)
            # every internal node adds at least two vertices, so 4 levels suffice
            by_internal = {
                emit_polish(t)
                for t in enumerate_trees(alphabet, 4)
                if vertex_count(t) <= 9
            }
            assert set(words) == by_internal


class TestHistogram:
    def test_single_node_pattern(self):
        hist = brute_histogram(BIN, parse_polish("mxx", BIN), 2)
        assert hist.count(5, 2) == 2

    def test_left_comb_pattern(self):
        hist = brute_histogram(BIN, parse_polish("mmxxx", BIN), 2)
        assert hist.count(5, 0) == 1
        assert hist.count(5, 1) == 1

    def test_trivial_layer(self):
        hist = brute_histogram(BIN, parse_polish("mxx", BIN), 0)
        assert hist.entries == {(1, 0): 1}

    def test_totals_and_parity(self):
        hist = brute_histogram(BIN, parse_polish("mmxxx", BIN), 5)
        totals: dict[int, int] = {}
        for (n, _), c in hist.entries.items():
            totals[n] = totals.get(n, 0) + c
        for n, c in totals.items():
            assert n % 2 == 1
            assert c == catalan((n - 1) // 2)

    def test_marginal_matches_count_avoiders(self):
        pattern = parse_polish("mxmxx", BIN)
        hist = brute_histogram(BIN, pattern, 5)
        avoiders = count_avoiders(BIN, PatternSet(BIN, (pattern,)), 5)
        assert {n: c for (n, k), c in hist.entries.items() if k == 0} == avoiders


class TestCountAvoiders:
    def test_left_comb_leaves_right_combs(self):
        counts = count_avoiders(BIN, PatternSet.from_words(["mmxxx"]), 4)
        assert counts == {1: 1, 3: 1, 5: 1, 7: 1, 9: 1}

    def test_empty_set_gives_catalan(self):
        counts = count_avoiders(BIN, PatternSet(BIN, ()), 4)
        assert counts == {1: 1, 3: 1, 5: 2, 7: 5, 9: 14}

    def test_single_node_pattern_kills_everything(self):
        counts = count_avoiders(BIN, PatternSet.from_words(["mxx"]), 3)
        assert counts == {1: 1}

    def test_by_leaves(self):
        counts = count_avoiders_by_leaves(BIN, PatternSet.from_words(["mmxxx"]), 4)
        assert counts == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}

    def test_mixed_alphabet_by_leaves(self):
        from treewilf.trees import free_end_count

        counts = count_avoiders_by_leaves(MIXED, PatternSet(MIXED, ()), 3)
        expect: dict[int, int] = {}
        for t in enumerate_trees(MIXED, 3):
            expect[free_end_count(t)] = expect.get(free_end_count(t), 0) + 1
        assert counts == expect
