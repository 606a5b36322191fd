import hashlib
from functools import lru_cache

import pytest

from treewilf.oracle import (
    brute_histogram,
    count_avoiders,
    count_avoiders_by_leaves,
    enumerate_trees,
    trees_up_to_word_length,
)
from treewilf.trees import (
    Alphabet,
    PatternSet,
    Tree,
    _compositions,
    catalan,
    emit_polish,
    enumerate_binary_patterns,
    parse_polish,
    trees_of_size,
    vertex_count,
)

BIN = Alphabet.binary()
MIXED = Alphabet(labels=(("m", 2), ("w", 3), ("x", 0)), free_end="x")


@lru_cache(maxsize=None)
def internal_count_totals(alphabet: Alphabet, max_internal: int) -> tuple[int, ...]:
    """Number of trees per internal-node count, by the recurrence alone (no enumeration)."""
    counts = [1]
    for i in range(1, max_internal + 1):
        total = 0
        for _, k in alphabet.internal_labels:
            for comp in _compositions(i - 1, k):
                prod = 1
                for c in comp:
                    prod *= counts[c]
                total += prod
        counts.append(total)
    return tuple(counts)


class TestEnumeration:
    def test_zero_internal(self):
        assert list(enumerate_trees(BIN, 0)) == [Tree("x")]

    def test_binary_layer_sizes(self):
        assert len(list(enumerate_trees(BIN, 2))) == 4
        assert len(list(enumerate_trees(BIN, 4))) == 23

    def test_layers_are_catalan(self):
        for i in range(8):
            assert len(trees_of_size(BIN, i)) == catalan(i)

    def test_no_duplicates(self):
        seen = [emit_polish(t) for t in enumerate_trees(MIXED, 4)]
        assert len(seen) == len(set(seen))

    def test_recurrence_matches_enumeration(self):
        for alphabet, bound in ((BIN, 7), (MIXED, 5)):
            totals = internal_count_totals(alphabet, bound)
            for i in range(bound + 1):
                assert len(trees_of_size(alphabet, i)) == totals[i]

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

    @pytest.mark.parametrize("trees, digest", [
        pytest.param(lambda: (t for n in range(1, 11) for t in enumerate_binary_patterns(n)),
                     "6c5a34dd06dbcfba4e2e77a93b70f2265ad20ae4dd00bfc49ac03ee9f1236051",
                     id="binary-patterns-1..10"),
        pytest.param(lambda: enumerate_trees(BIN, 8),
                     "b36f924917676d59159281d39b659ca54662db87e9856cd3be7c1aa517786076",
                     id="binary-internal-8"),
        pytest.param(lambda: enumerate_trees(MIXED, 5),
                     "970ae4036f4dc30540a4f73aa15a4b2faa69211a7662e1c986a9fa85f96fc666",
                     id="mixed-internal-5"),
        pytest.param(lambda: trees_up_to_word_length(MIXED, 11),
                     "a7e5a0cdfd8a29b3aea477e06dcb438909cb692534ef185cf782d961b199585f",
                     id="mixed-word-length-11"),
    ])
    def test_pinned_order(self, trees, digest):
        # sha256 of the Polish words joined by newlines, as the per-grading
        # builders that trees_of_size replaced produced them
        words = "\n".join(emit_polish(t) for t in trees())
        assert hashlib.sha256(words.encode()).hexdigest() == digest

    def test_vertex_grading_is_not_a_filter(self):
        # trees with at most 15 vertices need 7 internal nodes over m:2,w:3,x:0,
        # where the internal grading would build 351,679 trees
        assert sum(len(trees_of_size(MIXED, v, 1)) for v in range(16)) == 11223
        assert sum(internal_count_totals(MIXED, 7)) == 351679

    def test_size_arguments(self):
        assert trees_of_size(BIN, 0, 1) == ()
        assert trees_of_size(BIN, 1, 1) == (Tree("x"),)
        assert trees_of_size(BIN, 2, 1) == ()
        for bad in ((-1, 0), (2, 2)):
            with pytest.raises(ValueError):
                trees_of_size(BIN, *bad)


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
