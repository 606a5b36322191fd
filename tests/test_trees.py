import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treewilf.trees import (
    Alphabet,
    ParseError,
    PatternSet,
    Tree,
    catalan,
    count_occurrences,
    emit_polish,
    enumerate_binary_patterns,
    free_end_count,
    graft,
    height,
    is_rooted_subtree,
    mirror,
    parse_polish,
    truncate,
    vertex_count,
    word_key,
)
from treewilf.oracle import enumerate_trees

BIN = Alphabet.binary()
MIXED = Alphabet(labels=(("m", 2), ("w", 3), ("x", 0)), free_end="x")

X = Tree("x")


def m(a, b):
    return Tree("m", (a, b))


@st.composite
def random_trees(draw, alphabet=BIN, max_depth=6):
    def build(depth):
        labels = [(n, k) for n, k in alphabet.labels if depth > 0 or k == 0]
        name, k = draw(st.sampled_from(labels))
        if depth <= 0 or k == 0:
            return Tree(alphabet.free_end)
        return Tree(name, tuple(build(depth - 1) for _ in range(k)))

    return build(draw(st.integers(0, max_depth)))


class TestAlphabet:
    def test_binary(self):
        assert BIN.arity("m") == 2
        assert BIN.free_end == "x"

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Alphabet(labels=(("m", 2), ("m", 3), ("x", 0)), free_end="x")

    def test_exactly_one_free_end(self):
        with pytest.raises(ValueError):
            Alphabet(labels=(("m", 2), ("x", 0), ("u", 0)), free_end="x")
        with pytest.raises(ValueError):
            Alphabet(labels=(("m", 2),), free_end="x")

    def test_from_config(self):
        ab = Alphabet.from_config("m:2, w:3, x:0")
        assert ab.free_end == "x"
        assert ab.arity("w") == 3

    def test_tokenize_multichar(self):
        ab = Alphabet(labels=(("op", 2), ("x", 0)), free_end="x")
        assert ab.tokenize("opxx") == ["op", "x", "x"]
        t = parse_polish("opxopxx", ab)
        assert emit_polish(t) == "opxopxx"


class TestParseEmit:
    def test_single_internal(self):
        assert parse_polish("mxx", BIN) == m(X, X)

    def test_nested(self):
        assert parse_polish("mxmxx", BIN) == m(X, m(X, X))

    def test_truncated_word_fails(self):
        with pytest.raises(ParseError):
            parse_polish("mxm", BIN)

    def test_trailing_symbols_fail(self):
        with pytest.raises(ParseError) as err:
            parse_polish("mxxx", BIN)
        assert err.value.position == 3

    def test_unknown_symbol_position(self):
        with pytest.raises(ParseError) as err:
            parse_polish("mqx", BIN)
        assert err.value.position == 1

    @pytest.mark.parametrize("tokens, message, position", [
        # a complete tree ends the parse: the unknown label after it is trailing
        (["m", "x", "x", "q"], "trailing symbols after a complete tree", 3),
        (["m", "x", "m", "x", "x", "x", "q"], "trailing symbols after a complete tree", 5),
        (["x", "x"], "trailing symbols after a complete tree", 1),
        (["m", "q", "x"], "unknown symbol 'q'", 1),
        (["q"], "unknown symbol 'q'", 0),
        (["m", "x"], "word ended before all arities were satisfied", 2),
        ([], "word ended before all arities were satisfied", 0),
    ])
    def test_token_sequence_errors(self, tokens, message, position):
        with pytest.raises(ParseError) as err:
            parse_polish(tokens, BIN)
        assert str(err.value) == f"{message} (position {position})"
        assert err.value.position == position

    def test_walk_has_no_depth_limit(self):
        depth = 5 * sys.getrecursionlimit()
        word = "m" * depth + "x" * (depth + 1)
        t = parse_polish(word, BIN)
        assert emit_polish(t) == word
        assert word_key(t, BIN) == (0,) * depth + (1,) * (depth + 1)
        assert vertex_count(t) == 2 * depth + 1
        assert free_end_count(t) == count_occurrences(t, X) - depth == depth + 1
        assert emit_polish(graft(t, depth, m(X, X))) == word[:-1] + "mxx"

    def test_emit(self):
        assert emit_polish(m(X, X)) == "mxx"
        assert emit_polish(X) == "x"
        assert emit_polish(m(m(X, X), X)) == "mmxxx"

    def test_round_trip_exhaustive(self):
        for t in enumerate_trees(BIN, 9):
            assert parse_polish(emit_polish(t), BIN) == t

    @given(random_trees(alphabet=MIXED))
    def test_round_trip_random_mixed(self, t):
        assert parse_polish(emit_polish(t), MIXED) == t


class TestGraft:
    def test_onto_trivial(self):
        assert graft(X, 0, m(X, X)) == m(X, X)

    def test_second_leaf(self):
        assert graft(m(X, X), 1, m(X, X)) == m(X, m(X, X))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            graft(m(X, X), 2, X)

    @given(random_trees(), random_trees(max_depth=3), st.integers(0, 30))
    def test_free_end_count_law(self, host, scion, i):
        n = free_end_count(host)
        idx = i % n
        out = graft(host, idx, scion)
        assert free_end_count(out) == n - 1 + free_end_count(scion)


class TestHeight:
    def test_examples(self):
        assert height(X) == 0
        assert height(m(X, X)) == 1
        assert height(m(X, m(X, X))) == 2

    def test_recursion_exhaustive(self):
        for t in enumerate_trees(MIXED, 3):
            if not t.is_free_end():
                assert height(t) == 1 + max(height(c) for c in t.children)


class TestRootedSubtree:
    def test_free_end_below_everything(self):
        for t in enumerate_trees(BIN, 3):
            assert is_rooted_subtree(X, t)

    def test_examples(self):
        assert is_rooted_subtree(m(X, X), parse_polish("mmxxx", BIN))
        assert not is_rooted_subtree(parse_polish("mxmxx", BIN), parse_polish("mmxxx", BIN))

    def test_partial_order(self):
        trees = list(enumerate_trees(BIN, 4))
        above = {
            t: {v for v in trees if is_rooted_subtree(t, v)} for t in trees
        }
        for t in trees:
            assert t in above[t]  # reflexive
        for t in trees:
            for v in above[t]:
                if t in above[v]:
                    assert t == v  # antisymmetric
        for t in trees:
            for v in above[t]:
                assert above[v] <= above[t]  # transitive


class TestOccurrences:
    def test_examples(self):
        assert count_occurrences(parse_polish("mmxxx", BIN), m(X, X)) == 2
        assert count_occurrences(parse_polish("mmmxxxx", BIN), parse_polish("mmxxx", BIN)) == 2

    def test_pattern_equals_tree(self):
        for leaves in (2, 3, 4):
            for p in enumerate_binary_patterns(leaves):
                assert count_occurrences(p, p) == 1

    def test_free_end_pattern_counts_vertices(self):
        for t in enumerate_trees(BIN, 4):
            assert count_occurrences(t, X) == vertex_count(t)


class TestMirror:
    def test_reflection(self):
        assert mirror(parse_polish("mmxxx", BIN)) == parse_polish("mxmxx", BIN)
        assert mirror(m(X, X)) == m(X, X)

    def test_involution_exhaustive(self):
        for t in enumerate_trees(MIXED, 3):
            assert mirror(mirror(t)) == t

    def test_preserves_counts_and_occurrences(self):
        patterns = enumerate_binary_patterns(3)
        for t in enumerate_trees(BIN, 5):
            mt = mirror(t)
            assert vertex_count(mt) == vertex_count(t)
            assert free_end_count(mt) == free_end_count(t)
            for p in patterns:
                assert count_occurrences(mt, mirror(p)) == count_occurrences(t, p)


class TestEnumeratePatterns:
    def test_small(self):
        assert [emit_polish(t) for t in enumerate_binary_patterns(3)] == ["mmxxx", "mxmxx"]

    @pytest.mark.parametrize("n,count", [(1, 1), (3, 2), (5, 14), (8, 429)])
    def test_catalan_counts(self, n, count):
        pats = enumerate_binary_patterns(n)
        assert len(pats) == count == catalan(n - 1)
        assert len(set(pats)) == count
        assert all(free_end_count(t) == n for t in pats)

    def test_sorted_canonically(self):
        pats = enumerate_binary_patterns(5)
        keys = [word_key(t, BIN) for t in pats]
        assert keys == sorted(keys)


class TestTruncate:
    def test_levels(self):
        t = parse_polish("mmxxmxmxx", BIN)
        assert truncate(t, 0) == X
        assert truncate(t, 1) == m(X, X)
        assert truncate(t, 2) == parse_polish("mmxxmxx", BIN)
        assert truncate(t, 9) == t

    def test_truncation_is_rooted_subtree(self):
        for t in enumerate_trees(BIN, 5):
            for h in range(4):
                tr = truncate(t, h)
                assert height(tr) <= h
                assert is_rooted_subtree(tr, t)


class TestPatternSet:
    def test_d_cached_matches_recomputed(self):
        ps = PatternSet.from_words(["mmxxx", "mxx"])
        assert ps.d == max(height(p) for p in ps.patterns) == 2

    def test_empty_set(self):
        assert PatternSet(BIN, ()).d == 0

    def test_degenerate_needs_flag(self):
        with pytest.raises(ValueError):
            PatternSet.from_words(["x"])
        ps = PatternSet.from_words(["x"], allow_degenerate=True)
        assert ps.degenerate and ps.d == 0
