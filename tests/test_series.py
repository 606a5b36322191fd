import pytest
from hypothesis import given
from hypothesis import strategies as st

from treewilf.grammar import build_grammar
from treewilf.oracle import brute_histogram, count_avoiders, enumerate_trees
from treewilf.series import (
    TruncatedSeries,
    _majorant,
    av_series,
    en_series,
    en_slice_y0,
    solve_truncated,
    to_operad_series,
    verify_solution,
)
from treewilf.systems import cs_system, enumeration_system, stamp_system
from treewilf.trees import (
    Alphabet,
    PatternSet,
    avoids,
    catalan,
    enumerate_binary_patterns,
    parse_polish,
    subtrees,
    vertex_count,
)

BIN = Alphabet.binary()
MIXED = Alphabet(labels=(("m", 2), ("w", 3), ("x", 0)), free_end="x")

small_coeffs = st.lists(st.integers(-50, 50), min_size=1, max_size=8)


def uni(coeffs, order=10):
    return TruncatedSeries.univariate("x", order, coeffs)


class TestSeriesArithmetic:
    @given(small_coeffs, small_coeffs)
    def test_add_commutes(self, a, b):
        assert uni(a) + uni(b) == uni(b) + uni(a)

    @given(small_coeffs, small_coeffs)
    def test_mul_commutes(self, a, b):
        assert uni(a) * uni(b) == uni(b) * uni(a)

    @given(small_coeffs, small_coeffs, small_coeffs)
    def test_mul_distributes(self, a, b, c):
        assert uni(a) * (uni(b) + uni(c)) == uni(a) * uni(b) + uni(a) * uni(c)

    @given(small_coeffs, small_coeffs)
    def test_mul_matches_polynomial_convolution(self, a, b):
        prod = uni(a) * uni(b)
        for n in range(11):
            expect = sum(
                a[i] * b[n - i]
                for i in range(len(a))
                if 0 <= n - i < len(b)
            )
            assert prod.coefficient(n) == expect

    def test_truncation_drops_high_degrees(self):
        s = uni([0, 1], order=3)  # x, truncated at x^3
        assert (s * s * s * s).is_zero()

    def test_pow(self):
        s = uni([1, 1], order=6)
        assert s.pow_int(3) == s * s * s
        assert s.pow_int(0) == s.one_like()

    def test_bivariate_mul(self):
        a = TruncatedSeries.bivariate(("x", "y"), 4, {(1, 0): 1, (1, 1): 2})
        b = TruncatedSeries.bivariate(("x", "y"), 4, {(2, 1): 3})
        assert (a * b).nonzero_items() == [((3, 1), 3), ((3, 2), 6)]

    def test_restrict(self):
        s = uni([0, 1, 2, 3, 4], order=4)
        assert s.restrict(2).nonzero_items() == [((1,), 1), ((2,), 2)]
        with pytest.raises(ValueError):
            s.restrict(9)

    def test_variable_mismatch(self):
        with pytest.raises(ValueError):
            uni([1]) + TruncatedSeries.univariate("z", 10, [1])


class TestSerialization:
    def test_univariate_canonical_text(self):
        s = uni([0, 1, 0, 2], order=5)
        assert s.serialize() == "v=x;K=5;1:1;3:2"

    def test_bivariate_canonical_text(self):
        s = TruncatedSeries.bivariate(("x", "y"), 7, {(3, 1): 4, (1, 0): 1})
        assert s.serialize() == "v=x,y;K=7;1,0:1;3,1:4"

    def test_json_round_trip(self):
        for s in (
            uni([0, 5, 0, -2], order=6),
            TruncatedSeries.bivariate(("x", "y"), 5, {(1, 0): 1, (5, 2): 9}),
        ):
            assert TruncatedSeries.from_json_dict(s.to_json_dict()) == s

    def test_serialization_is_injective_on_distinct_series(self):
        a = av_series(parse_polish("mmmxxxx", BIN), 31)
        b = av_series(parse_polish("mmxxmxx", BIN), 31)
        assert a != b
        assert a.serialize() != b.serialize()


class TestSolver:
    def test_catalan(self):
        system = cs_system(build_grammar(BIN, PatternSet(BIN, ())))
        _, target = solve_truncated(system, 9)
        assert [target.coefficient(n) for n in (1, 3, 5, 7, 9)] == [1, 1, 2, 5, 14]

    def test_geometric(self):
        system = cs_system(build_grammar(BIN, PatternSet.from_words(["mmxxx"])))
        _, target = solve_truncated(system, 9)
        assert [target.coefficient(n) for n in (1, 3, 5, 7, 9)] == [1, 1, 1, 1, 1]

    def test_order_validation(self):
        system = cs_system(build_grammar(BIN, PatternSet(BIN, ())))
        with pytest.raises(ValueError):
            solve_truncated(system, 0)

    def test_idempotence_under_order_restriction(self):
        system = cs_system(build_grammar(BIN, PatternSet(BIN, ())))
        _, big = solve_truncated(system, 30)
        _, small = solve_truncated(system, 12)
        assert big.restrict(12) == small

    def test_substitution_check(self):
        for words in ([], ["mmxxx"], ["mmxxmxx"]):
            system = cs_system(build_grammar(BIN, PatternSet.from_words(words)))
            sol, _ = solve_truncated(system, 15)
            assert verify_solution(system, sol, 15)

    def test_substitution_check_stamp(self):
        system = stamp_system(BIN, PatternSet.from_words(["mxmxx"]))
        sol, _ = solve_truncated(system, 15)
        assert verify_solution(system, sol, 15)

    def test_substitution_check_bivariate(self):
        system = enumeration_system(parse_polish("mmxxx", BIN))
        sol, _ = solve_truncated(system, 11)
        assert verify_solution(system, sol, 11)

    def test_packed_ring_matches_substitution_and_oracle(self):
        pattern = parse_polish("mxmxmxx", BIN)
        system = enumeration_system(pattern)
        sol, target = solve_truncated(system, 15)
        assert verify_solution(system, sol, 15)
        assert dict(target.nonzero_items()) == brute_histogram(BIN, pattern, 7).entries

    def test_packed_ring_chain_nodes(self):
        # the ternary label w gives 3-factor monomials, which run through chain nodes
        ps = PatternSet(MIXED, (parse_polish("mmxxx", MIXED), parse_polish("wxmxxx", MIXED)))
        weights = {"m": (1, 0), "w": (1, 1), "x": (1, 0)}
        system = cs_system(build_grammar(MIXED, ps), weights, ("x", "y"))
        assert any(len(m.factors) == 3 for eq in system.equations for m in eq)
        sol, target = solve_truncated(system, 13)
        assert verify_solution(system, sol, 13)
        # every tree with at most 10 vertices has at most 4 internal nodes
        expected: dict[tuple[int, int], int] = {}
        for tree in enumerate_trees(MIXED, 4):
            if avoids(tree, ps.patterns) and vertex_count(tree) <= 10:
                key = (vertex_count(tree), sum(t.label == "w" for t in subtrees(tree)))
                expected[key] = expected.get(key, 0) + 1
        assert {e: c for e, c in target.nonzero_items() if e[0] <= 10} == expected

    @pytest.mark.parametrize("leaves", [2, 3, 4, 5])
    def test_occurrence_majorant_is_catalan(self, leaves):
        for pattern in enumerate_binary_patterns(leaves):
            system = enumeration_system(pattern, leaf_weights=True)
            _, s = solve_truncated(_majorant(system), 12)
            assert s.dense_coefficients() == tuple([0] + [catalan(n - 1) for n in range(1, 13)])

    def test_parity(self):
        system = enumeration_system(parse_polish("mmxxx", BIN))
        _, target = solve_truncated(system, 12)
        assert all(n % 2 == 1 for (n, _), _ in target.nonzero_items())


class TestPatternSeries:
    def test_av_left_comb(self):
        s = av_series(parse_polish("mmxxx", BIN), 11)
        assert [s.coefficient(n) for n in range(1, 12, 2)] == [1] * 6

    def test_en_single_node(self):
        s = en_series(parse_polish("mxx", BIN), 7)
        assert s.nonzero_items() == [((1, 0), 1), ((3, 1), 1), ((5, 2), 2), ((7, 3), 5)]

    def test_av_matches_oracle_all_4_leaf(self):
        for pattern in enumerate_binary_patterns(4):
            s = av_series(pattern, 15)
            expected = count_avoiders(BIN, PatternSet(BIN, (pattern,)), 7)
            for n in range(1, 16):
                assert s.coefficient(n) == expected.get(n, 0)

    def test_en_matches_oracle_histogram(self):
        pattern = parse_polish("mxmxx", BIN)
        hist = brute_histogram(BIN, pattern, 6)
        s = en_series(pattern, 13)
        for (n, k), c in hist.entries.items():
            assert s.coefficient(n, k) == c
        for (n, k), c in s.nonzero_items():
            assert hist.entries.get((n, k), 0) == c

    def test_en_slice_equals_av(self):
        for pattern in enumerate_binary_patterns(4):
            assert en_slice_y0(en_series(pattern, 21)) == av_series(pattern, 21)

    def test_degenerate_pattern_rejected(self):
        from treewilf.trees import Tree

        with pytest.raises(ValueError):
            av_series(Tree("x"), 9)

    def test_nonnegativity(self):
        for pattern in enumerate_binary_patterns(5)[:5]:
            assert av_series(pattern, 41).is_nonnegative()
            assert en_series(pattern, 41).is_nonnegative()


class TestOperadSeries:
    def test_geometric(self):
        s = av_series(parse_polish("mmxxx", BIN), 13)
        z = to_operad_series(s)
        assert [z.coefficient(k) for k in range(1, 8)] == [1] * 7

    def test_catalan(self):
        system = cs_system(build_grammar(BIN, PatternSet(BIN, ())))
        _, target = solve_truncated(system, 9)
        z = to_operad_series(target)
        assert [z.coefficient(k) for k in range(1, 6)] == [1, 1, 2, 5, 14]

    def test_even_term_rejected(self):
        with pytest.raises(ValueError):
            to_operad_series(uni([0, 1, 1], order=4))
