import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treewilf import series
from treewilf.grammar import build_grammar
from treewilf.oracle import brute_histogram, count_avoiders, enumerate_trees
from treewilf.series import (
    TruncatedSeries,
    _ceiling,
    _compile_plan,
    _group_products,
    _majorant,
    av_series,
    en_series,
    en_slice_y0,
    solve_truncated,
    to_operad_series,
)
from treewilf.systems import AlgebraicSystem, Monomial, cs_system, enumeration_system, stamp_system
from treewilf.trees import (
    Alphabet,
    PatternSet,
    avoids,
    catalan,
    emit_polish,
    enumerate_binary_patterns,
    parse_polish,
    subtrees,
    vertex_count,
)
from treewilf.wilf import _mirror_word

BIN = Alphabet.binary()
MIXED = Alphabet(labels=(("m", 2), ("w", 3), ("x", 0)), free_end="x")

small_coeffs = st.lists(st.integers(-50, 50), min_size=1, max_size=8)


def verify_solution(system: AlgebraicSystem, solutions: dict[str, TruncatedSeries],
                    order: int) -> bool:
    """Plug the solved series back into every equation; true iff all match
    modulo primary^(order+1).  Uses TruncatedSeries arithmetic, a separate
    code path from the solver's convolution loops."""
    variables = tuple(system.weight_vars)
    nvars = len(variables)

    def monomial_series(m: Monomial) -> TruncatedSeries:
        if nvars == 1:
            base = TruncatedSeries(variables, order,
                                   dense=tuple(0 if i != m.wexp[0] else m.coeff
                                               for i in range(order + 1)))
        else:
            base = TruncatedSeries(variables, order, sparse={tuple(m.wexp): m.coeff})
        for f in m.factors:
            base = base * solutions[system.unknowns[f]].restrict(order)
        return base

    for ui, eq in enumerate(system.equations):
        rhs = TruncatedSeries.zero(variables, order)
        for m in eq:
            rhs = rhs + monomial_series(m)
        if rhs != solutions[system.unknowns[ui]].restrict(order):
            return False
    return True


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
            catalans = tuple([0] + [catalan(n - 1) for n in range(1, 13)])
            assert _ceiling(_majorant(system), 12) == catalans

    @pytest.mark.parametrize("word", ["mmxmxxx", "mmmxxxx"])
    def test_shared_factors_with_vertex_weights(self, word):
        # vertex weights put internal nodes at shift a = 1, so the grouped
        # products convolve at n - 1 rather than at n as with leaf weights
        pattern = parse_polish(word, BIN)
        system = enumeration_system(pattern, marked=False)
        _, _, products = _compile_plan(system)
        assert any(a == 1 for a, _, _ in products)
        assert any(len(members) > 1 for _, _, members in _group_products(products, shared=True))
        sol, target = solve_truncated(system, 15)
        assert verify_solution(system, sol, 15)
        expected = count_avoiders(BIN, PatternSet(BIN, (pattern,)), 7)
        assert [target.coefficient(n) for n in range(16)] == [expected.get(n, 0) for n in range(16)]

    def test_shared_factors_beside_chain_nodes(self):
        # the mixed ternary set of test_packed_ring_chain_nodes with one weight
        # variable: 3-factor monomials run through chain nodes, which stay
        # outside the groups, while the binary products are grouped
        ps = PatternSet(MIXED, (parse_polish("mmxxx", MIXED), parse_polish("wxmxxx", MIXED)))
        system = cs_system(build_grammar(MIXED, ps))
        assert any(len(m.factors) == 3 for eq in system.equations for m in eq)
        _, _, products = _compile_plan(system)
        assert any(len(members) > 1 for _, _, members in _group_products(products, shared=True))
        sol, target = solve_truncated(system, 13)
        assert verify_solution(system, sol, 13)
        expected = count_avoiders(MIXED, ps, 4)
        assert {n: c for (n,), c in target.nonzero_items() if n <= 10} == {
            n: c for n, c in expected.items() if n <= 10}

    def test_product_with_coefficient(self):
        # S = x + 2*S^2: a quadratic monomial with coefficient 2 is a product of its own
        system = AlgebraicSystem(weight_vars=("x",), unknowns=("S",), equations=(
            (Monomial(1, (1,), ()), Monomial(2, (0,), (0, 0))),), target=(0,))
        sol, target = solve_truncated(system, 6)
        assert verify_solution(system, sol, 6)
        assert [target.coefficient(n) for n in range(1, 7)] == [1, 2, 8, 40, 224, 1344]

    def test_one_product_feeds_two_equations(self):
        # A = x + 3*A*B and B = x + 3*A*B convolve A*B once and add it to both rows
        body = (Monomial(1, (1,), ()), Monomial(3, (0,), (0, 1)))
        system = AlgebraicSystem(weight_vars=("x",), unknowns=("A", "B"),
                                 equations=(body, body), target=(0, 1))
        _, _, products = _compile_plan(system)
        assert products == [(0, 0, 1)]
        sol, target = solve_truncated(system, 6)
        assert verify_solution(system, sol, 6)
        assert [target.coefficient(n) for n in range(1, 7)] == [2, 6, 36, 270, 2268, 20412]

    def test_constant_with_y_shift(self):
        # S = x*y + x*S^2 counts binary trees by vertices (x) and leaves (y)
        system = AlgebraicSystem(weight_vars=("x", "y"), unknowns=("S",), equations=(
            (Monomial(1, (1, 1), ()), Monomial(1, (1, 0), (0, 0))),), target=(0,))
        sol, target = solve_truncated(system, 13)
        assert verify_solution(system, sol, 13)
        assert target.nonzero_items() == [((2 * n - 1, n), catalan(n - 1)) for n in range(1, 8)]

    def test_plan_sharing_at_eight_leaves(self):
        # the representatives classify(8, ...) solves: the smaller Polish word of
        # each mirror pair; the larger ones would give 651 av groups
        words = sorted({min(w, _mirror_word(w))
                        for w in map(emit_polish, enumerate_binary_patterns(8))})
        av_products = av_groups = en_products = 0
        for word in words:
            pattern = parse_polish(word, BIN)
            _, _, products = _compile_plan(enumeration_system(pattern, marked=False, leaf_weights=True))
            av_products += len(products)
            av_groups += len(_group_products(products, shared=True))
            _, _, products = _compile_plan(enumeration_system(pattern, marked=True, leaf_weights=True))
            en_products += len(products)
        assert (len(words), av_products, av_groups, en_products) == (217, 2123, 634, 3368)

    @pytest.mark.parametrize("words", [[], ["mmxxmxx"], ["mxmxmxx"]])
    def test_groups_cover_each_product_once(self, words):
        system = cs_system(build_grammar(BIN, PatternSet.from_words(words)))
        _, _, products = _compile_plan(system)
        groups = _group_products(products, shared=True)
        covered = sorted(p for _, _, members in groups for _, p in members)
        assert covered == list(range(len(products)))
        for a, operand, members in groups:
            for partner, p in members:
                assert products[p] == (a, min(operand, partner), max(operand, partner))

    def test_univariate_target_checked_against_majorant(self, monkeypatch):
        # S = x bounds nothing past degree 1, so the solve must refuse
        too_small = (Monomial(1, (1,), ()),)
        monkeypatch.setattr(series, "_majorant", lambda system: too_small)
        system = cs_system(build_grammar(BIN, PatternSet(BIN, ())))
        with pytest.raises(ArithmeticError):
            solve_truncated(system, 9)

    def test_majorant_solved_once_per_order(self):
        _ceiling.cache_clear()
        for pattern in enumerate_binary_patterns(4):
            av_series(pattern, 41)
        assert _ceiling.cache_info().misses == 1

    @pytest.mark.parametrize("system", [
        enumeration_system(parse_polish("mxmxmxx", BIN)),
        cs_system(build_grammar(BIN, PatternSet.from_words(["mmxxmxx"]))),
    ], ids=["packed", "univariate"])
    def test_target_is_sum_of_target_unknowns(self, system):
        sol, target = solve_truncated(system, 15)
        total = TruncatedSeries.zero(system.weight_vars, 15)
        for ui in system.target:
            total = total + sol[system.unknowns[ui]]
        assert target == total and not target.is_zero()

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


    # sha256 of the newline-joined serialize() of the series of every n-leaf
    # pattern, in enumerate_binary_patterns order.  At an even order the top
    # degree is even and holds 0; at an odd order it holds the last leaf's.
    PINS = {
        ("av", 2, 40): "b4891bb068853348354fca111f198efbb96dbd19370af3aa7417ec10e6dd727e",
        ("av", 2, 41): "469a77b97302a2d6ea97749ae78cc4633be1fdb6d9c161348c210e55dc7af475",
        ("av", 3, 40): "8e478ffb7ee6accba50ea46ee5a6ab513424f17d31e4301550db7f2e535732fc",
        ("av", 3, 41): "39ad82f23e52d44f51171ec99dc63171d6b75e73e6c8ff45b8f118cba8cc2e38",
        ("av", 4, 40): "3f8009f62d7fb3d3e51b35285e8ab2f1f32b7dc1fb2ed9e9e32225fbca609605",
        ("av", 4, 41): "8f5dea611f575a8ce3d4a469c7a6ff688f467e672cb123f06f12edec62a534d0",
        ("av", 5, 40): "232e9d3c841cfe5adae3c77612b75f07577ae03a00ef56eab78999da19f5e3c6",
        ("av", 5, 41): "5070bf48952ddd21e7f6b32c12235dbbefcd366bdc67c4c07143e753e8ad5d90",
        ("av", 6, 40): "191015d868b6be30b05a40ce11295082bf3bbf22f8c5014481e87add5142b9fc",
        ("av", 6, 41): "9f8969fe1014c46858dfb794f9cd57e8ff534d4f82094a923774f3f26f7e6477",
        ("en", 2, 40): "18edacac182d2c56d698a10b34f4229272fefe93e0ecc7e66e73f9eb728a8e03",
        ("en", 2, 41): "93d1a3f2af7db99d239481adae04e0c1c1f44a9a9439339bfa1c092851dad04a",
        ("en", 3, 40): "3db5dd9b4b9f715de442bdbfe5a10bea283c833fb9afe589d242058dbff6c17e",
        ("en", 3, 41): "cb9b4471b0c82441ee8ad177d7c424d3ae81b75f94a61553b35978e0bf676933",
        ("en", 4, 40): "bf61f4d5ac41ff84c6bbabed8ab7a5e838cbc4829e53c449111809f9c5bde5e1",
        ("en", 4, 41): "0327569c87f46d832a74a2762d3b6e412c1cfe163b61a7ef0c51499f59636bdf",
        ("en", 5, 40): "f34e3e3e1372d31cdd5e65630950b10c4f01c80bb5de070b22e1fd455cc2583b",
        ("en", 5, 41): "dca4ca4bb2f6307425fbc4cb26e767e731e3f282193b187f1ff8984d539fa96a",
        ("en", 6, 40): "6a8b736e00c96493d562b5f2b01448ba59c97489cd06e4d2092a3f7907fb23f3",
        ("en", 6, 41): "dbe00b9148cab09e49ad024217676ae4f6cffa36d7672278e2d96dede41a4f45",
    }

    @pytest.mark.parametrize("kind, leaves, order", sorted(PINS))
    def test_series_pinned(self, kind, leaves, order):
        solve = av_series if kind == "av" else en_series
        text = "\n".join(solve(p, order).serialize() for p in enumerate_binary_patterns(leaves))
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINS[kind, leaves, order]


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
