import hashlib

import pytest

from treewilf.grammar import build_grammar
from treewilf.oracle import (
    brute_histogram,
    count_avoiders,
    count_avoiders_by_leaves,
    enumerate_trees,
)
from treewilf.series import solve_truncated, to_operad_series
from treewilf.systems import (
    AlgebraicSystem,
    ImproperSystemError,
    Monomial,
    OccurrenceAutomaton,
    cs_system,
    enumeration_system,
    occurrence_state_count,
    stamp_system,
)
from treewilf.trees import (
    Alphabet,
    PatternSet,
    Tree,
    catalan,
    emit_polish,
    enumerate_binary_patterns,
    height,
    is_rooted_subtree,
    parse_polish,
    truncate,
)

BIN = Alphabet.binary()
MIXED = Alphabet(labels=(("m", 2), ("w", 3), ("x", 0)), free_end="x")
X = Tree("x")


def odd_coefficients(series, top):
    return [series.coefficient(n) for n in range(1, top + 1, 2)]


class TestCsSystem:
    def test_catalan_shape_and_solution(self):
        system = cs_system(build_grammar(BIN, PatternSet(BIN, ())))
        assert system.unknowns == ("H[x]",)
        assert system.to_text() == (
            "vars: x\n"
            "H[x] = x + x*H[x]*H[x]\n"
            "target = H[x]\n"
        )
        _, target = solve_truncated(system, 9)
        assert odd_coefficients(target, 9) == [1, 1, 2, 5, 14]

    def test_left_comb_solution(self):
        system = cs_system(build_grammar(BIN, PatternSet.from_words(["mmxxx"])))
        assert system.n_unknowns == 3
        _, target = solve_truncated(system, 9)
        assert odd_coefficients(target, 9) == [1, 1, 1, 1, 1]

    def test_single_node_pattern(self):
        system = cs_system(build_grammar(BIN, PatternSet.from_words(["mxx"])))
        _, target = solve_truncated(system, 5)
        assert target.nonzero_items() == [((1,), 1)]

    def test_weight_validation(self):
        g = build_grammar(BIN, PatternSet(BIN, ()))
        with pytest.raises(ValueError):
            cs_system(g, weights={"m": (0,), "x": (0,)})
        with pytest.raises(ValueError):
            cs_system(g, weights={"m": (1, 1), "x": (1, 1)})

    def test_leaf_weights_give_catalan(self):
        # a zero-weight internal label is allowed; only the free end must weigh
        g = build_grammar(BIN, PatternSet(BIN, ()))
        system = cs_system(g, weights={"m": (0,), "x": (1,)}, weight_vars=("z",))
        _, target = solve_truncated(system, 10)
        assert [target.coefficient(n) for n in range(1, 11)] == [catalan(n - 1) for n in range(1, 11)]

    def test_improper_grammar_rejected(self):
        from treewilf.grammar import Grammar, Rule

        bad = Grammar(
            alphabet=BIN,
            patterns=PatternSet(BIN, ()),
            d=0,
            nonterminals=(X,),
            rules=(Rule(None, (X,)), Rule(X, (X,))),
        )
        with pytest.raises(ImproperSystemError):
            cs_system(bad)

    def test_two_variable_weights(self):
        # mark internal nodes with a second variable: coefficient of x^l y^i
        # counts binary trees with l leaves and i internal nodes
        g = build_grammar(BIN, PatternSet(BIN, ()))
        system = cs_system(g, weights={"m": (0, 1), "x": (1, 0)}, weight_vars=("x", "y"))
        _, target = solve_truncated(system, 6)
        for leaves in range(1, 7):
            assert target.coefficient(leaves, leaves - 1) == catalan(leaves - 1)

    def test_degenerate_pattern_empty_language(self):
        ps = PatternSet.from_words(["x"], allow_degenerate=True)
        system = cs_system(build_grammar(BIN, ps))
        assert system.n_unknowns == 0
        _, target = solve_truncated(system, 5)
        assert target.is_zero()


class TestStampSystem:
    def test_left_comb_is_geometric(self):
        system = stamp_system(BIN, PatternSet.from_words(["mmxxx"]))
        _, target = solve_truncated(system, 8)
        assert [target.coefficient(n) for n in range(1, 9)] == [1] * 8

    def test_empty_pattern_set_catalan(self):
        system = stamp_system(BIN, PatternSet(BIN, ()))
        assert system.n_unknowns == 1
        _, target = solve_truncated(system, 6)
        assert [target.coefficient(n) for n in range(1, 7)] == [1, 1, 2, 5, 14, 42]

    def test_unknowns_are_low_stamps(self):
        ps = PatternSet.from_words(["mmxxmxx"])  # height 2 pattern
        system = stamp_system(BIN, ps)
        assert system.unknowns == ("Y[mxx]", "Y[x]")

    @pytest.mark.parametrize("leaves", [2, 3, 4])
    def test_matches_oracle_by_leaves(self, leaves):
        for pattern in enumerate_binary_patterns(leaves):
            ps = PatternSet(BIN, (pattern,))
            system = stamp_system(BIN, ps)
            _, target = solve_truncated(system, 5)
            expected = count_avoiders_by_leaves(BIN, ps, 8)
            for n in range(1, 6):
                assert target.coefficient(n) == expected.get(n, 0)

    def test_mixed_alphabet_matches_oracle(self):
        ps = PatternSet(MIXED, (parse_polish("mmxxx", MIXED), parse_polish("wxmxxx", MIXED)))
        system = stamp_system(MIXED, ps)
        _, target = solve_truncated(system, 5)
        expected = count_avoiders_by_leaves(MIXED, ps, 6)
        for n in range(1, 6):
            assert target.coefficient(n) == expected.get(n, 0)

    def test_degenerate_pattern_empty(self):
        ps = PatternSet.from_words(["x"], allow_degenerate=True)
        system = stamp_system(BIN, ps)
        assert system.n_unknowns == 0

    def test_equivalence_with_grammar_system(self):
        for pattern in enumerate_binary_patterns(4):
            ps = PatternSet(BIN, (pattern,))
            _, stamp_target = solve_truncated(stamp_system(BIN, ps), 20)
            _, cs_target = solve_truncated(cs_system(build_grammar(BIN, ps)), 41)
            assert to_operad_series(cs_target).restrict(20) == stamp_target


class TreeAutomaton(OccurrenceAutomaton):
    """The automaton run over a whole tree, for checking its states against brute force."""

    def state_of(self, tree: Tree) -> int:
        if tree.is_free_end():
            return self.start()
        a = self.state_of(tree.children[0]) & self.left_mask
        b = self.state_of(tree.children[1]) & self.right_mask
        return self.join(a, b)


class TestOccurrenceAutomaton:
    @pytest.mark.parametrize("word", ["mxx", "mmxxx", "mxmxmxx", "mmxxmxx"])
    def test_state_tracks_embeddings(self, word):
        pattern = parse_polish(word, BIN)
        auto = TreeAutomaton(pattern)
        for tree in enumerate_trees(BIN, 5):
            mask = auto.state_of(tree)
            for i, sub in enumerate(auto.subs):
                assert bool((mask >> i) & 1) == is_rooted_subtree(sub, tree)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            OccurrenceAutomaton(X)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            OccurrenceAutomaton(parse_polish("wxxx", MIXED))


class TestEnumerationSystem:
    def test_single_node_pattern_marks_every_internal(self):
        system = enumeration_system(parse_polish("mxx", BIN))
        _, target = solve_truncated(system, 11)
        for i in range(6):
            assert target.coefficient(2 * i + 1, i) == catalan(i)

    def test_left_comb_small_coefficients(self):
        system = enumeration_system(parse_polish("mmxxx", BIN))
        _, target = solve_truncated(system, 5)
        assert target.coefficient(5, 0) == 1
        assert target.coefficient(5, 1) == 1

    def test_y0_slice_is_avoidance(self):
        for pattern in enumerate_binary_patterns(4):
            system = enumeration_system(pattern)
            _, target = solve_truncated(system, 13)
            ps = PatternSet(BIN, (pattern,))
            expected = count_avoiders(BIN, ps, 6)
            for n in range(1, 14, 2):
                assert target.coefficient(n, 0) == expected.get(n, 0)

    @pytest.mark.parametrize("leaves", [2, 3, 4, 5])
    def test_marked_system_matches_oracle(self, leaves):
        for pattern in enumerate_binary_patterns(leaves):
            _, target = solve_truncated(enumeration_system(pattern), 13)
            hist = brute_histogram(BIN, pattern, 6)
            for (n, k), c in hist.entries.items():
                assert target.coefficient(n, k) == c
            for (n, k), c in target.nonzero_items():
                assert hist.count(n, k) == c

    def test_only_reduced_construction(self):
        comb7 = parse_polish("m" * 6 + "x" * 7, BIN)  # height 6
        with pytest.raises(ValueError):
            enumeration_system(comb7, reduced=False)
        assert occurrence_state_count(comb7) <= 16

    def test_pinned_systems_and_state_counts(self):
        # the series tests check neither state order nor state names; these
        # digests pin the text of every 2-7 leaf system in all four forms
        texts = hashlib.sha256()
        counts = hashlib.sha256()
        for leaves in range(2, 8):
            for pattern in enumerate_binary_patterns(leaves):
                for marked in (True, False):
                    for leaf_weights in (False, True):
                        system = enumeration_system(pattern, marked=marked, leaf_weights=leaf_weights)
                        texts.update(system.to_text().encode())
                counts.update(f"{emit_polish(pattern)}:{occurrence_state_count(pattern)}\n".encode())
        assert texts.hexdigest() == "293dc921682c7de585d2019d55eb709304e2d57ed35200fbec4b22647ac7bdef"
        assert counts.hexdigest() == "63c1aa3215f4f6b1470303e943d56dd4a37c33282368a66b3fd6a17cdfc524f1"

    def test_root_occurrence_depends_only_on_truncations(self):
        for pattern in enumerate_binary_patterns(4):
            d = height(pattern)
            for tree in enumerate_trees(BIN, 6):
                if tree.is_free_end():
                    continue
                joined = Tree("m", tuple(truncate(c, d - 1) for c in tree.children))
                assert is_rooted_subtree(pattern, tree) == is_rooted_subtree(pattern, joined)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            enumeration_system(X)


class TestProperness:
    def test_zero_weight_single_factor_rejected(self):
        system = AlgebraicSystem(
            weight_vars=("x",),
            unknowns=("A", "B"),
            equations=(
                (Monomial(1, (1,), ()), Monomial(1, (0,), (1,))),
                (Monomial(1, (1,), ()),),
            ),
            target=(0,),
        )
        with pytest.raises(ImproperSystemError):
            system.validate_proper()

    def test_constant_monomial_rejected(self):
        system = AlgebraicSystem(
            weight_vars=("x",),
            unknowns=("A",),
            equations=(((Monomial(1, (0,), ())),),),
            target=(0,),
        )
        with pytest.raises(ImproperSystemError):
            system.validate_proper()

    @pytest.mark.parametrize("target", [(0, 0), (1,), (-1,)])
    def test_target_must_be_distinct_unknowns(self, target):
        with pytest.raises(ValueError):
            AlgebraicSystem(
                weight_vars=("x",),
                unknowns=("A",),
                equations=((Monomial(1, (1,), ()),),),
                target=target,
            )

    def test_zero_weight_two_factors_allowed(self):
        system = stamp_system(BIN, PatternSet.from_words(["mmxxx"]))
        system.validate_proper()

    def test_export_merges_duplicate_bodies(self):
        system = cs_system(build_grammar(BIN, PatternSet(BIN, ())))
        text = system.to_text()
        assert text.count("H[x] =") == 1
