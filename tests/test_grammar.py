import itertools

import pytest

from treewilf.grammar import (
    Grammar,
    GrammarSizeError,
    build_grammar,
    build_Ld,
    count_derivations,
    membership_class,
    membership_class_setwise,
)
from treewilf.oracle import enumerate_trees, trees_up_to_word_length
from treewilf.trees import (
    Alphabet,
    PatternSet,
    Tree,
    avoids,
    emit_polish,
    enumerate_binary_patterns,
    parse_polish,
    truncate,
    word_key,
)

BIN = Alphabet.binary()
MIXED = Alphabet(labels=(("m", 2), ("w", 3), ("x", 0)), free_end="x")
X_FIRST = Alphabet(labels=(("x", 0), ("w", 3), ("m", 2)), free_end="x")
X = Tree("x")

LEFT_COMB = PatternSet.from_words(["mmxxx"])


def mixed_narrow_patterns() -> PatternSet:
    """Mixed-arity pattern set whose survivors of height 2 are two chosen trees.

    Every other height-2 tree is itself a pattern, so the grammar stays tiny
    while genuinely using both internal labels.
    """
    keep = {"wxxmxx", "mxwxxx"}
    layer1 = [Tree("x"), parse_polish("mxx", MIXED), parse_polish("wxxx", MIXED)]
    banned = []
    for label, k in MIXED.internal_labels:
        for kids in itertools.product(layer1, repeat=k):
            t = Tree(label, kids)
            if any(not c.is_free_end() for c in kids) and emit_polish(t) not in keep:
                banned.append(t)
    return PatternSet(MIXED, tuple(banned))


class TestBuildLd:
    def test_left_comb(self):
        words = {emit_polish(t) for t in build_Ld(BIN, LEFT_COMB)}
        assert words == {"x", "mxx", "mxmxx"}

    def test_empty_patterns(self):
        assert build_Ld(BIN, PatternSet(BIN, ())) == [X]

    def test_single_node_pattern(self):
        assert build_Ld(BIN, PatternSet.from_words(["mxx"])) == [X]

    def test_degenerate(self):
        ps = PatternSet.from_words(["x"], allow_degenerate=True)
        assert build_Ld(BIN, ps) == []

    @pytest.mark.parametrize("alphabet, sizes", [(BIN, [2, 5, 26, 677]), (MIXED, [3, 37])])
    def test_budget_boundary(self, alphabet, sizes):
        # layer h has 1 + sum_k |layer h-1|^k trees; a budget of exactly that passes
        empty = PatternSet(alphabet, ())
        for h, size in enumerate(sizes, start=1):
            assert len(build_Ld(alphabet, empty, max_size=size, height=h)) == size
            with pytest.raises(GrammarSizeError):
                build_Ld(alphabet, empty, max_size=size - 1, height=h)

    def test_over_budget_layer_is_not_built(self, monkeypatch):
        built = [0]

        def counting_tree(*args):
            built[0] += 1
            return Tree(*args)

        monkeypatch.setattr("treewilf.grammar.Tree", counting_tree)
        comb7 = PatternSet.from_words(["m" * 6 + "x" * 7])
        with pytest.raises(GrammarSizeError, match="height-5 tree layer exceeds the budget of 20000"):
            build_Ld(BIN, comb7, max_size=20000, height=5)
        # the height-5 layer alone would hold 1 + 677^2 = 458330 trees
        assert 0 < built[0] <= 20000


class TestMembershipClass:
    def test_free_end(self):
        assert membership_class(X, LEFT_COMB) == X

    def test_truncation(self):
        w = parse_polish("mxmxmxx", BIN)
        assert membership_class(w, LEFT_COMB) == parse_polish("mxmxx", BIN)

    def test_non_avoider(self):
        assert membership_class(parse_polish("mmxxx", BIN), LEFT_COMB) is None

    @pytest.mark.parametrize("patterns", [
        LEFT_COMB,
        PatternSet.from_words(["mxmxx"]),
        PatternSet.from_words(["mmxxx", "mxmxx"]),
        PatternSet.from_words(["mmxxmxx"]),
    ])
    def test_partition_lemma_and_setwise_agreement(self, patterns):
        Ld = build_Ld(BIN, patterns)
        blocks = {emit_polish(v): 0 for v in Ld}
        for w in enumerate_trees(BIN, 7):
            v1 = membership_class(w, patterns)
            v2 = membership_class_setwise(w, patterns, Ld)
            if avoids(w, patterns.patterns):
                assert v1 is not None and v1 == v2
                assert v1 in Ld
                blocks[emit_polish(v1)] += 1
            else:
                assert v1 is None and v2 is None
        # every block is hit (each v in L_d lies in its own block)
        assert all(c >= 1 for c in blocks.values())

    def test_partition_lemma_mixed(self):
        patterns = mixed_narrow_patterns()
        Ld = build_Ld(MIXED, patterns)
        for w in enumerate_trees(MIXED, 4):
            v1 = membership_class(w, patterns)
            v2 = membership_class_setwise(w, patterns, Ld)
            assert v1 == v2
            if avoids(w, patterns.patterns):
                assert v1 == truncate(w, patterns.d)


class TestBuildGrammar:
    def test_left_comb_rules(self):
        g = build_grammar(BIN, LEFT_COMB)
        assert len(g.nonterminals) == len(build_Ld(BIN, LEFT_COMB)) == 3
        mxmxx = parse_polish("mxmxx", BIN)
        bodies = {r.body for r in g.rules if r.head == mxmxx}
        assert bodies == {
            ("m", X, parse_polish("mxx", BIN)),
            ("m", X, mxmxx),
        }
        assert sum(r.head is None for r in g.rules) == 3
        assert g.is_proper()

    def test_empty_patterns_catalan_grammar(self):
        g = build_grammar(BIN, PatternSet(BIN, ()))
        assert g.nonterminals == (X,)
        bodies = {r.body for r in g.rules if r.head == X}
        assert bodies == {("x",), ("m", X, X)}

    def test_single_node_pattern(self):
        g = build_grammar(BIN, PatternSet.from_words(["mxx"]))
        assert {r.body for r in g.rules if r.head is not None} == {("x",)}

    def test_degenerate_empty_language(self):
        g = build_grammar(BIN, PatternSet.from_words(["x"], allow_degenerate=True))
        assert g.nonterminals == ()
        assert g.rules == ()
        assert count_derivations(g, "x") == 0

    def test_bnf_export_canonical(self):
        g = build_grammar(BIN, LEFT_COMB)
        assert g.to_bnf() == (
            "S -> T[mxmxx]\n"
            "S -> T[mxx]\n"
            "S -> T[x]\n"
            "T[mxmxx] -> m T[x] T[mxmxx]\n"
            "T[mxmxx] -> m T[x] T[mxx]\n"
            "T[mxx] -> m T[x] T[x]\n"
            "T[x] -> x\n"
        )

    def test_json_export(self):
        g = build_grammar(BIN, LEFT_COMB)
        data = g.to_json_dict()
        assert data["start"] == "S"
        assert "T[mxmxx]" in data["nonterminals"]
        assert {"head": "T[x]", "body": ["x"]} in data["rules"]

    @pytest.mark.parametrize("alphabet, words", [
        (BIN, []), (BIN, ["mmxxx"]), (BIN, ["mmxxmxx"]), (BIN, ["mmxxx", "mxmxx"]),
        (MIXED, []), (MIXED, ["wxmxxx"]), (X_FIRST, []), (X_FIRST, ["wxmxxx"]),
        (X_FIRST, ["mmxxx", "mwxxxx"]),
    ])
    @pytest.mark.parametrize("lower", [False, True])
    def test_rules_in_canonical_order(self, alphabet, words, lower):
        def rule_key(r):
            # start rules first, then by head word, then by body symbols,
            # terminals by alphabet position and nonterminals by their word
            head = word_key(r.head, alphabet) if r.head is not None else ()
            body = tuple(
                (0, alphabet.label_index[s]) if isinstance(s, str) else (1,) + word_key(s, alphabet)
                for s in r.body
            )
            return (r.head is not None, head, body)

        patterns = PatternSet.from_words(words, alphabet)
        height = max(patterns.d - 1, 0) if lower else None
        g = build_grammar(alphabet, patterns, height=height)
        assert g.rules == tuple(sorted(g.rules, key=rule_key))
        assert len(set(g.rules)) == len(g.rules)

    def test_rule_body_budget_boundary(self):
        # L_2 of the empty set over {m, w, x} has 37 trees, so 37^2 + 37^3 =
        # 52022 candidate bodies: within 229^2 = 52441, over 228^2 = 51984
        empty = PatternSet(MIXED, ())
        assert len(build_grammar(MIXED, empty, max_nonterminals=229, height=2).nonterminals) == 37
        with pytest.raises(GrammarSizeError, match="52022 candidate rule bodies exceed the budget of 228"):
            build_grammar(MIXED, empty, max_nonterminals=228, height=2)

    def test_binary_height_four_within_the_default_budget(self):
        # |L_d|^2 bodies fit the square of any budget that |L_d| fits; 100000
        # is the default of the CLI's --max-nonterminals
        g = build_grammar(BIN, PatternSet.from_words(["mmmmxxxxx"]), max_nonterminals=100000)
        assert len(g.nonterminals) == 417

    @pytest.mark.parametrize("words, height", [(["mmmxxxx"], 1), ([], -1)])
    def test_height_below_d_minus_one_rejected(self, words, height):
        with pytest.raises(ValueError, match="too low"):
            build_grammar(BIN, PatternSet.from_words(words), height=height)

    @pytest.mark.parametrize("patterns", [LEFT_COMB, PatternSet.from_words(["mmxxmxx"])])
    def test_every_rule_body_rechecks(self, patterns):
        g = build_grammar(BIN, patterns)
        for rule in g.rules:
            if rule.head is None or rule.body == ("x",):
                continue
            label, *kids = rule.body
            body_tree = Tree(label, tuple(kids))
            assert avoids(body_tree, patterns.patterns)
            assert truncate(body_tree, patterns.d) == rule.head


def assert_generates_exactly_avoiders(grammar: Grammar, patterns: PatternSet,
                                      alphabet: Alphabet, max_len: int):
    for tree in trees_up_to_word_length(alphabet, max_len):
        word = emit_polish(tree)
        want = 1 if avoids(tree, patterns.patterns) else 0
        assert count_derivations(grammar, word) == want, word


class TestDerivationCounts:
    @pytest.mark.parametrize("words", [[], ["mmxxx"], ["mxmxx"], ["mmxxx", "mxmxx"], ["mmxxmxx"]])
    def test_binary_unambiguous(self, words):
        patterns = PatternSet.from_words(words)
        g = build_grammar(BIN, patterns)
        assert_generates_exactly_avoiders(g, patterns, BIN, 15)

    def test_mixed_unambiguous(self):
        patterns = mixed_narrow_patterns()
        g = build_grammar(MIXED, patterns)
        assert_generates_exactly_avoiders(g, patterns, MIXED, 15)

    def test_mixed_ternary_pattern(self):
        # 15709 rule bodies over 28 nonterminals: this stays within seconds
        # only because the memo tables are keyed by integers, not by trees
        patterns = PatternSet.from_words(["wxmxxx"], MIXED)
        g = build_grammar(MIXED, patterns)
        assert_generates_exactly_avoiders(g, patterns, MIXED, 6)

    @pytest.mark.parametrize("pattern", [p for n in (3, 4) for p in enumerate_binary_patterns(n)],
                             ids=emit_polish)
    def test_lower_grammar_binary(self, pattern):
        # truncating one level below the pattern height still decides every
        # root occurrence, so this grammar too derives each avoider once
        patterns = PatternSet(BIN, (pattern,))
        g = build_grammar(BIN, patterns, height=patterns.d - 1)
        assert g.d == patterns.d - 1
        assert_generates_exactly_avoiders(g, patterns, BIN, 11)

    def test_lower_grammar_mixed_ternary_pattern(self):
        patterns = PatternSet.from_words(["wxmxxx"], MIXED)
        g = build_grammar(MIXED, patterns, height=patterns.d - 1)
        assert_generates_exactly_avoiders(g, patterns, MIXED, 7)

    def test_mixed_free_language(self):
        patterns = PatternSet(MIXED, ())
        g = build_grammar(MIXED, patterns)
        assert_generates_exactly_avoiders(g, patterns, MIXED, 13)

    def test_malformed_words(self):
        g = build_grammar(BIN, LEFT_COMB)
        for word in ("", "m", "xx", "mxxx", "mmxx", "q", "xm"):
            assert count_derivations(g, word) == 0
