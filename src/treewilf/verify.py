"""Oracle-backed verification suites, shared by ``treewilf verify`` and the
acceptance tests.

Each suite compares a symbolic construction with an independent reference
(exhaustive enumeration, the set-theoretic definition of a membership
class, or a second system for the same language) and returns a
SuiteResult holding what it counted and one line per failed check.  A
condition that depends on the bounds rather than on correctness, such as
every partition block being reached by some enumerated tree, is reported as
a count, never as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .elim import collapse_certificate
from .grammar import build_grammar, build_Ld, count_derivations, membership_class, membership_class_setwise
from .oracle import brute_histogram, count_avoiders_by_leaves, enumerate_trees, trees_up_to_word_length
from .series import av_series, en_series, en_slice_y0, solve_truncated, to_operad_series
from .systems import cs_system, stamp_system
from .trees import (
    Alphabet,
    ParseError,
    PatternSet,
    Tree,
    avoids,
    count_occurrences,
    emit_polish,
    enumerate_binary_patterns,
    mirror,
    parse_polish,
)

BINARY = Alphabet.binary()

# Empty, truncated and overlong words over the binary and m:2,w:3,x:0
# alphabets; a word that happens to parse in the alphabet at hand is skipped.
MALFORMED_WORDS = ("", "m", "w", "xx", "xm", "mmxx", "mxxx", "wxx")

# The systems suite solves the stamp system (the height-(d-1) grammar's) to
# this leaf order, the height-d grammar's system to the matching vertex
# order, and checks the stamp series against brute-force avoider counts over
# trees with at most SYSTEMS_ORACLE_NODES internal nodes (so up to
# SYSTEMS_ORACLE_NODES + 1 leaves).
SYSTEMS_ORDER = 40
SYSTEMS_ORACLE_NODES = 9


@dataclass
class SuiteResult:
    name: str
    counts: dict[str, int]
    failures: list[str] = field(default_factory=list)

    def line(self) -> str:
        counted = ", ".join(f"{k}={v}" for k, v in self.counts.items())
        return f"{self.name} suite: {'FAIL' if self.failures else 'pass'} ({counted})"


def _binary_patterns(max_leaves: int) -> list[Tree]:
    if max_leaves < 2:
        raise ValueError("patterns need at least 2 leaves")
    return [p for n in range(2, max_leaves + 1) for p in enumerate_binary_patterns(n)]


def oracle_suite(max_leaves: int, max_nodes: int) -> SuiteResult:
    """Occurrence-marked series of every binary pattern with 2..max_leaves
    leaves against brute-force (vertices, occurrences) counts over all trees
    with at most max_nodes internal nodes, in both directions; its y=0 slice
    against the avoidance series, which must be nonnegative."""
    result = SuiteResult("oracle", {"patterns": 0, "trees": 0})
    order = 2 * max_nodes + 1
    for pattern in _binary_patterns(max_leaves):
        word = emit_polish(pattern)
        hist = brute_histogram(BINARY, pattern, max_nodes)
        en = en_series(pattern, order)
        av = av_series(pattern, order)
        wrong = [nk for nk, c in hist.entries.items() if en.coefficient(*nk) != c]
        wrong += [nk for nk, c in en.nonzero_items() if hist.count(*nk) != c]
        if wrong:
            result.failures.append(f"{word}: en series differs from brute force at (n, k) = {wrong[0]}")
        if en_slice_y0(en) != av:
            result.failures.append(f"{word}: y=0 slice of the en series differs from the av series")
        if not av.is_nonnegative():
            result.failures.append(f"{word}: negative av coefficient")
        result.counts["patterns"] += 1
        result.counts["trees"] = sum(hist.entries.values())
    return result


def grammar_suite(alphabet: Alphabet, patterns: PatternSet, max_len: int) -> SuiteResult:
    """Every tree word of length at most max_len has exactly one derivation
    if it avoids the patterns and none otherwise; malformed words have none."""
    result = SuiteResult("grammar", {"words": 0, "avoiders": 0, "malformed": 0})
    grammar = build_grammar(alphabet, patterns)
    for tree in trees_up_to_word_length(alphabet, max_len):
        word = emit_polish(tree)
        expected = 1 if avoids(tree, patterns.patterns) else 0
        got = count_derivations(grammar, word)
        if got != expected:
            result.failures.append(f"{word}: {got} derivations, expected {expected}")
        result.counts["words"] += 1
        result.counts["avoiders"] += expected
    for word in MALFORMED_WORDS:
        try:
            parse_polish(word, alphabet)
        except ParseError:
            if count_derivations(grammar, word):
                result.failures.append(f"malformed word {word!r} derived")
            result.counts["malformed"] += 1
    return result


def partition_suite(alphabet: Alphabet, patterns: PatternSet, max_nodes: int) -> SuiteResult:
    """On every tree with at most max_nodes internal nodes, the truncation
    class equals the set-theoretic block; avoiders get a block of L_d and
    non-avoiders none.  blocks_hit counts the blocks some avoider reached."""
    Ld = build_Ld(alphabet, patterns)
    blocks = set(Ld)
    hit: set[Tree] = set()
    result = SuiteResult("partition", {"trees": 0, "avoiders": 0, "blocks": len(Ld), "blocks_hit": 0})
    for tree in enumerate_trees(alphabet, max_nodes):
        word = emit_polish(tree)
        by_truncation = membership_class(tree, patterns)
        by_definition = membership_class_setwise(tree, patterns, Ld)
        if by_truncation != by_definition:
            result.failures.append(f"{word}: truncation class differs from the set-theoretic block")
        elif avoids(tree, patterns.patterns):
            if by_truncation not in blocks:
                result.failures.append(f"{word}: avoider outside every block")
            else:
                hit.add(by_truncation)
                result.counts["avoiders"] += 1
        elif by_truncation is not None:
            result.failures.append(f"{word}: non-avoider classified")
        result.counts["trees"] += 1
    result.counts["blocks_hit"] = len(hit)
    return result


def mirror_suite(max_leaves: int, max_nodes: int) -> SuiteResult:
    """Occurrence counts are invariant under mirroring pattern and tree
    together, over trees with at most min(max_nodes, 5) internal nodes."""
    trees = list(enumerate_trees(BINARY, min(max_nodes, 5)))
    result = SuiteResult("mirror", {"patterns": 0, "trees": len(trees)})
    for pattern in _binary_patterns(max_leaves):
        image = mirror(pattern)
        broken = [t for t in trees if count_occurrences(t, pattern) != count_occurrences(mirror(t), image)]
        if broken:
            result.failures.append(f"{emit_polish(pattern)}: occurrence count changes under "
                                   f"mirroring in {emit_polish(broken[0])}")
        result.counts["patterns"] += 1
    return result


def eq12_suite(order: int) -> SuiteResult:
    """The 8-leaf collapse certificate: divisibility of the witness
    polynomials and shared annihilation of the member's series to order."""
    ok = collapse_certificate(order)
    return SuiteResult("eq12", {"order": order}, [] if ok else ["collapse certificate failed"])


def systems_suite(max_leaves: int) -> SuiteResult:
    """The grammars truncated at height d and at height d-1 (the stamp
    system) of every binary pattern with 2..min(max_leaves, 5) leaves solve
    to the same leaf-graded series to SYSTEMS_ORDER, and the stamp series
    matches brute-force avoider counts by leaves."""
    result = SuiteResult("systems", {"patterns": 0})
    for pattern in _binary_patterns(min(max_leaves, 5)):
        word = emit_polish(pattern)
        ps = PatternSet(BINARY, (pattern,))
        _, stamp = solve_truncated(stamp_system(BINARY, ps), SYSTEMS_ORDER, include_unknowns=False)
        _, cs = solve_truncated(cs_system(build_grammar(BINARY, ps)), 2 * SYSTEMS_ORDER + 1,
                                include_unknowns=False)
        if to_operad_series(cs).restrict(SYSTEMS_ORDER) != stamp:
            result.failures.append(f"{word}: stamp and grammar systems disagree")
        by_leaves = count_avoiders_by_leaves(BINARY, ps, SYSTEMS_ORACLE_NODES)
        wrong = [n for n in range(1, SYSTEMS_ORACLE_NODES + 2) if stamp.coefficient(n) != by_leaves.get(n, 0)]
        if wrong:
            result.failures.append(f"{word}: stamp series differs from brute force at {wrong[0]} leaves")
        result.counts["patterns"] += 1
    return result
