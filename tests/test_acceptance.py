"""End-to-end acceptance suite.

Each test prints one pass line for its criterion; run with

    pytest tests/test_acceptance.py -v -s

The classification sweeps at order 257 are shared across criteria via a
cache, so the whole module costs a few minutes, dominated by the 9-leaf
occurrence-marked sweep.  The two 9-leaf tests carry the slow marker, so

    pytest -m "not slow"

leaves them out for a quick loop.
"""

import hashlib
import time
from functools import lru_cache

import pytest

from test_oracle import internal_count_totals  # pytest puts tests/ on sys.path
from treewilf import verify
from treewilf.grammar import build_grammar
from treewilf.series import av_series, en_series, solve_truncated
from treewilf.systems import cs_system, stamp_system
from treewilf.trees import (
    Alphabet,
    PatternSet,
    Tree,
    catalan,
    emit_polish,
    enumerate_binary_patterns,
    parse_polish,
)
from treewilf.wilf import classify, default_workers

BIN = Alphabet.binary()
MIXED = Alphabet(labels=(("m", 2), ("w", 3), ("x", 0)), free_end="x")
ORDER = 257
WORKERS = default_workers()


# sha256 of report(n, mode).canonical_bytes(): a change to the solver, the
# systems or the report format that moves any byte of these sweeps shows here
REPORT_DIGESTS = {
    (8, "av"): "6ac7cc2a148bf6adacf5ed64345270b69f0baf5f3f34ea939dfdcfa78f3091e6",
    (8, "en"): "48729d08f46e6e464b9d6b49505b5385ac3e5c69eded23954f510a6278585f72",
    (9, "av"): "6b0a644b66c49f62634c85b2fdda810bcfb8ab95b9d95c3dcd7178afd5ba6d2d",
    (9, "en"): "2a8f3bd779b534e4be2acebc2c27614168a93c697258a5b432e4a95f2083e208",
}


@lru_cache(maxsize=None)
def report(n_leaves: int, mode: str):
    return classify(n_leaves, ORDER, mode, workers=WORKERS)


def assert_pinned(n_leaves: int, mode: str) -> None:
    digest = hashlib.sha256(report(n_leaves, mode).canonical_bytes()).hexdigest()
    assert digest == REPORT_DIGESTS[n_leaves, mode], (n_leaves, mode)


def ok(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_01_wilf_sequence_reproduction():
    start = time.monotonic()
    counts = [report(n, "av").class_count for n in range(2, 8)]
    elapsed = time.monotonic() - start
    assert counts == [1, 1, 2, 3, 7, 15]
    assert elapsed < 120
    ok("1 wilf sequence", f"counts n=2..7 = {counts} in {elapsed:.1f}s at K={ORDER}")


def test_02_eight_leaf_class_count():
    r = report(8, "av")
    assert r.class_count == 43
    assert r.pattern_count == 429
    assert r.exactness == "exact" and r.certificate is not None
    assert_pinned(8, "av")
    ok("2 eight-leaf count", f"43 classes over 429 patterns, certified exact")


def test_03_divisibility_certificate():
    start = time.monotonic()
    result = verify.eq12_suite(100)
    elapsed = time.monotonic() - start
    assert result.failures == []
    assert elapsed < 5
    ok("3 certificate", f"divisibility + shared annihilation at K=100 in {elapsed:.2f}s")


@pytest.mark.slow
def test_04_nine_leaf_lower_bounds():
    av9 = report(9, "av")
    en9 = report(9, "en")
    assert av9.class_count >= 136
    assert en9.class_count >= 136
    assert av9.class_count == en9.class_count == 136
    assert av9.exactness == "lower_bound"
    assert_pinned(9, "av")
    assert_pinned(9, "en")
    ok("4 nine-leaf bounds", f"av={av9.class_count}, en={en9.class_count} at K={ORDER}")


@pytest.mark.slow
def test_05_enumeration_equivalence_cross_check():
    for n in range(2, 9):
        assert report(n, "av").partition() == report(n, "en").partition(), n
    assert_pinned(8, "en")
    ok("5 cross-check", f"avoidance and occurrence partitions agree for n=2..8 at K={ORDER}")


def test_06_oracle_equivalence():
    bound = 9
    result = verify.oracle_suite(5, bound)
    assert result.failures == []
    assert result.counts["patterns"] == 22
    assert result.counts["trees"] == sum(catalan(i) for i in range(bound + 1))
    ok("6 oracle equivalence", f"22 patterns vs all trees with <= {bound} internal nodes")


def _mixed_narrow_patterns() -> PatternSet:
    import itertools

    keep = {"wxxmxx", "mxwxxx"}
    layer1 = [Tree("x"), parse_polish("mxx", MIXED), parse_polish("wxxx", MIXED)]
    banned = []
    for label, k in MIXED.internal_labels:
        for kids in itertools.product(layer1, repeat=k):
            t = Tree(label, kids)
            if any(not c.is_free_end() for c in kids) and emit_polish(t) not in keep:
                banned.append(t)
    return PatternSet(MIXED, tuple(banned))


def test_07_grammar_soundness():
    cases = [
        (BIN, PatternSet(BIN, ())),
        (BIN, PatternSet.from_words(["mmxxx"])),
        (BIN, PatternSet.from_words(["mmxxx", "mxmxx"])),
        (BIN, PatternSet.from_words(["mmxxmxx"])),
        (MIXED, _mixed_narrow_patterns()),
    ]
    words = 0
    for alphabet, patterns in cases:
        result = verify.grammar_suite(alphabet, patterns, 15)
        assert result.failures == []
        assert result.counts["malformed"] == len(verify.MALFORMED_WORDS)
        assert result.counts["words"] >= result.counts["avoiders"] > 0
        if alphabet is BIN:
            # binary trees with at most 15 vertices: at most 7 internal nodes
            assert result.counts["words"] == sum(catalan(i) for i in range(8))
        words += result.counts["words"]
    ok("7 grammar soundness", f"derivation counts 0/1 correct on {words} words up to length 15")


def test_08_partition_lemma():
    cases = [
        (BIN, PatternSet.from_words(["mmxxx"]), 7),
        (BIN, PatternSet.from_words(["mmxxx", "mxmxx"]), 7),
        (MIXED, _mixed_narrow_patterns(), 4),
    ]
    for alphabet, patterns, bound in cases:
        result = verify.partition_suite(alphabet, patterns, bound)
        assert result.failures == []
        assert result.counts["trees"] == sum(internal_count_totals(alphabet, bound))
        assert result.counts["blocks_hit"] == result.counts["blocks"]
    ok("8 partition lemma", "truncation classes = set-theoretic blocks, total on avoiders")


def test_09_system_equivalence():
    result = verify.systems_suite(5)
    assert result.failures == []
    assert result.counts["patterns"] == 22
    ok("9 system equivalence",
       "stamp vs grammar systems agree to order 40 on 22 patterns, both match the oracle")


def test_10_nonnegative_integer_coefficients():
    series_checked = 0
    for leaves in range(2, 6):
        for pattern in enumerate_binary_patterns(leaves):
            assert av_series(pattern, 41).is_nonnegative()
            assert en_series(pattern, 41).is_nonnegative()
            series_checked += 2
    for words in ([], ["mmxxx"], ["mmxxmxx"]):
        ps = PatternSet.from_words(words)
        _, cs_target = solve_truncated(cs_system(build_grammar(BIN, ps)), 60)
        _, stamp_target = solve_truncated(stamp_system(BIN, ps), 60)
        assert cs_target.is_nonnegative() and stamp_target.is_nonnegative()
        series_checked += 2
    for member in [c.members[0] for c in report(8, "av").classes]:
        assert av_series(parse_polish(member, BIN), ORDER).is_nonnegative()
        series_checked += 1
    ok("10 nonnegativity", f"{series_checked} solved series, all coefficients nonnegative integers")
