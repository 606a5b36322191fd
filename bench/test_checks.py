"""Each benchmark check passes on genuine output and fails on a corrupted copy.

    python3 -m pytest -q bench/test_checks.py

Small inputs stand in for the workloads' (5-leaf sweeps, short series); the
checks take the pattern size as a parameter, so they run the same code.
"""

from __future__ import annotations

import copy

import pytest

import checks
from common import use_checkout_source

use_checkout_source()

import run  # noqa: E402
from treewilf.elim import eliminate  # noqa: E402
from treewilf.oracle import brute_histogram, count_avoiders  # noqa: E402
from treewilf.series import TruncatedSeries, av_series, en_series  # noqa: E402
from treewilf.systems import enumeration_system  # noqa: E402
from treewilf.trees import (  # noqa: E402
    Alphabet,
    PatternSet,
    emit_polish,
    enumerate_binary_patterns,
    mirror,
    parse_polish,
)
from treewilf.wilf import classify  # noqa: E402

B = Alphabet.binary()
N = 5
ORDER = 21


@pytest.fixture(scope="module")
def av_report():
    return classify(N, ORDER, "av", workers=1)


@pytest.fixture(scope="module")
def en_report():
    return classify(N, ORDER, "en", workers=1)


def asymmetric_member(report):
    return next(w for c in report.classes for w in c.members if checks.mirror_word(w) != w)


# -- the facts the checks rest on ------------------------------------------------


def test_mirror_word_matches_the_program():
    for n in range(2, 7):
        for t in enumerate_binary_patterns(n):
            assert checks.mirror_word(emit_polish(t)) == emit_polish(mirror(t))


def test_mirror_class_counts():
    for n in range(2, 10):
        words = {emit_polish(t) for t in enumerate_binary_patterns(n)}
        assert checks.mirror_classes(n) == len({min(w, checks.mirror_word(w)) for w in words})


@pytest.mark.parametrize("word", ["mxx", "mmxxx", "mxmxx", "mmxxmxx", "mmmxxxx"])
def test_occurrence_total_matches_brute_force(word):
    pattern = parse_polish(word, B)
    hist = brute_histogram(B, pattern, 6)
    for internal in range(7):
        n = 2 * internal + 1
        total = sum(k * hist.count(n, k) for k in range(internal + 1))
        assert total == checks.occurrence_total(internal, word.count("x"))


# -- class reports ---------------------------------------------------------------


def test_class_count(av_report):
    assert checks.class_count(av_report, 3) == []
    bad = copy.deepcopy(av_report)
    bad.classes.pop()
    bad.class_count -= 1
    assert checks.class_count(bad, 3)


def test_partition(av_report):
    assert checks.partition(av_report, N) == []
    dropped = copy.deepcopy(av_report)
    dropped.classes[0].members.pop()
    assert checks.partition(dropped, N)
    doubled = copy.deepcopy(av_report)
    doubled.classes[1].members[0] = doubled.classes[0].members[0]
    assert checks.partition(doubled, N)
    malformed = copy.deepcopy(av_report)
    malformed.classes[0].members[0] = "mmxxxmx"
    assert checks.partition(malformed, N)


def test_mirror_pairs(av_report):
    assert checks.mirror_pairs(av_report) == []
    bad = copy.deepcopy(av_report)
    word = asymmetric_member(bad)
    home = next(c for c in bad.classes if word in c.members)
    other = next(c for c in bad.classes if c is not home)
    home.members.remove(word)
    other.members.append(word)
    assert checks.mirror_pairs(bad)


def test_av_prefixes(av_report):
    assert checks.av_prefixes(av_report, N) == []
    for k in (2, N):
        bad = copy.deepcopy(av_report)
        degree, _, coeff = bad.classes[0].series_prefix[k - 1].partition(":")
        bad.classes[0].series_prefix[k - 1] = f"{degree}:{int(coeff) + 1}"
        assert checks.av_prefixes(bad, N)


def test_same_partition(av_report, en_report):
    assert checks.same_partition(en_report, av_report) == []
    bad = copy.deepcopy(en_report)
    word = bad.classes[0].members.pop()
    bad.classes[1].members.append(word)
    assert checks.same_partition(bad, av_report)


# -- occurrence-marked series ----------------------------------------------------


def en_items(word):
    series = en_series(parse_polish(word, B), ORDER)
    return series, dict(series.nonzero_items())


def test_en_marginals():
    series, items = en_items("mmxxx")
    assert checks.en_marginals(series, 3) == []
    bumped = dict(items)
    bumped[(9, 1)] += 1
    assert checks.en_marginals(TruncatedSeries.bivariate(("x", "y"), ORDER, bumped), 3)
    # same y-marginal, one occurrence more
    shifted = dict(items)
    shifted[(9, 1)] -= 1
    shifted[(9, 2)] += 1
    fails = checks.en_marginals(TruncatedSeries.bivariate(("x", "y"), ORDER, shifted), 3)
    assert fails and "occurrences" in fails[0]


def test_key_in_report(en_report):
    word = en_report.classes[0].members[0]
    series, items = en_items(word)
    assert checks.key_in_report(en_report, word, series) == []
    key = next(k for k in items if k[1] > 0)
    items[key] += 1
    assert checks.key_in_report(en_report, word, TruncatedSeries.bivariate(("x", "y"), ORDER, items))


def test_check_replay_catches_a_wrong_key(en_report):
    word = en_report.classes[0].members[0]
    good = {(N, ORDER, "en", word): en_report.classes[0].digest}
    reports = [(N, ORDER, "en", en_report)]
    assert run.check_replay(reports, good) == []
    assert run.check_replay(reports, {(N, ORDER, "en", word): "0" * 64})


# -- polynomials ------------------------------------------------------------------


@pytest.fixture(scope="module")
def mmxxx_poly():
    tree = parse_polish("mmxxx", B)
    return eliminate(enumeration_system(tree, reduced=True, marked=False))


def test_annihilation(mmxxx_poly):
    coeffs = list(av_series(parse_polish("mmxxx", B), 41).dense_coefficients())
    assert checks.annihilation("p", mmxxx_poly.terms, coeffs, 41) == []
    terms = list(mmxxx_poly.terms)
    (exps, c) = terms[0]
    terms[0] = (exps, c + 1)
    assert checks.annihilation("p", tuple(terms), coeffs, 41)
    wrong = list(coeffs)
    wrong[37] += 1
    assert checks.annihilation("p", mmxxx_poly.terms, wrong, 41)
    assert checks.annihilation("p", (), coeffs, 41)


def test_oracle_counts():
    tree = parse_polish("mmxxmxx", B)
    coeffs = list(av_series(tree, 15).dense_coefficients())
    counts = count_avoiders(B, PatternSet(B, (tree,)), 7)
    assert checks.oracle_counts("p", coeffs, counts, 15) == []
    coeffs[13] += 1
    assert checks.oracle_counts("p", coeffs, counts, 15)


def certify_failures(results):
    kept = {}
    return run.fold_certify(kept, results) + run.check_certify(kept)


def test_check_certify(mmxxx_poly):
    good = [("automaton", "mmxxx", mmxxx_poly, True), ("certificate", "c", None, True)]
    assert certify_failures(good) == []
    assert certify_failures([("certificate", "c", None, False)])
    assert certify_failures([("automaton", "mmxxx", mmxxx_poly, False)])
    terms = dict(mmxxx_poly.terms)
    key = next(iter(terms))
    terms[key] += 1
    corrupted = type(mmxxx_poly).from_dict(terms)
    assert certify_failures([("automaton", "mmxxx", corrupted, True)])
    assert certify_failures([("automaton", "mmxxx", mmxxx_poly, True),
                             ("automaton", "mmxxx", corrupted, True)])
