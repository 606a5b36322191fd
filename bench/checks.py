"""Correctness checks on the benchmark's outputs.

Each check compares program output with a fact the program does not compute
itself: the class counts of the paper's table, Catalan numbers, the closed
form for the total number of pattern occurrences, and brute-force counts.
Word mirroring, the Catalan numbers and the substitution of a series into a
polynomial are re-implemented here on plain integers, so a fault in the
program's own versions cannot hide a fault in its results.

Every check returns a list of failure messages; an empty list is a pass.
The benchmark runs them outside the timed part of a run.
"""

from __future__ import annotations

import hashlib
from math import comb

# Class counts at truncation order >= 157 (the paper's table; the avoidance and
# the occurrence-marked partitions agree there).
CLASS_COUNTS = {8: 43, 9: 136}


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def mirror_word(word: str) -> str:
    """The Polish word of the left-right mirror image of a binary {m, x} tree."""
    pos = 0

    def walk() -> str:
        nonlocal pos
        label = word[pos]
        pos += 1
        if label == "x":
            return "x"
        left = walk()
        right = walk()
        return "m" + right + left

    out = walk()
    if pos != len(word):
        raise ValueError(f"trailing symbols in {word!r}")
    return out


def mirror_classes(n_leaves: int) -> int:
    """Number of n-leaf binary patterns up to mirror image: symmetric trees
    exist only for even n, and there are Catalan(n/2 - 1) of them."""
    symmetric = catalan(n_leaves // 2 - 1) if n_leaves % 2 == 0 else 0
    return (catalan(n_leaves - 1) + symmetric) // 2


def occurrence_total(n_internal: int, pattern_leaves: int) -> int:
    """Occurrences of a pattern with p leaves, summed over all binary trees with
    N internal nodes: a marked occurrence splits a tree into a one-hole context
    and p subtrees, and [z^m] C(z)^p / sqrt(1 - 4z) = binom(2m + p, m) with
    m = N - (p - 1).  It depends on the pattern's size only."""
    m = n_internal - (pattern_leaves - 1)
    return comb(2 * m + pattern_leaves, m) if m >= 0 else 0


def class_count(report, expected: int) -> list[str]:
    if report.class_count != expected or len(report.classes) != expected:
        return [f"n={report.n_leaves} {report.mode}: {report.class_count} classes, "
                f"expected {expected}"]
    return []


def partition(report, n_leaves: int) -> list[str]:
    """Every n-leaf pattern lies in exactly one class."""
    words = [w for c in report.classes for w in c.members]
    fails = []
    if len(words) != catalan(n_leaves - 1):
        fails.append(f"{len(words)} members in all classes, expected {catalan(n_leaves - 1)}")
    if len(set(words)) != len(words):
        fails.append("a pattern lies in more than one class")
    for w in words:
        try:
            well_formed = len(mirror_word(w)) == len(w)
        except (IndexError, ValueError):
            well_formed = False
        if not well_formed or w.count("x") != n_leaves or set(w) != {"m", "x"}:
            fails.append(f"{w!r} is not an {n_leaves}-leaf binary pattern")
            break
    return fails


def mirror_pairs(report) -> list[str]:
    """Mirror images share a class (reflection preserves every count)."""
    where = {w: i for i, c in enumerate(report.classes) for w in c.members}
    for w, i in where.items():
        if where.get(mirror_word(w)) != i:
            return [f"{w} and its mirror {mirror_word(w)} lie in different classes"]
    return []


def av_prefixes(report, n_leaves: int) -> list[str]:
    """Each class prefix reads Catalan(k-1) at x^(2k-1) for k < n leaves (no
    smaller tree can contain an n-leaf pattern) and Catalan(n-1) - 1 at n
    leaves (the pattern itself is the one n-leaf tree that contains it)."""
    for c in report.classes:
        for k, entry in enumerate(c.series_prefix, start=1):
            degree, _, coeff = entry.partition(":")
            if k > n_leaves:
                break
            want = catalan(k - 1) if k < n_leaves else catalan(n_leaves - 1) - 1
            if degree != str(2 * k - 1) or coeff != str(want):
                return [f"class {c.digest[:12]}: prefix entry {entry!r}, "
                        f"expected '{2 * k - 1}:{want}'"]
    return []


def same_partition(a, b) -> list[str]:
    if a.partition() != b.partition():
        return [f"n={a.n_leaves}: the {a.mode} and {b.mode} partitions differ"]
    return []


def en_marginals(series, pattern_leaves: int) -> list[str]:
    """Occurrence-marked series of a p-leaf pattern: the y-marginal at x^(2N+1)
    is Catalan(N), and the k-weighted sum there is occurrence_total(N, p)."""
    totals: dict[int, int] = {}
    weighted: dict[int, int] = {}
    for (n, k), c in series.nonzero_items():
        if n % 2 == 0:
            return [f"nonzero coefficient at even degree x^{n} y^{k}"]
        totals[n] = totals.get(n, 0) + c
        weighted[n] = weighted.get(n, 0) + k * c
    for n in range(1, series.order + 1, 2):
        internal = (n - 1) // 2
        if totals.get(n, 0) != catalan(internal):
            return [f"y-marginal at x^{n} is {totals.get(n, 0)}, expected {catalan(internal)}"]
        want = occurrence_total(internal, pattern_leaves)
        if weighted.get(n, 0) != want:
            return [f"occurrences at x^{n} sum to {weighted.get(n, 0)}, expected {want}"]
    return []


def key_in_report(report, word: str, series) -> list[str]:
    """A re-solved series serializes to the key of the class its pattern is in."""
    digest = hashlib.sha256(series.serialize().encode()).hexdigest()
    for c in report.classes:
        if word in c.members:
            return [] if c.digest == digest else [f"{word}: key differs from its class key"]
    return [f"{word} is in no class"]


def substitute(terms, coeffs: list[int], order: int) -> list[int]:
    """P(x, G) mod x^(order+1) for P given as ((g_degree, x_degree), c) terms and
    G as its coefficient list; plain Horner on integer lists."""
    by_g: dict[int, list[tuple[int, int]]] = {}
    for (g, xd), c in terms:
        by_g.setdefault(g, []).append((xd, c))
    g_coeffs = coeffs[: order + 1] + [0] * (order + 1 - len(coeffs))
    acc = [0] * (order + 1)
    for g in range(max(by_g, default=0), -1, -1):
        prod = [0] * (order + 1)
        for i, a in enumerate(acc):
            if a:
                for j in range(order + 1 - i):
                    prod[i + j] += a * g_coeffs[j]
        for xd, c in by_g.get(g, ()):
            if xd <= order:
                prod[xd] += c
        acc = prod
    return acc


def annihilation(label: str, terms, coeffs: list[int], order: int) -> list[str]:
    """The polynomial vanishes on the series modulo x^(order+1)."""
    rest = substitute(terms, coeffs, order)
    bad = next((d for d, c in enumerate(rest) if c), None)
    if bad is not None:
        return [f"{label}: P(x, G) has the nonzero coefficient {rest[bad]} at x^{bad}"]
    if not terms:
        return [f"{label}: the zero polynomial annihilates nothing"]
    return []


def oracle_counts(label: str, coeffs: list[int], counts: dict[int, int], max_degree: int) -> list[str]:
    """Series coefficients up to max_degree equal the brute-force avoider counts."""
    for d in range(max_degree + 1):
        if coeffs[d] != counts.get(d, 0):
            return [f"{label}: coefficient of x^{d} is {coeffs[d]}, "
                    f"brute force counts {counts.get(d, 0)}"]
    return []
