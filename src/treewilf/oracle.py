"""Brute-force avoidance/occurrence counting over exhaustive tree enumeration.

This is the ground truth for every symbolic construction in the package:
series solvers, grammars and classification keys are all checked against
counts produced here from the trees of trees.trees_of_size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .trees import (
    Alphabet,
    PatternSet,
    Tree,
    avoids,
    count_occurrences,
    free_end_count,
    trees_of_size,
    vertex_count,
)


def enumerate_trees(alphabet: Alphabet, max_internal: int) -> Iterator[Tree]:
    """Stream every tree with at most max_internal internal nodes, each exactly once,
    by internal-node count and then lexicographically on Polish words."""
    if max_internal < 0:
        raise ValueError("max_internal must be >= 0")
    for i in range(max_internal + 1):
        yield from trees_of_size(alphabet, i)


def trees_up_to_word_length(alphabet: Alphabet, max_len: int) -> tuple[Tree, ...]:
    """All trees whose Polish word has at most max_len symbols (vertex count bound),
    by vertex count and then lexicographically on Polish words."""
    return tuple(t for v in range(1, max_len + 1) for t in trees_of_size(alphabet, v, 1))


@dataclass
class OccurrenceHistogram:
    """Exact counts of trees by (vertex count, pattern occurrence count)."""

    entries: dict[tuple[int, int], int]

    def count(self, n_vertices: int, k_occurrences: int) -> int:
        return self.entries.get((n_vertices, k_occurrences), 0)


def brute_histogram(alphabet: Alphabet, pattern: Tree, max_internal: int) -> OccurrenceHistogram:
    """Count occurrences of pattern in every tree with at most max_internal internal nodes."""
    entries: dict[tuple[int, int], int] = {}
    for tree in enumerate_trees(alphabet, max_internal):
        key = (vertex_count(tree), count_occurrences(tree, pattern))
        entries[key] = entries.get(key, 0) + 1
    return OccurrenceHistogram(entries)


def count_avoiders(alphabet: Alphabet, patterns: PatternSet, max_internal: int) -> dict[int, int]:
    """Vertex count -> number of trees avoiding every pattern, up to the internal-node bound."""
    out: dict[int, int] = {}
    plist = patterns.patterns
    for tree in enumerate_trees(alphabet, max_internal):
        if avoids(tree, plist):
            n = vertex_count(tree)
            out[n] = out.get(n, 0) + 1
    return out


def count_avoiders_by_leaves(alphabet: Alphabet, patterns: PatternSet, max_internal: int) -> dict[int, int]:
    """Leaf count -> number of avoiding trees, up to the internal-node bound."""
    out: dict[int, int] = {}
    plist = patterns.patterns
    for tree in enumerate_trees(alphabet, max_internal):
        if avoids(tree, plist):
            n = free_end_count(tree)
            out[n] = out.get(n, 0) + 1
    return out
