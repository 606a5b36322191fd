"""Enumeration and classification of pattern-avoiding labelled rooted trees.

The pipeline: trees and patterns (trees), brute-force ground truth (oracle),
the unambiguous avoidance grammar (grammar), algebraic fixed-point systems
(systems), exact truncated-series solving (series), polynomial elimination
and divisibility certificates (elim), the Wilf / enumeration-class
sweep driver (wilf), and the oracle-backed verification suites (verify).
"""

from .trees import (
    Alphabet,
    ParseError,
    PatternSet,
    Tree,
    catalan,
    count_occurrences,
    emit_polish,
    enumerate_binary_patterns,
    graft,
    height,
    is_rooted_subtree,
    mirror,
    parse_polish,
    truncate,
)
from .oracle import OccurrenceHistogram, brute_histogram, count_avoiders, enumerate_trees
from .grammar import Grammar, build_grammar, build_Ld, count_derivations, membership_class
from .systems import AlgebraicSystem, cs_system, enumeration_system, stamp_system
from .series import (
    TruncatedSeries,
    av_series,
    en_series,
    solve_truncated,
    to_operad_series,
)

__all__ = [
    "Alphabet",
    "AlgebraicSystem",
    "Grammar",
    "OccurrenceHistogram",
    "ParseError",
    "PatternSet",
    "Tree",
    "TruncatedSeries",
    "av_series",
    "brute_histogram",
    "build_Ld",
    "build_grammar",
    "catalan",
    "count_avoiders",
    "count_derivations",
    "count_occurrences",
    "cs_system",
    "emit_polish",
    "en_series",
    "enumerate_binary_patterns",
    "enumerate_trees",
    "enumeration_system",
    "graft",
    "height",
    "is_rooted_subtree",
    "membership_class",
    "mirror",
    "parse_polish",
    "solve_truncated",
    "stamp_system",
    "to_operad_series",
    "truncate",
]

__version__ = "0.1.0"
