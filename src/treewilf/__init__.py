"""Enumeration and classification of pattern-avoiding labelled rooted trees.

The pipeline: trees and patterns (trees), brute-force ground truth (oracle),
the unambiguous avoidance grammar (grammar), algebraic fixed-point systems
(systems), exact truncated-series solving (series), polynomial elimination
and divisibility certificates (elim), the Wilf / enumeration-class
sweep driver (wilf), and the oracle-backed verification suites (verify).

Import each name from its submodule, e.g. ``from treewilf.series import
av_series``.  The package itself loads none of them, so a process compiles
and imports only the stages it runs.
"""

__version__ = "0.1.0"
