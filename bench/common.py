"""Paths shared by the benchmark's scripts, and the switch to the checkout's source.

The benchmark always drives the treewilf package under ``src/`` of the
checkout it lives in, never an installed copy, so a run measures exactly the
code next to it.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench-runs"
CERTIFY_LIST = BENCH_DIR / "certify_list.json"
# Candidate trees per layer when building an avoidance grammar: every grammar
# of height <= 3 fits, taller ones fail fast instead of running for seconds.
GRAMMAR_BUDGET = 26


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on the import path; exit with code 1
    when the checkout holds no treewilf source."""
    if not (SRC / "treewilf" / "__init__.py").is_file():
        sys.exit(f"bench: no treewilf source at {SRC / 'treewilf'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
