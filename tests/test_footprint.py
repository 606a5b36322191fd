"""What a run leaves behind, and what importing the CLI loads."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treewilf
from treewilf import verify
from treewilf.elim import annihilates, eliminate
from treewilf.series import solve_truncated
from treewilf.systems import enumeration_system
from treewilf.trees import Alphabet, PatternSet, parse_polish
from treewilf.wilf import classify

BIN = Alphabet.binary()


def certify_one():
    # one system of the benchmark's certify list, eliminated and checked
    system = enumeration_system(parse_polish("mmxmxxmxx", BIN), marked=False)
    poly = eliminate(system)
    _, target = solve_truncated(system, 30, include_unknowns=False)
    assert annihilates(poly, target, 30)


@pytest.mark.parametrize("run", [
    lambda: classify(6, 41, "av"),
    lambda: classify(6, 41, "en"),
    certify_one,
    lambda: verify.grammar_suite(BIN, PatternSet.from_words(["mmxxx"]), 11),
], ids=["classify-av", "classify-en", "certify", "grammar-suite"])
def test_run_leaves_no_reference_cycles(run):
    # everything a run drops is freed by reference counting, so collection
    # cadence cannot move its memory peak
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        assert gc.collect() == 0, sorted({type(o).__name__ for o in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_cli_import_loads_only_the_program():
    # each module imported from source is compiled at start-up
    code = ("import sys, treewilf.cli; print(*sorted(m for m in sys.modules "
            "if m.partition('.')[0] in ('treewilf', 'numpy', 'sympy', 'hypothesis')))")
    src = str(Path(treewilf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["treewilf"] + [f"treewilf.{m}" for m in (
        "cli", "elim", "grammar", "oracle", "series", "systems", "trees", "verify", "wilf")]
