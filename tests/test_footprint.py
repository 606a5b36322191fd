"""What a run leaves behind, and which modules a process loads."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treewilf
from treewilf import gmp, series, verify
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


def classify_en_on_gmp():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "GMP_BITS", 0)
        classify(6, 41, "en")


@pytest.mark.parametrize("run", [
    lambda: classify(6, 41, "av"),
    lambda: classify(6, 41, "en"),
    classify_en_on_gmp,
    certify_one,
    lambda: verify.grammar_suite(BIN, PatternSet.from_words(["mmxxx"]), 11),
], ids=["classify-av", "classify-en", "classify-en-gmp", "certify", "grammar-suite"])
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


def test_univariate_runs_never_load_gmp(monkeypatch):
    # with the threshold at 0 every bivariate slice asks for GMP; univariate
    # slices never ask, whatever their size
    loads = []
    monkeypatch.setattr(gmp, "library", lambda: loads.append(1))
    monkeypatch.setattr(series, "GMP_BITS", 0)
    classify(6, 41, "av")
    certify_one()
    assert loads == []
    classify(4, 41, "en")
    assert loads


def loaded_after(code: str) -> list[str]:
    """The program's modules, multiprocessing and ctypes that a fresh
    interpreter holds after running code."""
    code += ("\nimport sys; print(*sorted(m for m in sys.modules if m.partition('.')[0] in "
             "('treewilf', 'multiprocessing', 'ctypes', 'numpy', 'sympy', 'hypothesis')))")
    src = str(Path(treewilf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout.split()


def test_cli_import_loads_only_the_program():
    # each module imported from source is compiled at start-up, so the CLI
    # loads a command's modules only when that command runs; ctypes loads
    # only when a bivariate solve first needs GMP, multiprocessing only when
    # a sweep opens a pool
    assert loaded_after("import treewilf.cli") == ["treewilf", "treewilf.cli", "treewilf.trees"]


@pytest.mark.parametrize("mode", ["av", "en"])
def test_one_worker_sweep_loads_only_the_solver(mode):
    loaded = loaded_after(f"from treewilf.wilf import classify; classify(6, 41, {mode!r}, workers=1)")
    assert "treewilf.series" in loaded
    for module in ("elim", "grammar", "oracle", "verify"):
        assert f"treewilf.{module}" not in loaded
    assert "multiprocessing" not in loaded


def test_eight_leaf_certificate_loads_elimination():
    loaded = loaded_after("from treewilf.wilf import classify; "
                          "assert classify(8, 100, 'av').exactness == 'exact'")
    assert "treewilf.elim" in loaded
