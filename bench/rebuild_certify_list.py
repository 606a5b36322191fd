#!/usr/bin/env python3
"""Rebuild the certify workload's system list from scratch.

    python3 bench/rebuild_certify_list.py           # rebuild and compare
    python3 bench/rebuild_certify_list.py --write   # rebuild and overwrite

The list holds, for every 2..7-leaf binary pattern up to mirror image (the
lexicographically smaller word of each pair):

* "automaton": the patterns whose reduced avoidance system
  (enumeration_system(reduced=True, marked=False)) has at most 12 unknowns
  and eliminates in under 2 s;
* "grammar": the patterns whose Chomsky-Schutzenberger system, read off the
  avoidance grammar, has at most 12 unknowns and eliminates in under 2 s.

Each elimination runs in a process of its own that is killed after 10 s:
eliminate checks its deadline only between unknowns, so one call can run for
minutes.  Exit code 0 when the rebuilt list equals the committed one (or was
written), 1 when they differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from time import perf_counter

from common import CERTIFY_LIST, GRAMMAR_BUDGET, use_checkout_source

MAX_LEAVES = 7
MAX_UNKNOWNS = 12
LIMIT_S = 2.0
KILL_AFTER_S = 10.0


def representatives() -> list[str]:
    from treewilf.trees import emit_polish, enumerate_binary_patterns, mirror

    out = []
    for n in range(2, MAX_LEAVES + 1):
        out += sorted({min(emit_polish(t), emit_polish(mirror(t)))
                       for t in enumerate_binary_patterns(n)})
    return out


def build_system(kind: str, word: str):
    """The system to eliminate, or None when it is over the size limits."""
    from treewilf.grammar import GrammarSizeError, build_grammar
    from treewilf.systems import cs_system, enumeration_system
    from treewilf.trees import Alphabet, PatternSet, parse_polish

    binary = Alphabet.binary()
    if kind == "automaton":
        system = enumeration_system(parse_polish(word, binary), reduced=True, marked=False)
    else:
        try:
            grammar = build_grammar(binary, PatternSet.from_words([word], binary),
                                    max_nonterminals=GRAMMAR_BUDGET)
        except GrammarSizeError:
            return None
        system = cs_system(grammar)
    return system if system.n_unknowns <= MAX_UNKNOWNS else None


def time_one(kind: str, word: str) -> None:
    """Child process: eliminate one system and print the outcome as JSON."""
    from treewilf.elim import EliminationError, eliminate

    system = build_system(kind, word)
    start = perf_counter()
    try:
        eliminate(system, max_unknowns=MAX_UNKNOWNS)
        outcome = "ok"
    except EliminationError as exc:
        outcome = f"error: {exc}"
    print(json.dumps({"outcome": outcome, "seconds": perf_counter() - start}))


def qualifies(kind: str, word: str) -> bool:
    if build_system(kind, word) is None:
        return False
    try:
        out = subprocess.run([sys.executable, __file__, "--one", kind, word],
                             capture_output=True, text=True, timeout=KILL_AFTER_S, check=True)
    except subprocess.TimeoutExpired:
        print(f"  {kind} {word}: killed after {KILL_AFTER_S:.0f} s", file=sys.stderr)
        return False
    result = json.loads(out.stdout.splitlines()[-1])
    print(f"  {kind} {word}: {result['outcome'][:60]} in {result['seconds']:.3f} s", file=sys.stderr)
    return result["outcome"] == "ok" and result["seconds"] < LIMIT_S


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="overwrite certify_list.json")
    parser.add_argument("--one", nargs=2, metavar=("KIND", "WORD"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    use_checkout_source()
    if args.one:
        time_one(*args.one)
        return 0
    words = representatives()
    rebuilt = {kind: [w for w in words if qualifies(kind, w)] for kind in ("automaton", "grammar")}
    text = json.dumps(rebuilt, indent=1) + "\n"
    print(f"automaton: {len(rebuilt['automaton'])} systems, grammar: {len(rebuilt['grammar'])}")
    if args.write:
        CERTIFY_LIST.write_text(text)
        return 0
    same = json.loads(CERTIFY_LIST.read_text()) == rebuilt
    print("matches certify_list.json" if same else "DIFFERS from certify_list.json")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
