"""Command-line front end.

Exit codes: 0 success, 1 validation error, 2 verification failure,
3 resource bound exceeded.  Progress heartbeats go to stderr; stdout stays
machine-parsable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import oracle
from .elim import (
    EliminationBoundError,
    EliminationError,
    annihilates,
    collapse_certificate,
    eliminate,
    poly_divides,
    WITNESS_QUARTIC,
    WITNESS_QUINTIC,
)
from .grammar import GrammarSizeError, build_grammar, build_Ld, count_derivations, membership_class, membership_class_setwise
from .series import av_series, en_series, en_slice_y0, solve_truncated, to_operad_series
from .systems import SystemSizeError, cs_system, enumeration_system, stamp_system
from .trees import (
    Alphabet,
    ParseError,
    PatternSet,
    Tree,
    avoids,
    count_occurrences,
    emit_polish,
    mirror,
    parse_polish,
)
from .wilf import classify, default_workers


class ValidationError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        sys.exit(1)


def _alphabet(args) -> Alphabet:
    try:
        return Alphabet.from_config(args.alphabet)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _patterns(args, alphabet: Alphabet) -> PatternSet:
    words: list[str] = []
    if getattr(args, "patterns_file", None):
        with open(args.patterns_file) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    words.append(line)
    if args.patterns:
        words.extend(w.strip() for w in args.patterns.split(",") if w.strip())
    trees = []
    for w in words:
        try:
            trees.append(parse_polish(w, alphabet))
        except ParseError as exc:
            raise ValidationError(f"pattern {w!r}: {exc}") from exc
    return PatternSet(alphabet, tuple(trees), allow_degenerate=True)


def _single_pattern(word: str, alphabet: Alphabet) -> Tree:
    try:
        return parse_polish(word, alphabet)
    except ParseError as exc:
        raise ValidationError(f"pattern {word!r}: {exc}") from exc


def _progress(label: str):
    state = {"last": 0.0}

    def cb(done: int, total: int) -> None:
        now = time.monotonic()
        if now - state["last"] >= 5.0 or done == total:
            state["last"] = now
            print(f"{label}: {done}/{total}", file=sys.stderr)

    return cb


def cmd_classify(args) -> int:
    if args.leaves >= 10 and not args.deep:
        raise ValidationError(
            f"n={args.leaves} sweeps Catalan({args.leaves - 1}) patterns and runs for a long "
            "time; pass --deep to confirm"
        )
    report = classify(
        args.leaves, args.order, args.mode,
        workers=args.workers if args.workers is not None else default_workers(),
        mirror_reduce=not args.no_mirror_reduce,
        verify_mirror=args.verify_mirror,
        progress=_progress(f"classify n={args.leaves} {args.mode}") if not args.quiet else None,
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    if args.csv:
        with open(args.csv, "a") as fh:
            fh.write(report.csv_row() + "\n")
    print(report.summary_line())
    return 0


def cmd_series(args) -> int:
    alphabet = Alphabet.binary()
    pattern = _single_pattern(args.pattern, alphabet)
    if pattern.is_free_end():
        raise ValidationError("the bare free end is degenerate: every tree contains it")
    if args.kind == "av":
        out = av_series(pattern, args.order)
    elif args.kind == "en":
        out = en_series(pattern, args.order)
    else:
        out = to_operad_series(av_series(pattern, 2 * args.order))
    print(out.serialize())
    return 0


def cmd_grammar(args) -> int:
    alphabet = _alphabet(args)
    patterns = _patterns(args, alphabet)
    try:
        g = build_grammar(alphabet, patterns, max_nonterminals=args.max_nonterminals)
    except GrammarSizeError as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(g.to_json() + "\n" if args.format == "json" else g.to_bnf())
    return 0


def cmd_system(args) -> int:
    alphabet = _alphabet(args)
    patterns = _patterns(args, alphabet)
    try:
        if args.method == "cs":
            system = cs_system(build_grammar(alphabet, patterns, max_nonterminals=args.max_nonterminals))
        elif args.method == "stamp":
            system = stamp_system(alphabet, patterns)
        else:
            if len(patterns.patterns) != 1:
                raise ValidationError("--method en takes exactly one pattern")
            system = enumeration_system(patterns.patterns[0], reduced=not args.truncation_states)
    except (GrammarSizeError, SystemSizeError) as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(system.to_text())
    return 0


def cmd_eliminate(args) -> int:
    alphabet = _alphabet(args)
    patterns = _patterns(args, alphabet)
    system = cs_system(build_grammar(alphabet, patterns, max_nonterminals=args.max_nonterminals))
    try:
        poly = eliminate(system, max_unknowns=args.max_unknowns,
                         deadline_seconds=args.deadline)
    except EliminationBoundError as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 3
    except EliminationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(poly.pretty())
    _, target = solve_truncated(system, args.check_order)
    ok = annihilates(poly, target, args.check_order)
    print(f"annihilation self-check at order {args.check_order}: {'pass' if ok else 'FAIL'}",
          file=sys.stderr)
    return 0 if ok else 2


def _verify_oracle(args, failures: list[str]) -> None:
    alphabet = Alphabet.binary()
    from .trees import enumerate_binary_patterns

    bound = args.max_nodes
    order = 2 * bound + 1
    for leaves in range(2, args.max_leaves + 1):
        for pattern in enumerate_binary_patterns(leaves):
            word = emit_polish(pattern)
            hist = oracle.brute_histogram(alphabet, pattern, bound)
            en = en_series(pattern, order)
            av = av_series(pattern, order)
            ok = all(en.coefficient(n, k) == c for (n, k), c in hist.entries.items())
            ok = ok and all(hist.entries.get((n, k), 0) == c
                            for (n, k), c in en.nonzero_items() if n <= 2 * bound + 1)
            ok = ok and en_slice_y0(en) == av
            ok = ok and av.is_nonnegative()
            if not ok:
                failures.append(f"oracle: series mismatch for pattern {word}")
    print(f"oracle suite: patterns up to {args.max_leaves} leaves vs trees up to "
          f"{bound} internal nodes: {'pass' if not failures else 'FAIL'}")


def _verify_grammar(args, failures: list[str]) -> None:
    alphabet = Alphabet.binary()
    pattern_set = (
        _patterns(args, alphabet)
        if args.patterns
        else PatternSet.from_words(["mmxxx"], alphabet)
    )
    g = build_grammar(alphabet, pattern_set)
    bad = 0
    for tree in oracle.trees_up_to_word_length(alphabet, args.max_len):
        word = emit_polish(tree)
        expected = 1 if avoids(tree, pattern_set.patterns) else 0
        if count_derivations(g, word) != expected:
            bad += 1
            failures.append(f"grammar: derivation count wrong for {word}")
    for word in ("m", "mmxx", "xm", "mxxx"):
        if count_derivations(g, word) != 0:
            bad += 1
            failures.append(f"grammar: malformed word {word} derived")
    print(f"grammar suite: words up to length {args.max_len}: {'pass' if not bad else 'FAIL'}")


def _verify_partition(args, failures: list[str]) -> None:
    alphabet = Alphabet.binary()
    pattern_set = (
        _patterns(args, alphabet)
        if args.patterns
        else PatternSet.from_words(["mmxxx"], alphabet)
    )
    Ld = build_Ld(alphabet, pattern_set)
    seen = {emit_polish(v): 0 for v in Ld}
    bad = 0
    for tree in oracle.enumerate_trees(alphabet, args.max_nodes):
        v1 = membership_class(tree, pattern_set)
        v2 = membership_class_setwise(tree, pattern_set, Ld)
        if avoids(tree, pattern_set.patterns):
            if v1 is None or v1 != v2 or v1 not in Ld:
                bad += 1
                failures.append(f"partition: class mismatch for {emit_polish(tree)}")
            else:
                seen[emit_polish(v1)] += 1
        elif v1 is not None or v2 is not None:
            bad += 1
            failures.append(f"partition: non-avoider classified: {emit_polish(tree)}")
    print(f"partition suite: avoiders up to {args.max_nodes} internal nodes "
          f"over {len(Ld)} blocks: {'pass' if not bad else 'FAIL'}")


def _verify_mirror(args, failures: list[str]) -> None:
    alphabet = Alphabet.binary()
    from .trees import enumerate_binary_patterns

    bad = 0
    for leaves in range(2, args.max_leaves + 1):
        for pattern in enumerate_binary_patterns(leaves):
            m = mirror(pattern)
            for tree in oracle.enumerate_trees(alphabet, min(args.max_nodes, 5)):
                if count_occurrences(tree, pattern) != count_occurrences(mirror(tree), m):
                    bad += 1
                    failures.append(f"mirror: occurrence count broken for {emit_polish(pattern)}")
    print(f"mirror suite: {'pass' if not bad else 'FAIL'}")


def _verify_eq12(args, failures: list[str]) -> None:
    ok = poly_divides(WITNESS_QUINTIC, WITNESS_QUARTIC) and collapse_certificate(100)
    if not ok:
        failures.append("eq12: certificate failed")
    print(f"eq12 suite: divisibility + annihilation certificate: {'pass' if ok else 'FAIL'}")


def _verify_systems(args, failures: list[str]) -> None:
    alphabet = Alphabet.binary()
    from .trees import enumerate_binary_patterns

    bad = 0
    for leaves in range(2, min(args.max_leaves, 5) + 1):
        for pattern in enumerate_binary_patterns(leaves):
            ps = PatternSet(alphabet, (pattern,))
            stamp = stamp_system(alphabet, ps)
            cs = cs_system(build_grammar(alphabet, ps))
            _, st = solve_truncated(stamp, 40)
            _, ct = solve_truncated(cs, 81)
            if to_operad_series(ct).restrict(40) != st:
                bad += 1
                failures.append(f"systems: stamp/cs disagree for {emit_polish(pattern)}")
    print(f"systems suite: stamp vs grammar systems to order 40: {'pass' if not bad else 'FAIL'}")


def cmd_verify(args) -> int:
    failures: list[str] = []
    suites = {
        "oracle": _verify_oracle,
        "grammar": _verify_grammar,
        "partition": _verify_partition,
        "mirror": _verify_mirror,
        "eq12": _verify_eq12,
        "systems": _verify_systems,
    }
    selected = list(suites) if args.suite == "all" else [args.suite]
    for name in selected:
        suites[name](args, failures)
    if failures:
        for f in failures[:20]:
            print(f"FAIL {f}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treewilf",
                     description="Tree pattern avoidance enumeration and Wilf classification")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--alphabet", default="m:2,x:0",
                       help="labels as name:arity pairs; the arity-0 label is the free end")
        p.add_argument("--patterns", "--pattern", default="",
                       help="comma-separated Polish words (empty for the free language)")
        p.add_argument("--patterns-file", default=None,
                       help="file with one pattern per line, # comments allowed")
        p.add_argument("--max-nonterminals", type=int, default=100000)

    p = sub.add_parser("classify", help="group n-leaf binary patterns by truncated series")
    p.add_argument("-n", "--leaves", type=int, required=True)
    p.add_argument("-K", "--order", type=int, default=257)
    p.add_argument("--mode", choices=("av", "en"), default="av")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: TREEWILF_WORKERS, else the CPU count)")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--csv", default=None, help="append a CSV summary row here")
    p.add_argument("--no-mirror-reduce", action="store_true")
    p.add_argument("--verify-mirror", action="store_true",
                   help="solve both members of each mirror pair and compare")
    p.add_argument("--deep", action="store_true",
                   help="allow the hours-scale sweeps (10 or more leaves)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("series", help="print a pattern's series in canonical form")
    p.add_argument("--pattern", required=True)
    p.add_argument("--kind", choices=("av", "en", "operad"), default="av")
    p.add_argument("-K", "--order", type=int, default=20)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("grammar", help="print the avoidance grammar")
    add_common(p)
    p.add_argument("--format", choices=("bnf", "json"), default="bnf")
    p.set_defaults(func=cmd_grammar)

    p = sub.add_parser("system", help="print an algebraic system in canonical form")
    add_common(p)
    p.add_argument("--method", choices=("cs", "stamp", "en"), default="cs")
    p.add_argument("--truncation-states", action="store_true",
                   help="with --method en, use bounded-height truncation states")
    p.set_defaults(func=cmd_system)

    p = sub.add_parser("eliminate", help="eliminate unknowns to one polynomial in (x, G)")
    add_common(p)
    p.add_argument("--max-unknowns", type=int, default=12)
    p.add_argument("--deadline", type=float, default=None, help="seconds before giving up")
    p.add_argument("--check-order", type=int, default=60)
    p.set_defaults(func=cmd_eliminate)

    p = sub.add_parser("verify", help="run oracle-backed verification suites")
    p.add_argument("--suite", default="all",
                   choices=("all", "oracle", "grammar", "partition", "mirror", "eq12", "systems"))
    p.add_argument("--max-leaves", type=int, default=4)
    p.add_argument("--max-nodes", type=int, default=7)
    p.add_argument("--max-len", type=int, default=15)
    p.add_argument("--patterns", "--pattern", default="")
    p.add_argument("--patterns-file", default=None)
    p.add_argument("--alphabet", default="m:2,x:0")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
