"""Command-line front end.

Exit codes: 0 success, 1 validation error, 2 verification failure,
3 resource bound exceeded.  Progress heartbeats go to stderr; stdout stays
machine-parsable.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import verify
from .elim import EliminationBoundError, EliminationError, annihilates, eliminate
from .grammar import GrammarSizeError, build_grammar
from .series import av_series, en_series, solve_truncated, to_operad_series
from .systems import (
    MAX_STAMPS,
    SystemSizeError,
    cs_system,
    enumeration_system,
    occurrence_state_count,
    stamp_system,
)
from .trees import Alphabet, ParseError, PatternSet, Tree, emit_polish, height, mirror, parse_polish
from .wilf import CSV_HEADER, classify, default_workers, stabilization_scan


class ValidationError(ValueError):
    pass


# (exception types, exit code, stderr prefix); the first matching row wins,
# so EliminationBoundError meets its row before its base EliminationError.
# ValueError covers ValidationError, ParseError and ImproperSystemError;
# RecursionError is what a pattern deeper than the interpreter's stack gives,
# and OverflowError or MemoryError what an order too large to allocate gives;
# OSError is a file that cannot be read or written.
EXIT_CODES = (
    ((GrammarSizeError, SystemSizeError, EliminationBoundError, RecursionError,
      OverflowError, MemoryError), 3, "resource bound exceeded"),
    ((EliminationError, ValueError, OSError), 1, "error"),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        sys.exit(1)


def _patterns(args, alphabet: Alphabet) -> PatternSet:
    words: list[str] = []
    if getattr(args, "patterns_file", None):
        try:
            with open(args.patterns_file) as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise ValidationError(f"patterns file {args.patterns_file!r}: {exc.strerror}") from exc
        for line in lines:
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
        pattern = parse_polish(word, alphabet)
    except ParseError as exc:
        raise ValidationError(f"pattern {word!r}: {exc}") from exc
    if pattern.is_free_end():
        raise ValidationError("the bare free end is degenerate: every tree contains it")
    return pattern


def _at_least(minimum: int, args, *flags: str) -> None:
    for flag in flags:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is not None and value < minimum:
            raise ValidationError(f"{flag} must be at least {minimum}, got {value}")


def _writable(args, *flags: str) -> None:
    """Open each named output file for appending, which creates it but keeps
    what it holds, so a path that cannot be written fails before any work."""
    for flag in flags:
        path = getattr(args, flag.lstrip("-"))
        if path is not None:
            try:
                open(path, "a").close()
            except OSError as exc:
                raise ValidationError(f"{flag} {path!r}: {exc.strerror}") from exc


def _workers(args) -> int:
    _at_least(1, args, "--workers")
    return args.workers if args.workers is not None else default_workers()


def _progress(label: str):
    state = {"last": 0.0}

    def cb(done: int, total: int) -> None:
        now = time.monotonic()
        if now - state["last"] >= 5.0 or done == total:
            state["last"] = now
            print(f"{label}: {done}/{total}", file=sys.stderr)

    return cb


def cmd_classify(args) -> int:
    workers = _workers(args)
    if args.leaves >= 10 and not args.deep:
        raise ValidationError(
            f"n={args.leaves} sweeps Catalan({args.leaves - 1}) patterns and runs for a long "
            "time; pass --deep to confirm"
        )
    _writable(args, "--out", "--csv")
    report = classify(
        args.leaves, args.order, args.mode,
        workers=workers,
        mirror_reduce=not args.verify_mirror,
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


def cmd_stabilize(args) -> int:
    workers = _workers(args)
    try:
        orders = sorted({int(k) for k in args.orders.split(",")})
    except ValueError:
        raise ValidationError(
            f"--orders must be comma-separated integers, got {args.orders!r}") from None
    scan = stabilization_scan(args.leaves, orders, args.mode, workers=workers)
    for k in orders:
        print(f"n={args.leaves} mode={args.mode} K={k} classes={scan[k]}")
    # a verdict compares the two largest orders, so one order gives none
    if len(orders) >= 2:
        if scan[orders[-2]] == scan[orders[-1]]:
            print("stable over the last two orders", file=sys.stderr)
        else:
            print("still moving at the top order; extend the ladder", file=sys.stderr)
    return 0


def cmd_inspect(args) -> int:
    alphabet = Alphabet.binary()
    pattern = _single_pattern(args.pattern, alphabet)
    print(f"pattern        {emit_polish(pattern)}")
    print(f"height         {height(pattern)}")
    print(f"mirror         {emit_polish(mirror(pattern))}")
    print(f"solver states  {occurrence_state_count(pattern)}")

    av = av_series(pattern, 25)
    print(f"avoidance      {av.serialize()}")
    print(f"arity series   {to_operad_series(av).serialize()}")
    print(f"occurrences    {en_series(pattern, 13).serialize()}")

    system = cs_system(build_grammar(alphabet, PatternSet(alphabet, (pattern,))))
    print(f"grammar system {system.n_unknowns} unknowns")
    ok = True
    try:
        poly = eliminate(system, max_unknowns=18, deadline_seconds=30)
    except EliminationError as exc:
        print(f"annihilator    skipped ({exc})")
    else:
        _, target = solve_truncated(system, 60, include_unknowns=False)
        ok = annihilates(poly, target, 60)
        tag = "verified" if ok else "NOT ANNIHILATING (bug)"
        print(f"annihilator    {poly.pretty()}   [{tag}]")
    print()
    print(enumeration_system(pattern).to_text())
    return 0 if ok else 2


def cmd_series(args) -> int:
    alphabet = Alphabet.binary()
    pattern = _single_pattern(args.pattern, alphabet)
    if args.kind == "av":
        out = av_series(pattern, args.order)
    elif args.kind == "en":
        out = en_series(pattern, args.order)
    else:
        out = to_operad_series(av_series(pattern, 2 * args.order))
    print(out.serialize())
    return 0


def cmd_grammar(args) -> int:
    _at_least(1, args, "--max-nonterminals")
    alphabet = Alphabet.from_config(args.alphabet)
    patterns = _patterns(args, alphabet)
    g = build_grammar(alphabet, patterns, max_nonterminals=args.max_nonterminals)
    sys.stdout.write(g.to_json() + "\n" if args.format == "json" else g.to_bnf())
    return 0


def cmd_system(args) -> int:
    _at_least(1, args, "--max-nonterminals")
    alphabet = Alphabet.from_config(args.alphabet)
    patterns = _patterns(args, alphabet)
    if args.method == "cs":
        system = cs_system(build_grammar(alphabet, patterns, max_nonterminals=args.max_nonterminals))
    elif args.method == "stamp":
        system = stamp_system(alphabet, patterns)
    else:
        if len(patterns.patterns) != 1:
            raise ValidationError("--method en takes exactly one pattern")
        system = enumeration_system(patterns.patterns[0])
    sys.stdout.write(system.to_text())
    return 0


def cmd_eliminate(args) -> int:
    _at_least(1, args, "--max-unknowns", "--check-order", "--max-nonterminals")
    if args.deadline is not None and not 0 < args.deadline < math.inf:
        raise ValidationError(f"--deadline must be a finite number of seconds above 0, "
                              f"got {args.deadline}")
    alphabet = Alphabet.from_config(args.alphabet)
    patterns = _patterns(args, alphabet)
    system = cs_system(build_grammar(alphabet, patterns, max_nonterminals=args.max_nonterminals))
    poly = eliminate(system, max_unknowns=args.max_unknowns, deadline_seconds=args.deadline)
    print(poly.pretty())
    _, target = solve_truncated(system, args.check_order, include_unknowns=False)
    ok = annihilates(poly, target, args.check_order)
    print(f"annihilation self-check at order {args.check_order}: {'pass' if ok else 'FAIL'}",
          file=sys.stderr)
    return 0 if ok else 2


def cmd_verify(args) -> int:
    _at_least(1, args, "--max-len")
    # the oracle, mirror and systems suites take patterns with 2..max_leaves leaves
    _at_least(2 if args.suite in ("all", "oracle", "mirror", "systems") else 0, args, "--max-leaves")
    _at_least(0, args, "--max-nodes")

    def pattern_set() -> tuple[Alphabet, PatternSet]:
        alphabet = Alphabet.from_config(args.alphabet)
        if args.patterns or args.patterns_file:
            return alphabet, _patterns(args, alphabet)
        return alphabet, PatternSet.from_words(["mmxxx"], alphabet)

    suites = {
        "oracle": lambda: verify.oracle_suite(args.max_leaves, args.max_nodes),
        "grammar": lambda: verify.grammar_suite(*pattern_set(), args.max_len),
        "partition": lambda: verify.partition_suite(*pattern_set(), args.max_nodes),
        "mirror": lambda: verify.mirror_suite(args.max_leaves, args.max_nodes),
        "eq12": lambda: verify.eq12_suite(100),
        "systems": lambda: verify.systems_suite(args.max_leaves),
    }
    failures: list[str] = []
    for name in (list(suites) if args.suite == "all" else [args.suite]):
        result = suites[name]()
        print(result.line())
        failures += [f"{name}: {f}" for f in result.failures]
    for f in failures[:20]:
        print(f"FAIL {f}", file=sys.stderr)
    return 2 if failures else 0


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
        p.add_argument("--max-nonterminals", type=int, default=100000,
                       help="grammar budget: at most this many nonterminals and its "
                            "square in candidate rule bodies; system --method stamp uses "
                            f"its own budget, systems.MAX_STAMPS ({MAX_STAMPS}), and "
                            "--method en none")

    p = sub.add_parser("classify", help="group n-leaf binary patterns by truncated series")
    p.add_argument("-n", "--leaves", type=int, required=True)
    p.add_argument("-K", "--order", type=int, default=257)
    p.add_argument("--mode", choices=("av", "en"), default="av")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: TREEWILF_WORKERS, else the CPU count)")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--csv", default=None,
                   help=f"append a CSV summary row here (columns {CSV_HEADER})")
    p.add_argument("--verify-mirror", action="store_true",
                   help="solve every pattern instead of one per mirror pair, and check "
                        "that each mirror pair shares a class")
    p.add_argument("--deep", action="store_true",
                   help="allow the hours-scale sweeps (10 or more leaves)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("stabilize",
                       help="class count per truncation order, one solve per pattern")
    p.add_argument("-n", "--leaves", type=int, required=True)
    p.add_argument("--orders", default="16,32,64,128,257",
                   help="comma-separated truncation orders")
    p.add_argument("--mode", choices=("av", "en"), default="av")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: TREEWILF_WORKERS, else the CPU count)")
    p.set_defaults(func=cmd_stabilize)

    p = sub.add_parser("inspect",
                       help="series, systems and annihilating polynomial of one binary pattern")
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=cmd_inspect)

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
    p.set_defaults(func=cmd_system)

    p = sub.add_parser("eliminate", help="eliminate unknowns to one polynomial in (x, G)")
    add_common(p)
    p.add_argument("--max-unknowns", type=int, default=12)
    p.add_argument("--deadline", type=float, default=None,
                   help="seconds before giving up (finite, above 0)")
    p.add_argument("--check-order", type=int, default=60)
    p.set_defaults(func=cmd_eliminate)

    p = sub.add_parser("verify", help="run oracle-backed verification suites")
    p.add_argument("--suite", default="all",
                   choices=("all", "oracle", "grammar", "partition", "mirror", "eq12", "systems"))
    p.add_argument("--max-leaves", type=int, default=4,
                   help="largest pattern of the oracle, mirror and systems suites; "
                        "the systems suite stops at 5 leaves")
    p.add_argument("--max-nodes", type=int, default=7,
                   help="largest tree (internal nodes) of the oracle and partition suites; "
                        "the mirror suite stops at 5 nodes")
    p.add_argument("--max-len", type=int, default=15)
    p.add_argument("--patterns", "--pattern", default="")
    p.add_argument("--patterns-file", default=None)
    p.add_argument("--alphabet", default="m:2,x:0",
                   help="alphabet of the grammar and partition suites; the others are binary")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for types, code, prefix in EXIT_CODES:
            if isinstance(exc, types):
                # a MemoryError usually carries no message; name it instead
                print(f"{prefix}: {str(exc) or type(exc).__name__}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
