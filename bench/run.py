#!/usr/bin/env python3
"""The treewilf benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload sweep-av --seed 1 --seconds 25 --trace 0

Workloads (README.md says why each one is there):

* sweep-av  classify(n, 257, "av") for n = 8 and 9; one operation is one
            mirror representative solved (217 + 715 per pass).
* sweep-en  classify(8, 157, "en"); 217 operations per pass.
* certify   eliminate + annihilation self-check on the systems listed in
            certify_list.json, plus collapse_certificate(100); one operation
            is one system (or the certificate).

A run sets up (imports the program and builds the inputs), repeats whole
passes of its workload until --seconds of wall time have gone by, then checks
every output outside the timed part.  With --trace 0 it reports the
end-to-end metrics.  With --trace 1 it runs one pass, then replays each
operation of a pass twice, untraced and with a span around every call into a
layer, and reports the per-layer metrics and the tracing overhead; --seconds
does not apply there.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it records the environment.  Spans and results go to bench-runs/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import zlib
from importlib.util import find_spec
from functools import partial
from inspect import signature
from pathlib import Path
from time import perf_counter, process_time

import checks
from common import CERTIFY_LIST, GRAMMAR_BUDGET, OUT_DIR, ROOT, SRC, use_checkout_source
from tracing import Tracer

WORKLOADS = ("sweep-av", "sweep-en", "certify")
SETUP_PROBES = 7
ELIM_CHECK_ORDER = 30   # annihilation self-check inside a certify operation
HIGH_CHECK_ORDER = 61   # the stricter annihilation check outside the timed part
ORACLE_INTERNAL = 7     # brute-force trees with up to 7 internal nodes (15 vertices)
EN_SAMPLE = 3           # occurrence-marked series re-solved and checked per run

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "trees.enumerate_s": "s",
    "systems.build_s": "s",
    "systems.unknowns": "count",
    "systems.monomials": "count",
    "series.solve_s": "s",
    "series.solve_p50_ms": "ms",
    "series.coeff_bits_max": "bits",
    "series.y_degree_max": "count",
    "series.nonzero_coeffs": "count",
    "series.serialize_s": "s",
    "series.key_bytes": "bytes",
    "wilf.tail_s": "s",
    "grammar.build_s": "s",
    "elim.eliminate_s": "s",
    "elim.eliminate_p50_ms": "ms",
    "elim.annihilates_s": "s",
    "elim.certificate_s": "s",
    "elim.poly_terms": "count",
    "elim.g_degree_sum": "count",
    "trace.overhead_pct": "%",
}
OFF = Tracer(enabled=False)

# The program is imported inside functions: the source path is set in main,
# and the first import belongs to the measured set-up.


# -- set-up --------------------------------------------------------------------


def build_inputs(workload: str, seed: int) -> dict:
    """Import the program, the CLI included as in a user's process, and build
    the workload's inputs.  The seed orders the sweeps of a sweep-av pass,
    picks the sample of re-solved sweep-en series, and shuffles every certify
    pass."""
    import treewilf.cli  # noqa: F401
    from treewilf.trees import Alphabet, PatternSet, parse_polish

    rng = random.Random(seed)
    if workload == "sweep-av":
        sweeps = [(8, 257, "av"), (9, 257, "av")]
        rng.shuffle(sweeps)
        return {"sweeps": sweeps, "rng": rng}
    if workload == "sweep-en":
        return {"sweeps": [(8, 157, "en")], "rng": rng}
    binary = Alphabet.binary()
    words = json.loads(CERTIFY_LIST.read_text())
    ops = [("automaton", w, parse_polish(w, binary)) for w in words["automaton"]]
    ops += [("grammar", w, PatternSet.from_words([w], binary)) for w in words["grammar"]]
    ops.append(("certificate", "collapse_certificate(100)", None))
    return {"ops": ops, "rng": rng}


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes, each importing the program and
    building the inputs once."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


# -- operations ----------------------------------------------------------------


def sweep_pass(sweeps, tracer: Tracer):
    """One classify call per sweep; an operation is one representative solved,
    timed from one progress callback to the next."""
    from treewilf.wilf import classify

    latencies, failed, reports, tails = [], 0, [], []
    for n, order, mode in sweeps:
        stamps = [perf_counter()]
        report = None
        try:
            with tracer.span("wilf.classify", op=True):
                report = classify(n, order, mode, workers=1,
                                  progress=lambda done, total: stamps.append(perf_counter()))
        except Exception as exc:
            print(f"bench: classify({n}, {order}, {mode!r}) raised {exc!r}", file=sys.stderr)
            failed += checks.mirror_classes(n) - (len(stamps) - 1)
        tails.append(perf_counter() - stamps[-1])
        latencies += [b - a for a, b in zip(stamps, stamps[1:])]
        reports.append((n, order, mode, report))
    return latencies, failed, reports, tails


def count_series(tracer: Tracer, series) -> None:
    items = series.nonzero_items()
    tracer.peak("series.coeff_bits_max", max((c.bit_length() for _, c in items), default=0))
    tracer.peak("series.y_degree_max", max((e[1] for e, _ in items if len(e) > 1), default=0))
    tracer.count("series.nonzero_coeffs", len(items))


def count_system(tracer: Tracer, system) -> None:
    tracer.count("systems.unknowns", system.n_unknowns)
    tracer.count("systems.monomials", sum(len(eq) for eq in system.equations))


def certificate_op(tracer: Tracer) -> bool:
    from treewilf.elim import collapse_certificate

    with tracer.span("elim.certificate"):
        return collapse_certificate(100)


def certify_op(kind: str, arg, tracer: Tracer):
    """Eliminate one system and check the polynomial against the solved series,
    or run the shipped certificate.  Returns (polynomial or None, check passed)."""
    from treewilf.elim import annihilates, eliminate
    from treewilf.grammar import build_grammar
    from treewilf.series import solve_truncated
    from treewilf.systems import cs_system, enumeration_system

    if kind == "certificate":
        return None, certificate_op(tracer)
    if kind == "grammar":
        with tracer.span("grammar.build"):
            grammar = build_grammar(arg.alphabet, arg, max_nonterminals=GRAMMAR_BUDGET)
        with tracer.span("systems.build"):
            system = cs_system(grammar)
    else:
        with tracer.span("systems.build"):
            system = enumeration_system(arg, reduced=True, marked=False)
    count_system(tracer, system)
    with tracer.span("elim.eliminate"):
        poly = eliminate(system)
    with tracer.span("series.solve"):
        _, target = solve_truncated(system, ELIM_CHECK_ORDER, include_unknowns=False)
    with tracer.span("elim.annihilates"):
        ok = annihilates(poly, target, ELIM_CHECK_ORDER)
    count_series(tracer, target)
    tracer.count("elim.poly_terms", len(poly.terms))
    tracer.count("elim.g_degree_sum", poly.g_degree)
    return poly, ok


def certify_pass(ops, rng: random.Random, tracer: Tracer):
    order = list(ops)
    rng.shuffle(order)
    latencies, failed, results = [], 0, []
    for kind, word, arg in order:
        start = perf_counter()
        try:
            poly, ok = certify_op(kind, arg, tracer)
        except Exception as exc:
            print(f"bench: {kind} {word} raised {exc!r}", file=sys.stderr)
            failed += 1
            continue
        latencies.append(perf_counter() - start)
        results.append((kind, word, poly, ok))
    return latencies, failed, results


def replay_one(word: str, order: int, mode: str, tracer: Tracer) -> str:
    """One representative through the layers the sweep worker calls, as
    av_series / en_series and the worker chain them; returns the key digest."""
    from treewilf.series import TruncatedSeries, solve_truncated
    from treewilf.systems import enumeration_system
    from treewilf.trees import Alphabet, catalan, parse_polish

    with tracer.span("trees.parse"):
        tree = parse_polish(word, Alphabet.binary())
    leaves = (order + 1) // 2
    with tracer.span("systems.build"):
        system = enumeration_system(tree, reduced=True, marked=mode == "en", leaf_weights=True)
    count_system(tracer, system)
    # The packed bivariate ring takes a coefficient bound where the solver
    # accepts one; en_series passes Catalan(leaves - 1).
    extra = {}
    if mode == "en" and "coeff_bound" in signature(solve_truncated).parameters:
        extra["coeff_bound"] = catalan(leaves - 1)
    with tracer.span("series.solve"):
        _, solved = solve_truncated(system, leaves, include_unknowns=False, **extra)
    with tracer.span("series.serialize"):
        if mode == "en":
            series = TruncatedSeries.bivariate(
                ("x", "y"), order, {(2 * n - 1, k): c for (n, k), c in solved.nonzero_items()})
        else:
            dense = [0] * (order + 1)
            for n in range(1, leaves + 1):
                dense[2 * n - 1] = solved.coefficient(n)
            series = TruncatedSeries.univariate("x", order, dense)
        key = series.serialize().encode()
        digest = hashlib.sha256(key).hexdigest()
        zlib.compress(key, 6)
    tracer.count("series.key_bytes", len(key))
    count_series(tracer, solved)
    return digest


def sweep_replay_ops(sweeps, tracer: Tracer):
    """The work of a sweep pass as (key, operation) pairs: every representative
    layer by layer, and the certificate classify runs after an 8-leaf
    avoidance sweep at order >= 100."""
    from treewilf.trees import Alphabet, emit_polish, enumerate_binary_patterns, mirror, parse_polish

    binary = Alphabet.binary()
    ops = []
    for n, order, mode in sweeps:
        with tracer.span("trees.enumerate"):
            words = [emit_polish(t) for t in enumerate_binary_patterns(n)]
            reps = sorted({min(w, emit_polish(mirror(parse_polish(w, binary)))) for w in words})
        ops += [((n, order, mode, w), partial(replay_one, w, order, mode)) for w in reps]
        if mode == "av" and n == 8 and order >= 100:
            ops.append(((n, order, mode, None), certificate_op))
    return ops


def paired_pass(ops, tracer: Tracer):
    """Run every operation once untraced and once traced, alternating which
    goes first, so both sides see the same machine.  Returns the untraced and
    traced wall times, the traced results by key and the failed count."""
    wall = {False: 0.0, True: 0.0}
    results, failed = {}, 0
    for i, (key, op) in enumerate(ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            start = perf_counter()
            try:
                if traced:
                    with tracer.span("op", op=True):
                        results[key] = op(tracer)
                else:
                    op(OFF)
            except Exception as exc:
                print(f"bench: {key} raised {exc!r}", file=sys.stderr)
                failed += 1
            wall[traced] += perf_counter() - start
    return wall[False], wall[True], results, failed


# -- checks (outside the timed part) ---------------------------------------------


def check_sweeps(reports, rng: random.Random) -> list[str]:
    from treewilf.series import en_series
    from treewilf.trees import Alphabet, parse_polish
    from treewilf.wilf import classify

    fails = []
    en_reports = []
    for n, _, mode, report in reports:
        if report is None:
            continue
        fails += checks.class_count(report, checks.CLASS_COUNTS[n])
        fails += checks.partition(report, n)
        fails += checks.mirror_pairs(report)
        if mode == "av":
            fails += checks.av_prefixes(report, n)
        else:
            en_reports.append(report)
    if en_reports:
        first = en_reports[0]
        av = classify(first.n_leaves, first.order, "av", workers=1)
        for report in en_reports:
            fails += checks.same_partition(report, av)
        reps = sorted(w for c in first.classes for w in c.members if w <= checks.mirror_word(w))
        for w in rng.sample(reps, EN_SAMPLE):
            series = en_series(parse_polish(w, Alphabet.binary()), first.order)
            fails += checks.en_marginals(series, first.n_leaves)
            fails += checks.key_in_report(first, w, series)
    return fails


def check_replay(reports, digests) -> list[str]:
    """The replay computed the same keys as the sweep it stands in for."""
    fails = []
    for n, order, mode, report in reports:
        if report is None:
            continue
        class_of = {w: c.digest for c in report.classes for w in c.members}
        for (rn, ro, rm, w), digest in digests.items():
            if (rn, ro, rm) == (n, order, mode) and class_of.get(w) != digest:
                fails.append(f"replay key of {w} ({mode}, K={order}) differs from the sweep's")
    return fails


def fold_certify(kept: dict, results) -> list[str]:
    """Keep the first polynomial of each system, so memory stays flat however
    many passes run; return the failed self-checks and the polynomials that
    differ from the first pass's."""
    fails = []
    for kind, word, poly, ok in results:
        if not ok:
            fails.append(f"{kind} {word}: the in-operation check failed")
        if poly is None:
            continue
        if kept.setdefault((kind, word), poly).terms != poly.terms:
            fails.append(f"{kind} {word}: the polynomial changed between passes")
    return fails


def check_certify(kept: dict) -> list[str]:
    """Each kept polynomial against the series to a higher order than the
    operation checks, and against brute-force counts."""
    from treewilf.oracle import count_avoiders
    from treewilf.series import av_series
    from treewilf.trees import Alphabet, PatternSet, parse_polish

    fails = []
    binary = Alphabet.binary()
    brute_order = 2 * ORACLE_INTERNAL + 1
    for word in sorted({w for _, w in kept}):
        tree = parse_polish(word, binary)
        series = list(av_series(tree, HIGH_CHECK_ORDER).dense_coefficients())
        counts = count_avoiders(binary, PatternSet(binary, (tree,)), ORACLE_INTERNAL)
        brute = [counts.get(d, 0) for d in range(brute_order + 1)]
        fails += checks.oracle_counts(word, series, counts, brute_order)
        for kind in ("automaton", "grammar"):
            poly = kept.get((kind, word))
            if poly is not None:
                label = f"{kind} {word}"
                fails += checks.annihilation(label, poly.terms, series, HIGH_CHECK_ORDER)
                fails += checks.annihilation(label + " (brute force)", poly.terms, brute, brute_order)
    return fails


# -- the two kinds of run -----------------------------------------------------------


def attempted_per_pass(inputs) -> int:
    if "sweeps" in inputs:
        return sum(checks.mirror_classes(n) for n, _, _ in inputs["sweeps"])
    return len(inputs["ops"])


def timed_run(inputs, seconds: float, setup_s: float):
    latencies, failed, passes, reports, kept, fails = [], 0, 0, [], {}, []
    gc.collect()
    cpu0, wall0 = process_time(), perf_counter()
    while True:
        if "sweeps" in inputs:
            lat, f, out, _ = sweep_pass(inputs["sweeps"], OFF)
            reports += out
        else:
            lat, f, out = certify_pass(inputs["ops"], inputs["rng"], OFF)
            fails += fold_certify(kept, out)
        latencies += lat
        failed += f
        passes += 1
        if perf_counter() - wall0 >= seconds:
            break
    wall, cpu = perf_counter() - wall0, process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_start = perf_counter()
    if "sweeps" in inputs:
        fails += check_sweeps(reports, inputs["rng"])
    else:
        fails += check_certify(kept)
    check_s = perf_counter() - check_start
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": len(latencies) / wall,
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
        "cpu_s": cpu / passes,
        "peak_rss_mb": rss_mb,
    }
    detail = {"passes": passes, "operations": len(latencies), "timed_wall_s": wall,
              "check_s": check_s}
    return metrics, passes * attempted_per_pass(inputs), failed, fails, detail, None


def traced_run(inputs):
    """One pass of the workload (with a span per classify call), then every
    operation of a pass run untraced and traced in pairs."""
    tracer = Tracer()
    fails = []
    tail_s = 0.0
    if "sweeps" in inputs:
        sweeps = inputs["sweeps"]
        _, failed, reports, tails = sweep_pass(sweeps, tracer)
        tail_s = sum(tails)
        fails += check_sweeps(reports, inputs["rng"])
        ops = sweep_replay_ops(sweeps, tracer)
        off_s, on_s, results, f = paired_pass(ops, tracer)
        fails += check_replay(reports, {k: v for k, v in results.items() if k[3] is not None})
        fails += [f"replayed certificate failed for n={k[0]}"
                  for k, v in results.items() if k[3] is None and v is not True]
    else:
        ops, rng = inputs["ops"], inputs["rng"]
        _, failed, _ = certify_pass(ops, rng, OFF)  # warm-up: first calls pay one-off costs
        order = list(ops)
        rng.shuffle(order)
        ops = [((kind, word), partial(certify_op, kind, arg)) for kind, word, arg in order]
        off_s, on_s, results, f = paired_pass(ops, tracer)
        kept = {}
        fails += fold_certify(kept, [(kind, word, *out) for (kind, word), out in results.items()])
        fails += check_certify(kept)
    failed += f
    attempted = attempted_per_pass(inputs) + 2 * len(ops)
    counts = tracer.counts
    metrics = {
        "trees.enumerate_s": tracer.total("trees.enumerate"),
        "systems.build_s": tracer.total("systems.build"),
        "systems.unknowns": counts.get("systems.unknowns", 0),
        "systems.monomials": counts.get("systems.monomials", 0),
        "series.solve_s": tracer.total("series.solve"),
        "series.solve_p50_ms": tracer.median_ms("series.solve"),
        "series.coeff_bits_max": counts.get("series.coeff_bits_max", 0),
        "series.y_degree_max": counts.get("series.y_degree_max", 0),
        "series.nonzero_coeffs": counts.get("series.nonzero_coeffs", 0),
        "series.serialize_s": tracer.total("series.serialize"),
        "series.key_bytes": counts.get("series.key_bytes", 0),
        "wilf.tail_s": tail_s,
        "grammar.build_s": tracer.total("grammar.build"),
        "elim.eliminate_s": tracer.total("elim.eliminate"),
        "elim.eliminate_p50_ms": tracer.median_ms("elim.eliminate"),
        "elim.annihilates_s": tracer.total("elim.annihilates"),
        "elim.certificate_s": tracer.total("elim.certificate"),
        "elim.poly_terms": counts.get("elim.poly_terms", 0),
        "elim.g_degree_sum": counts.get("elim.g_degree_sum", 0),
        "trace.overhead_pct": 100 * (on_s - off_s) / off_s,
    }
    detail = {"untraced_replay_s": off_s, "traced_replay_s": on_s, "spans": len(tracer.spans)}
    return metrics, attempted, failed, fails, detail, tracer


# -- environment and output -----------------------------------------------------------


def git_revision() -> str | None:
    """HEAD of the checkout's own repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "treewilf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "os": " ".join(os.uname()[i] for i in (0, 2, 4)),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "bigint_backend": "gmpy2" if find_spec("gmpy2") else "int",
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_checkout_source()

    start = perf_counter()
    inputs = build_inputs(args.workload, args.seed)
    if args.setup_probe:
        print(perf_counter() - start)
        return 0
    if args.trace:
        metrics, attempted, failed, fails, detail, tracer = traced_run(inputs)
        units = PER_LAYER
    else:
        setup_s = measure_setup(args.workload, args.seed)
        metrics, attempted, failed, fails, detail, tracer = timed_run(inputs, args.seconds, setup_s)
        units = END_TO_END
    for msg in fails:
        print(f"bench: CHECK FAILED: {msg}", file=sys.stderr)
    env = environment(args)
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"env": env, "detail": detail, "failures": fails, **result}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl", env)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
