"""Classification sweep: group all n-leaf binary patterns by truncated series.

The class key is the byte-stable canonical serialization of the truncated
avoidance (or occurrence-marked) series.  Keys are bucketed by hash and
compared in full within a bucket, so a hash collision can never merge two
distinct classes.  Counts are lower bounds for the true class counts; the
one shipped upgrade to an exact count is the eight-leaf divisibility
certificate from the elim module.

Per-pattern work is embarrassingly parallel; results are merged in canonical
pattern order, so reports are byte-identical for any worker count.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zlib
from dataclasses import dataclass, field
from multiprocessing import Pool

from .elim import collapse_certificate
from .series import av_series, en_series
from .trees import (
    Alphabet,
    emit_polish,
    enumerate_binary_patterns,
    mirror,
    parse_polish,
)

_BINARY = Alphabet.binary()


@dataclass
class ClassEntry:
    digest: str
    members: list[str]
    series_prefix: list[str]


@dataclass
class ClassificationReport:
    n_leaves: int
    mode: str
    order: int
    class_count: int
    classes: list[ClassEntry]
    pattern_count: int
    exactness: str
    certificate: str | None
    mirror_reduced: bool
    timing_seconds: float = field(compare=False)
    workers: int = field(compare=False)

    def to_json_dict(self, include_timing: bool = True) -> dict:
        data = {
            "n_leaves": self.n_leaves,
            "mode": self.mode,
            "order": self.order,
            "class_count": self.class_count,
            "pattern_count": self.pattern_count,
            "exactness": self.exactness,
            "certificate": self.certificate,
            "mirror_reduced": self.mirror_reduced,
            "classes": [
                {
                    "key": c.digest,
                    "members": c.members,
                    "series_prefix": c.series_prefix,
                }
                for c in self.classes
            ],
        }
        if include_timing:
            data["timing"] = {"seconds": self.timing_seconds, "workers": self.workers}
        return data

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_json_dict(include_timing), sort_keys=True, indent=2)

    def canonical_bytes(self) -> bytes:
        """Deterministic report bytes (timing metadata excluded)."""
        return json.dumps(self.to_json_dict(include_timing=False),
                          sort_keys=True, separators=(",", ":")).encode()

    def summary_line(self) -> str:
        return (f"n={self.n_leaves} mode={self.mode} K={self.order} "
                f"classes={self.class_count}")

    def csv_row(self) -> str:
        return (f"{self.n_leaves},{self.order},{self.mode},{self.class_count},"
                f"{self.pattern_count},{self.timing_seconds:.3f}")

    def partition(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(c.members) for c in self.classes)


CSV_HEADER = "n,K,mode,class_count,pattern_count,seconds"


def _sweep_worker(args) -> tuple[str, list[tuple[int, str, bytes]]]:
    """Solve one representative pattern and emit (order, digest, blob) per
    requested truncation order.  Restriction of a solved series to a lower
    order is exact, so one solve serves the whole order list."""
    word, orders, mode = args
    tree = parse_polish(word, _BINARY)
    top = max(orders)
    series = en_series(tree, top) if mode == "en" else av_series(tree, top)
    out = []
    for k in sorted(orders, reverse=True):
        series = series.restrict(k)
        key = series.serialize().encode()
        out.append((k, hashlib.sha256(key).hexdigest(), zlib.compress(key, 6)))
    return word, out


def default_workers() -> int:
    env = os.environ.get("TREEWILF_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"TREEWILF_WORKERS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _mirror_word(word: str) -> str:
    return emit_polish(mirror(parse_polish(word, _BINARY)))


def _run_jobs(jobs: list[tuple], workers: int, progress=None) -> dict:
    results: dict[str, list] = {}
    if workers <= 1 or len(jobs) <= 1:
        for i, job in enumerate(jobs):
            word, payload = _sweep_worker(job)
            results[word] = payload
            if progress:
                progress(i + 1, len(jobs))
        return results
    chunk = max(1, len(jobs) // (workers * 8))
    with Pool(workers) as pool:
        for i, (word, payload) in enumerate(
            pool.imap_unordered(_sweep_worker, jobs, chunksize=chunk)
        ):
            results[word] = payload
            if progress:
                progress(i + 1, len(jobs))
    return results


def _group_classes(pattern_words: list[str], rep_of: dict[str, str],
                   keyed: dict[str, dict[int, tuple[str, bytes]]],
                   order: int) -> list[ClassEntry]:
    classes: list[ClassEntry] = []
    blob_of_class: list[bytes] = []
    by_digest: dict[str, list[int]] = {}
    for word in pattern_words:
        digest, blob = keyed[rep_of[word]][order]
        hit = None
        for cid in by_digest.get(digest, ()):
            if blob_of_class[cid] == blob:
                hit = cid
                break
        if hit is None:
            hit = len(classes)
            classes.append(ClassEntry(digest, [], _series_prefix(blob)))
            blob_of_class.append(blob)
            by_digest.setdefault(digest, []).append(hit)
        classes[hit].members.append(word)
    return classes


def _series_prefix(blob: bytes, n: int = 8) -> list[str]:
    text = zlib.decompress(blob).decode()
    return text.split(";")[2: 2 + n]


def classify(n_leaves: int, order: int = 257, mode: str = "av", *,
             workers: int = 1, mirror_reduce: bool = True,
             verify_mirror: bool = False, progress=None) -> ClassificationReport:
    """Group all n-leaf binary patterns by their truncated series.

    mode "av" keys on the avoidance series, "en" on the occurrence-marked
    series.  Mirror-image patterns always share a class (reflection preserves
    vertex and occurrence counts), so by default only one member of each
    mirror pair is solved; verify_mirror solves both and checks agreement.
    """
    if n_leaves < 2:
        raise ValueError("patterns need at least 2 leaves")
    if mode not in ("av", "en"):
        raise ValueError(f"unknown mode {mode!r}")
    if order < 2 * n_leaves:
        raise ValueError(f"order {order} cannot separate {n_leaves}-leaf patterns; "
                         f"need at least {2 * n_leaves}")
    start = time.monotonic()
    patterns = [emit_polish(t) for t in enumerate_binary_patterns(n_leaves)]
    if mirror_reduce and not verify_mirror:
        rep_of = {w: min(w, _mirror_word(w)) for w in patterns}
    else:
        rep_of = {w: w for w in patterns}
    jobs = [(w, [order], mode) for w in sorted(set(rep_of.values()))]
    results = _run_jobs(jobs, workers, progress)
    keyed = {w: dict((k, (d, b)) for k, d, b in payload)
             for w, payload in results.items()}
    if verify_mirror:
        for w in patterns:
            mw = _mirror_word(w)
            if keyed[w][order][1] != keyed[mw][order][1]:
                raise AssertionError(f"mirror pair {w} / {mw} disagree; this is a bug")
    classes = _group_classes(patterns, rep_of, keyed, order)

    exactness = "lower_bound"
    certificate = None
    if mode == "av" and n_leaves == 8 and order >= 100:
        if collapse_certificate(100):
            exactness = "exact"
            certificate = (
                "eight-leaf collapse certificate: the two candidate annihilating "
                "polynomials divide one another's solution set (order-100 check)"
            )
    return ClassificationReport(
        n_leaves=n_leaves,
        mode=mode,
        order=order,
        class_count=len(classes),
        classes=classes,
        pattern_count=len(patterns),
        exactness=exactness,
        certificate=certificate,
        mirror_reduced=mirror_reduce,
        timing_seconds=time.monotonic() - start,
        workers=workers,
    )


def stabilization_scan(n_leaves: int, orders: list[int], mode: str = "av", *,
                       workers: int = 1, progress=None) -> dict[int, int]:
    """Class counts per truncation order.  Each representative is solved once
    at the largest order and restricted downward, which is exact."""
    if not orders or sorted(orders) != list(orders):
        raise ValueError("orders must be a nondecreasing nonempty list")
    patterns = [emit_polish(t) for t in enumerate_binary_patterns(n_leaves)]
    rep_of = {w: min(w, _mirror_word(w)) for w in patterns}
    jobs = [(w, list(orders), mode) for w in sorted(set(rep_of.values()))]
    results = _run_jobs(jobs, workers, progress)
    keyed = {w: dict((k, (d, b)) for k, d, b in payload)
             for w, payload in results.items()}
    return {
        k: len(_group_classes(patterns, rep_of, keyed, k))
        for k in orders
    }


def cross_check_en_vs_av(n_leaves: int, order: int = 257, *,
                         workers: int = 1, progress=None) -> bool:
    """True iff the avoidance-series partition and the occurrence-series
    partition of the n-leaf patterns coincide at this truncation order."""
    av = classify(n_leaves, order, "av", workers=workers, progress=progress)
    en = classify(n_leaves, order, "en", workers=workers, progress=progress)
    return av.partition() == en.partition()
