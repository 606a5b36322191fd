"""Classification sweep: group all n-leaf binary patterns by truncated series.

The class key is the byte-stable canonical serialization of the truncated
avoidance (or occurrence-marked) series.  Classes are numbered by a dict on
the exact key bytes, with no hash buckets, so a hash collision can never
merge two distinct classes; the sha256 in the report only names a class.
Counts are lower bounds for the true class counts; the one shipped upgrade
to an exact count is the eight-leaf divisibility certificate from the elim
module.

Per-pattern work is embarrassingly parallel; results are merged in canonical
pattern order, so reports are byte-identical for any worker count.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

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


def _sweep_worker(args) -> tuple[str, list[bytes]]:
    """Solve one representative pattern and return its class key for each
    requested truncation order.  Restriction of a solved series to a lower
    order is exact, so one solve serves the whole order list."""
    word, orders, mode = args
    tree = parse_polish(word, _BINARY)
    top = max(orders)
    try:
        series = en_series(tree, top) if mode == "en" else av_series(tree, top)
    except Exception as exc:
        kind = RuntimeError
        if isinstance(exc, (OverflowError, MemoryError, RecursionError)):
            kind = type(exc)  # a resource error keeps its class, so the CLI exits 3 on it
        raise kind(f"solving pattern {word} ({mode}, K={top}) failed: {exc!r}") from exc
    return word, [series.restrict(k).serialize().encode() for k in orders]


def default_workers() -> int:
    env = os.environ.get("TREEWILF_WORKERS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"TREEWILF_WORKERS must be an integer, got {env!r}") from None
        if workers < 1:
            raise ValueError(f"TREEWILF_WORKERS must be at least 1, got {env!r}")
        return workers
    if hasattr(os, "sched_getaffinity"):
        # the CPUs this process may run on, fewer than the machine's under
        # taskset or a CPU-limited container
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mirror_word(word: str) -> str:
    return emit_polish(mirror(parse_polish(word, _BINARY)))


def _sweep(n_leaves: int, orders: list[int], mode: str, workers: int, progress,
           mirror_reduce: bool = True) -> tuple[dict[str, list[int]], list[list[bytes]]]:
    """Solve the n-leaf patterns and number their class keys per order.

    Returns each pattern's class number per order, in canonical pattern
    order, and per order the list of keys indexed by class number.  Numbers
    follow the order in which results arrive; with mirror_reduce off every
    pattern is solved and each mirror pair must get the same numbers."""
    if n_leaves < 2:
        raise ValueError("patterns need at least 2 leaves")
    if mode not in ("av", "en"):
        raise ValueError(f"unknown mode {mode!r}")
    if min(orders) < 1:
        raise ValueError(f"truncation orders must be >= 1, got {min(orders)}")
    patterns = [emit_polish(t) for t in enumerate_binary_patterns(n_leaves)]
    rep_of = {w: min(w, _mirror_word(w)) if mirror_reduce else w for w in patterns}
    jobs = [(w, orders, mode) for w in sorted(set(rep_of.values()))]
    numbering: list[dict[bytes, int]] = [{} for _ in orders]
    class_of: dict[str, list[int]] = {}
    with ExitStack() as stack:
        size = min(workers, len(jobs))
        if size <= 1:
            results = map(_sweep_worker, jobs)
        else:
            from multiprocessing import Pool
            pool = stack.enter_context(Pool(size))
            results = pool.imap_unordered(_sweep_worker, jobs,
                                          chunksize=max(1, len(jobs) // (size * 8)))
        for done, (word, keys) in enumerate(results, 1):
            class_of[word] = [ids.setdefault(key, len(ids)) for ids, key in zip(numbering, keys)]
            if progress:
                progress(done, len(jobs))
    if not mirror_reduce:
        for w in patterns:
            mw = _mirror_word(w)
            if class_of[w] != class_of[mw]:
                raise AssertionError(f"mirror pair {w} / {mw} disagree; this is a bug")
    return {w: class_of[rep_of[w]] for w in patterns}, [list(ids) for ids in numbering]


def classify(n_leaves: int, order: int = 257, mode: str = "av", *,
             workers: int = 1, mirror_reduce: bool = True,
             progress=None) -> ClassificationReport:
    """Group all n-leaf binary patterns by their truncated series.

    mode "av" keys on the avoidance series, "en" on the occurrence-marked
    series.  Mirror-image patterns always share a class (reflection preserves
    vertex and occurrence counts), so by default only one member of each
    mirror pair is solved.  With mirror_reduce=False every pattern is solved
    and an AssertionError is raised if a mirror pair lands in two classes.
    """
    if order < 2 * n_leaves:
        raise ValueError(f"order {order} cannot separate {n_leaves}-leaf patterns; "
                         f"need at least {2 * n_leaves}")
    start = time.monotonic()
    class_of, (keys,) = _sweep(n_leaves, [order], mode, workers, progress, mirror_reduce)
    entries: dict[int, ClassEntry] = {}
    for word, (cid,) in class_of.items():
        if cid not in entries:
            key = keys[cid]
            entries[cid] = ClassEntry(hashlib.sha256(key).hexdigest(), [],
                                      key.decode().split(";")[2:10])
        entries[cid].members.append(word)
    classes = list(entries.values())

    exactness = "lower_bound"
    certificate = None
    if mode == "av" and n_leaves == 8 and order >= 100:
        from .elim import collapse_certificate
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
        pattern_count=len(class_of),
        exactness=exactness,
        certificate=certificate,
        mirror_reduced=mirror_reduce,
        timing_seconds=time.monotonic() - start,
        workers=workers,
    )


def stabilization_scan(n_leaves: int, orders: list[int], mode: str = "av", *,
                       workers: int = 1) -> dict[int, int]:
    """Class counts per truncation order.  Each representative is solved once
    at the largest order and restricted downward, which is exact."""
    if not orders or sorted(orders) != list(orders):
        raise ValueError("orders must be a nondecreasing nonempty list")
    _, keys = _sweep(n_leaves, list(orders), mode, workers, None)
    return {k: len(ks) for k, ks in zip(orders, keys)}
