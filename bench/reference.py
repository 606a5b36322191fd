#!/usr/bin/env python3
"""Reference figures that no benchmark workload measures.

    python3 bench/reference.py

* classify(9, 257, "av") with workers = nproc: wall time, CPU time of the
  pool's worker processes, and pool overhead = wall - worker CPU / workers.
* classify(8, 257, "en") with workers = nproc: the occurrence-marked sweep at
  the order of the paper's table, which costs several times the sweep-en
  workload's K=157 pass.

Each line printed is one JSON object.  The workloads themselves run one
worker, so these figures are kept apart from them.
"""

from __future__ import annotations

import json
import os
import resource
from time import perf_counter

from common import use_checkout_source


def pooled(n: int, order: int, mode: str) -> dict:
    from treewilf.wilf import classify

    workers = os.cpu_count() or 1
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    report = classify(n, order, mode, workers=workers)
    wall = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    child_cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {
        "call": f"classify({n}, {order}, {mode!r}, workers={workers})",
        "classes": report.class_count,
        "wall_s": round(wall, 2),
        "worker_cpu_s": round(child_cpu, 2),
        "pool_overhead_s": round(wall - child_cpu / workers, 2),
    }


def main() -> None:
    use_checkout_source()
    for args in ((9, 257, "av"), (8, 257, "en")):
        print(json.dumps(pooled(*args)), flush=True)


if __name__ == "__main__":
    main()
