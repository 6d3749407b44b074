#!/usr/bin/env python
"""Benchmark partition-parallel speedup on the Table-2 workload.

A standalone script (not a pytest-benchmark module): it runs the paper's
central configuration (``||D_R||``=100K, ``||D_S||``=40K, quotient 0.2,
scaled by the quarter profile divisor to CI size) sequentially and
through the persistent worker pool for STJ and BFJ, and writes
``BENCH_parallel.json`` next to the repo root.

Two execution legs are timed per method:

* ``cold`` — first pooled join on a freshly published dataset: pays
  column publication, worker attachment, and per-tile substrate builds.
* ``warm`` — repeat pooled join on the same dataset: shared columns are
  cached, every tile substrate is warm, workers receive descriptors
  only. This is the regime the pool exists for (resident service,
  experiment sweeps).

Two speedup figures are reported per worker count:

* ``speedup`` — the *modeled* wall-clock speedup of a warm pooled join:
  per-tile join times measured warm (zero setup) are scheduled onto
  ``workers`` virtual cores with the greedy LPT rule, plus the
  parent-side overhead (dispatch, IPC, merge) actually measured on this
  host. This is the wall clock a ``workers``-core host sees, produced
  the same way the rest of the repo produces I/O costs: by simulation
  rather than by timing contended hardware. It is the headline number
  and the acceptance gate (>= 2x at 4 workers).
* ``speedup_elapsed`` — the raw elapsed ratio sequential/warm on *this*
  host. On a single-core CI container this isolates the overhead the
  pool removed (no forks, no pickled entries, no rebuilds) and must not
  regress below 1.0; on a multi-core host it converges toward
  ``speedup``.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py
    PYTHONPATH=src python benchmarks/bench_parallel.py --quick --check

``--quick`` shrinks the workload and sweep for CI smoke; ``--check``
exits nonzero when the gate fails (quick gate: warm elapsed speedup
>= 1.0 at 2 workers; full gate: modeled >= 2.0 and warm elapsed >= 1.0
at 4 workers). ``--quick`` alone never writes BENCH_parallel.json.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import pathlib
import sys
import time

from repro.config import SystemConfig
from repro.join import spatial_join
from repro.parallel import shutdown_default_pools
from repro.workload import ClusteredConfig, generate_clustered
from repro.workspace import Workspace

SEED = 20240131
#: Table 2 at the quarter profile's divisor (4): D_R=25K, D_S=10K. The
#: quarter scale keeps the per-tile join work comfortably above the
#: serial dispatch overhead, which a tiny (divisor-10) run does not.
N_R = 25_000
N_S = 10_000
COVER_QUOTIENT = 0.2
CONFIG = SystemConfig(page_size=512, buffer_pages=280)

METHODS = ("STJ1-2N", "BFJ")
WORKERS = (2, 4)
PARTITIONS = 16
TARGET_SPEEDUP = 2.0
GATE_WORKERS = 4

#: ``--quick`` profile: small enough for a smoke job, large enough that
#: per-tile work still dominates the dispatch overhead being gated.
QUICK_N_R = 12_000
QUICK_N_S = 4_800
QUICK_WORKERS = (2,)
QUICK_GATE_WORKERS = 2


def lpt_makespan(durations: list[float], workers: int) -> float:
    """Longest-processing-time-first schedule onto ``workers`` cores."""
    if not durations:
        return 0.0
    loads = [0.0] * min(workers, len(durations))
    heapq.heapify(loads)
    for d in sorted(durations, reverse=True):
        heapq.heapreplace(loads, loads[0] + d)
    return max(loads)


def build_env(n_r: int, n_s: int):
    ws = Workspace(CONFIG)
    d_r = generate_clustered(ClusteredConfig(
        n_r, cover_quotient=COVER_QUOTIENT, objects_per_cluster=20,
        seed=SEED,
    ))
    d_s = generate_clustered(ClusteredConfig(
        n_s, cover_quotient=COVER_QUOTIENT, objects_per_cluster=20,
        seed=SEED + 1, oid_start=10**6,
    ))
    tree_r = ws.install_rtree(d_r)
    file_s = ws.install_datafile(d_s)
    return ws, tree_r, file_s


def timed(fn, repeats: int = 2):
    """Best-of-N wall time: the minimum is the least noisy estimator."""
    best, result = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def bench_method(ws, tree_r, file_s, method: str, workers_sweep) -> dict:
    def join(**kw):
        ws.start_measurement()
        return spatial_join(
            file_s, tree_r, ws.buffer, ws.config, ws.metrics, method=method,
            **kw,
        )

    sequential, seq_wall = timed(join, repeats=3)

    # Uncontended per-tile join walls from an in-process partitioned
    # probe: PartitionStats keeps substrate setup separate from join
    # wall, so ``wall_s`` alone is each tile's *warm* cost. Tile walls
    # measured inside a multi-worker run would be inflated by scheduler
    # waits whenever workers outnumber cores, which is exactly the CI
    # situation, so they never feed the model.
    probe = join(workers=1, partitions=PARTITIONS)
    if probe.pair_set() != sequential.pair_set():
        raise SystemExit(f"{method}: parallel answer differs from sequential")
    tile_walls = [s.wall_s for s in probe.partitions]

    entry: dict = {
        "pairs": len(sequential.pair_set()),
        "seq_wall_s": round(seq_wall, 6),
        "partitions": PARTITIONS,
        "tile_wall_s": [round(w, 6) for w in tile_walls],
        "workers": {},
    }
    for workers in workers_sweep:
        pooled_kw = dict(
            workers=workers, partitions=PARTITIONS, parallel_guard=False,
        )
        # Fresh dataset version per worker count would defeat the warm
        # leg, so cold is timed once (first join after the sweep's tree
        # is published for this shape) and warm is best-of-2 after it.
        t0 = time.perf_counter()
        cold = join(**pooled_kw)
        cold_s = time.perf_counter() - t0
        if not cold.parallel_decision.pooled:
            raise SystemExit(
                f"{method} workers={workers}: expected the pooled route, "
                f"got {cold.parallel_decision!r}"
            )
        if cold.pair_set() != sequential.pair_set():
            raise SystemExit(
                f"{method} workers={workers}: answer differs from sequential"
            )
        warm_result, warm_s = timed(lambda: join(**pooled_kw))
        if warm_result.pair_set() != sequential.pair_set():
            raise SystemExit(
                f"{method} workers={workers}: warm answer differs"
            )

        # On a one-core host the warm elapsed time is the serialization
        # of all worker CPU plus the parent's dispatch/IPC/merge work,
        # so subtracting the uncontended tile CPU isolates the overhead
        # a multi-core host would still pay.
        overhead_s = max(0.0, warm_s - sum(tile_walls))
        modeled = overhead_s + lpt_makespan(tile_walls, workers)

        entry["workers"][str(workers)] = {
            "cold_s": round(cold_s, 6),
            "warm_s": round(warm_s, 6),
            "overhead_s": round(overhead_s, 6),
            "modeled_wall_s": round(modeled, 6),
            "speedup": round(seq_wall / modeled, 3),
            "speedup_elapsed": round(seq_wall / warm_s, 3),
        }
        print(
            f"{method:8s} workers={workers}  seq={seq_wall * 1e3:7.1f}ms  "
            f"cold={cold_s * 1e3:7.1f}ms  warm={warm_s * 1e3:7.1f}ms "
            f"(x{seq_wall / warm_s:4.2f})  "
            f"modeled={modeled * 1e3:7.1f}ms (x{seq_wall / modeled:4.2f})"
        )
    return entry


def run(quick: bool) -> dict:
    n_r, n_s = (QUICK_N_R, QUICK_N_S) if quick else (N_R, N_S)
    workers_sweep = QUICK_WORKERS if quick else WORKERS
    ws, tree_r, file_s = build_env(n_r, n_s)
    # Warm caches and code paths once so the first measured method does
    # not absorb interpreter and allocator warm-up.
    ws.start_measurement()
    spatial_join(
        file_s, tree_r, ws.buffer, ws.config, ws.metrics, method="BFJ",
        workers=1, partitions=PARTITIONS,
    )
    out: dict = {
        "workload": {
            "table": 2,
            "seed": SEED,
            "d_r": n_r,
            "d_s": n_s,
            "cover_quotient": COVER_QUOTIENT,
            "page_size": CONFIG.page_size,
            "buffer_pages": CONFIG.buffer_pages,
            "partitions": PARTITIONS,
            "quick": quick,
            "host_cores": os.cpu_count(),
        },
        "algorithms": {},
    }
    for method in METHODS:
        out["algorithms"][method] = bench_method(
            ws, tree_r, file_s, method, workers_sweep,
        )
    shutdown_default_pools()
    return out


def gate(out: dict, quick: bool) -> tuple[bool, str]:
    """(passed, verdict line) for the profile's acceptance gate."""
    if quick:
        cell = str(QUICK_GATE_WORKERS)
        ratios = {
            m: e["workers"][cell]["speedup_elapsed"]
            for m, e in out["algorithms"].items()
        }
        ok = all(r >= 1.0 for r in ratios.values())
        detail = ", ".join(f"{m}=x{r:.2f}" for m, r in ratios.items())
        return ok, (
            f"warm elapsed speedup at {cell} workers {detail} "
            f"(gate >= x1.00)"
        )
    cell = str(GATE_WORKERS)
    ok = all(
        e["workers"][cell]["speedup"] >= TARGET_SPEEDUP
        and e["workers"][cell]["speedup_elapsed"] >= 1.0
        for e in out["algorithms"].values()
    )
    detail = ", ".join(
        f"{m}=x{e['workers'][cell]['speedup']:.2f}"
        f"/x{e['workers'][cell]['speedup_elapsed']:.2f}(elapsed)"
        for m, e in out["algorithms"].items()
    )
    return ok, (
        f"modeled/elapsed speedup at {cell} workers {detail} "
        f"(gate modeled >= x{TARGET_SPEEDUP:.1f}, elapsed >= x1.00)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small workload + 2-worker sweep for CI smoke; "
             "does not write BENCH_parallel.json",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit nonzero when the profile's speedup gate fails",
    )
    args = parser.parse_args(argv)

    out = run(args.quick)
    ok, verdict = gate(out, args.quick)
    out["meets_target"] = ok
    if not args.quick:
        target = (
            pathlib.Path(__file__).resolve().parent.parent
            / "BENCH_parallel.json"
        )
        target.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
        print(f"wrote {target}")
    print(("PASS: " if ok else "MISS: ") + verdict)
    if args.check:
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
