#!/usr/bin/env python
"""Benchmark the vectorized geometry kernels against the scalar path.

Two tiers, both written into ``BENCH_kernels.json`` next to the repo
root:

* **micro** — leaf-sweep throughput: the scalar plane sweep
  (:func:`repro.geometry.sweep.sweep_pairs`) versus the batch kernel
  (:func:`repro.kernels.sweep_pairs_batch`) on pre-built numpy column
  arrays, at 1k/10k/100k rectangles per side. Pre-built arrays are the
  honest comparison: the columns of a real join are built once and
  reused (build time is reported separately). Every timed pair of runs
  is also checked for bit-identical pairs and ``xy_tests``.
* **e2e** — the paper's Table-2 workload at quarter scale (the
  ``bench_parallel.py`` configuration) through all six facade methods,
  on the two execution paths, interleaved: **batch** (the default fast
  path — construction kernels, batch traversal plans, construction
  replay) and **scalar** (``REPRO_KERNELS=0``, the reference). Pair
  lists and CostSummary fields are asserted identical across both
  paths before any time is reported, and every run carries the
  engine's per-phase wall clock
  (:attr:`~repro.join.result.JoinResult.phase_walls`), so the output
  shows per phase how much wall the fast path closed
  (``scalar_s - batch_s``). Two legs: a **warm** repeat joins in a
  workspace that an unmeasured join of the same method has filled (the
  resident steady state, where construction replay and the warm plan
  cache hit), a **cold** repeat joins in a fresh workspace (the paper's
  regime, where no cache can hit). A method alternates single warm and
  single cold repeats, each warm one in a workspace built and filled
  for it, so drift of the host, even within one method's minutes of
  repeats, moves its two legs alike instead of opening a gap between
  them.

Flags::

    --quick   smaller sizes, the five tree and z-order methods (NAIVE
              left out), divisor-10 scale (CI smoke)
    --check   exit non-zero unless the sweep kernel beats the scalar
              sweep (micro), the warm end-to-end leg clears the
              per-method floors (STJ >= 2.0x and BFJ >= 3.0x full
              scale; STJ >= 1.5x quick), and no measured method's fast
              path is slower end to end than its scalar path on
              either leg

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--quick] [--check]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import sys
import time

from repro.config import SystemConfig
from repro.geometry.sweep import sweep_pairs
from repro.join import spatial_join
from repro.kernels import RectArray, sweep_pairs_batch
from repro.metrics.counters import CpuCounters
from repro.workload import ClusteredConfig, generate_clustered, generate_uniform
from repro.workspace import Workspace

SEED = 20240131
#: Table 2 at the quarter profile's divisor (4), as in bench_parallel.
N_R = 25_000
N_S = 10_000
QUICK_N_R = 10_000
QUICK_N_S = 4_000
COVER_QUOTIENT = 0.2
CONFIG = SystemConfig(page_size=512, buffer_pages=280)

METHODS = ("BFJ", "RTJ", "STJ", "NAIVE", "ZJOIN", "2STJ")
QUICK_METHODS = ("BFJ", "RTJ", "STJ", "ZJOIN", "2STJ")
MICRO_SIZES = (1_000, 10_000, 100_000)
QUICK_MICRO_SIZES = (1_000, 10_000)

#: Acceptance gates (ISSUE 5 micro, ISSUE 10 e2e): numpy batch sweep at
#: 10k-per-side must be >= 3x scalar; the batch-first e2e path must be
#: >= 2x (STJ) and >= 3x (BFJ) over the scalar path at quarter Table-2
#: scale. The quick (CI smoke) profile shrinks the workload 2.5x
#: further, where fixed per-run overheads compress the achievable gain,
#: so its floor is STJ >= 1.5x and BFJ is ungated. Every method measured
#: must also be at least as fast on the fast path as on the scalar path
#: (speedup >= 1.0), at either scale, on both the warm and the cold leg.
#: The floors apply to the warm leg only.
MICRO_TARGET = 3.0
E2E_TARGETS = {"STJ": 2.0, "BFJ": 3.0}
QUICK_E2E_TARGETS = {"STJ": 1.5}

#: (label, REPRO_KERNELS) for the two e2e modes.
E2E_MODES = (("batch", "1"), ("scalar", "0"))

SUMMARY_FIELDS = (
    "match_read", "match_write", "construct_read", "construct_write",
    "bbox_tests", "xy_tests",
)


def timed(fn, repeats: int = 3):
    """Best-of-N wall time: the minimum is the least noisy estimator.
    Garbage left by earlier work is collected before each timed run,
    outside it."""
    best, result = None, None
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


# --------------------------------------------------------------------- #
# Micro: leaf sweeps
# --------------------------------------------------------------------- #


def micro_inputs(n: int):
    """Two uniform rectangle sets sized so pair count stays ~linear."""
    side = (2.0 / n) ** 0.5
    a = [r for r, _ in generate_uniform(n, side_bound=side, seed=SEED)]
    b = [r for r, _ in generate_uniform(n, side_bound=side, seed=SEED + 1)]
    return a, b


def bench_micro_size(n: int) -> dict:
    rects_a, rects_b = micro_inputs(n)

    def scalar():
        counters = CpuCounters()
        return sweep_pairs(rects_a, rects_b, counters=counters), counters

    (scalar_pairs, scalar_counters), scalar_wall = timed(scalar)

    # Index-level reference for order verification (identity-element
    # sweeps cannot disambiguate duplicate rectangles).
    ref = sweep_pairs(
        list(enumerate(rects_a)), list(enumerate(rects_b)),
        rect_of=lambda t: t[1],
    )
    ref_idx = [(ia, ib) for (ia, _), (ib, _) in ref]

    t0 = time.perf_counter()
    arr_a = RectArray.from_rects(rects_a)
    arr_b = RectArray.from_rects(rects_b)
    build_s = time.perf_counter() - t0

    def batch():
        counters = CpuCounters()
        return sweep_pairs_batch(arr_a, arr_b, counters=counters), counters

    (batch_pairs, batch_counters), batch_wall = timed(batch)
    if batch_pairs != ref_idx:
        raise SystemExit(f"micro n={n}: pair order differs")
    if batch_counters.xy_tests != scalar_counters.xy_tests:
        raise SystemExit(
            f"micro n={n}: xy_tests "
            f"{batch_counters.xy_tests} != {scalar_counters.xy_tests}"
        )
    speedup = scalar_wall / batch_wall
    print(
        f"micro n={n:>7,} scalar={scalar_wall * 1e3:8.1f}ms"
        f"  kernel={batch_wall * 1e3:8.1f}ms  (x{speedup:5.2f})"
    )
    return {
        "rects_per_side": n,
        "pairs": len(scalar_pairs),
        "scalar_wall_s": round(scalar_wall, 6),
        "build_s": round(build_s, 6),
        "sweep_wall_s": round(batch_wall, 6),
        "speedup": round(speedup, 3),
    }


# --------------------------------------------------------------------- #
# End-to-end: Table 2, quarter scale
# --------------------------------------------------------------------- #


def make_inputs(n_r: int, n_s: int):
    d_r = generate_clustered(ClusteredConfig(
        n_r, cover_quotient=COVER_QUOTIENT, objects_per_cluster=20,
        seed=SEED,
    ))
    d_s = generate_clustered(ClusteredConfig(
        n_s, cover_quotient=COVER_QUOTIENT, objects_per_cluster=20,
        seed=SEED + 1, oid_start=10**6,
    ))
    return d_r, d_s


def build_env(d_r, d_s):
    ws = Workspace(CONFIG)
    tree_r = ws.install_rtree(d_r)
    file_s = ws.install_datafile(d_s)
    return ws, tree_r, file_s


def fixed(env):
    """An ``env_for`` that hands back the one workspace ``env``."""
    return lambda: env


def run_modes(env_for, method: str) -> dict:
    """One repeat: each mode once, interleaved, as ``{label: (wall,
    (pairs, summary, phase walls))}``. ``env_for()`` gives each run's
    ``(ws, tree_r, file_s)`` and is called outside the timed region."""
    def run(ws, tree_r, file_s):
        ws.start_measurement()
        result = spatial_join(
            file_s, tree_r, ws.buffer, ws.config, ws.metrics, method=method,
        )
        return result.pairs, ws.metrics.summary(), dict(result.phase_walls)

    runs = {}
    for label, kernels in E2E_MODES:
        os.environ["REPRO_KERNELS"] = kernels
        env = env_for()
        # Collect the previous run's garbage now, not inside this
        # run's timed region.
        gc.collect()
        t0 = time.perf_counter()
        out = run(*env)
        runs[label] = (time.perf_counter() - t0, out)
    os.environ["REPRO_KERNELS"] = "1"
    return runs


def summarize(method: str, leg: str, repeats: list) -> dict:
    """Best of the repeats per mode (the minimum is the least noisy
    estimator; the best run's phase walls travel with it), after
    checking that every repeat's two modes agree."""
    walls: dict[str, float] = {}
    phases: dict[str, dict] = {}
    for runs in repeats:
        (pairs_batch, summary_batch, _) = runs["batch"][1]
        (pairs_scalar, summary_scalar, _) = runs["scalar"][1]
        if pairs_batch != pairs_scalar:
            raise SystemExit(
                f"e2e {leg} {method}: batch pairs differ from scalar")
        for field in SUMMARY_FIELDS:
            if getattr(summary_batch, field) != getattr(summary_scalar, field):
                raise SystemExit(
                    f"e2e {leg} {method}: CostSummary.{field} differs "
                    f"(batch {getattr(summary_batch, field)} vs "
                    f"scalar {getattr(summary_scalar, field)})"
                )
        for label, (elapsed, out) in runs.items():
            if label not in walls or elapsed < walls[label]:
                walls[label] = elapsed
                phases[label] = out[2]

    speedup = walls["scalar"] / walls["batch"]
    print(
        f"e2e {leg:4s} {method:8s} scalar={walls['scalar']:8.3f}s  "
        f"batch={walls['batch']:8.3f}s (x{speedup:5.2f})  "
        f"pairs={len(pairs_batch)}"
    )
    # Per-phase breakdown: the wall the fast path closed, phase by phase.
    phase_out: dict[str, dict] = {}
    for name in phases["scalar"]:
        row = {
            label: round(phases[label].get(name, 0.0), 6)
            for label, _ in E2E_MODES
        }
        row["closed_s"] = round(row["scalar"] - row["batch"], 6)
        phase_out[name] = row
        print(
            f"      {name:10s} scalar={row['scalar']:8.3f}s  "
            f"batch={row['batch']:8.3f}s"
        )
    return {
        "pairs": len(pairs_batch),
        "wall_batch_s": round(walls["batch"], 6),
        "wall_scalar_s": round(walls["scalar"], 6),
        "speedup": round(speedup, 3),
        "phases": phase_out,
    }


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #


def run(quick: bool) -> dict:
    sizes = QUICK_MICRO_SIZES if quick else MICRO_SIZES
    methods = QUICK_METHODS if quick else METHODS
    n_r, n_s = (QUICK_N_R, QUICK_N_S) if quick else (N_R, N_S)
    repeats = 3

    out: dict = {
        "quick": quick,
        "micro": {},
        "e2e": {
            "workload": {
                "table": 2,
                "seed": SEED,
                "d_r": n_r,
                "d_s": n_s,
                "cover_quotient": COVER_QUOTIENT,
                "page_size": CONFIG.page_size,
                "buffer_pages": CONFIG.buffer_pages,
            },
            "algorithms": {},
            "algorithms_cold": {},
        },
    }
    for n in sizes:
        out["micro"][str(n)] = bench_micro_size(n)

    d_r, d_s = make_inputs(n_r, n_s)
    for method in methods:
        legs: dict[str, list] = {"warm": [], "cold": []}
        for _ in range(repeats):
            # Warm repeat: a workspace of its own, the resident steady
            # state, so construction replay and warm plans count. One
            # unmeasured join first fills its caches and warms the
            # interpreter and allocator.
            shared = build_env(d_r, d_s)
            ws, tree_r, file_s = shared
            ws.start_measurement()
            spatial_join(file_s, tree_r, ws.buffer, ws.config, ws.metrics,
                         method=method)
            legs["warm"].append(run_modes(fixed(shared), method))
            # Release the warm workspace before the cold repeat: a heap
            # it keeps alive is scanned by every collection the cold
            # runs trigger.
            del shared, ws, tree_r, file_s
            gc.collect()
            # Cold repeat: every run in a fresh workspace, so nothing it
            # joins has been seen before and no warm state can hit.
            legs["cold"].append(
                run_modes(lambda: build_env(d_r, d_s), method))
        out["e2e"]["algorithms"][method] = summarize(
            method, "warm", legs["warm"])
        out["e2e"]["algorithms_cold"][method] = summarize(
            method, "cold", legs["cold"])
    return out


def verdicts(out: dict) -> dict:
    """Acceptance gates, evaluated on whatever tier actually ran."""
    targets = QUICK_E2E_TARGETS if out["quick"] else E2E_TARGETS
    micro_10k = out["micro"].get("10000", {}).get("speedup")
    kernel_never_slower = all(
        size["speedup"] >= 1.0 for size in out["micro"].values()
    )
    slower = {
        leg: sorted(
            method for method, row in out["e2e"][key].items()
            if row["speedup"] < 1.0
        )
        for leg, key in (("warm", "algorithms"), ("cold", "algorithms_cold"))
    }
    result = {
        "micro_10k_speedup": micro_10k,
        "micro_10k_target": MICRO_TARGET,
        "micro_10k_ok": micro_10k is None or micro_10k >= MICRO_TARGET,
        "kernel_never_slower": kernel_never_slower,
        "e2e_never_slower": not slower["warm"],
        "e2e_slower_methods": slower["warm"],
        "e2e_cold_never_slower": not slower["cold"],
        "e2e_cold_slower_methods": slower["cold"],
    }
    for method, target in targets.items():
        speedup = out["e2e"]["algorithms"].get(method, {}).get("speedup")
        key = method.lower()
        result[f"e2e_{key}_speedup"] = speedup
        result[f"e2e_{key}_target"] = target
        result[f"e2e_{key}_ok"] = speedup is None or speedup >= target
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke profile: fewer sizes and methods")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when the kernel path loses")
    args = parser.parse_args()

    saved = os.environ.get("REPRO_KERNELS")
    try:
        out = run(args.quick)
    finally:
        if saved is None:
            os.environ.pop("REPRO_KERNELS", None)
        else:
            os.environ["REPRO_KERNELS"] = saved

    out["verdicts"] = verdicts(out)
    target = (
        pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_kernels.json"
    )
    target.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target}")

    v = out["verdicts"]
    ok = all(value for key, value in v.items() if key.endswith("_ok")) and (
        v["kernel_never_slower"] and v["e2e_never_slower"]
        and v["e2e_cold_never_slower"]
    )
    e2e_bits = ", ".join(
        f"e2e {key[4:-3].upper()}=x{v[f'{key[:-3]}_speedup']}"
        f" (target x{v[f'{key[:-3]}_target']})"
        for key in sorted(v)
        if key.startswith("e2e_") and key.endswith("_ok")
    )
    slower = ", ".join(v["e2e_slower_methods"]) or "none"
    slower_cold = ", ".join(v["e2e_cold_slower_methods"]) or "none"
    print(
        ("PASS" if ok else "MISS")
        + f": micro10k=x{v['micro_10k_speedup']}"
        f" (target x{MICRO_TARGET}), " + e2e_bits
        + f", fast path slower than scalar: warm {slower}, cold {slower_cold}"
    )
    if args.check and not ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
