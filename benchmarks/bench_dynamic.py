#!/usr/bin/env python
"""Benchmark the dynamic-data stack: incremental join maintenance vs
recompute-on-demand, and the re-seed policy sweep.

Two experiments, both on accounted I/O (the cost model the paper uses,
not wall-clock):

* **Crossover** — after a churn batch of ``k`` ops per side, a consumer
  can read the incrementally-maintained join for free, or recompute the
  join from scratch. Incremental maintenance pays per-op probe I/O, the
  recompute arm pays one full tree-matching join; sweeping ``k`` locates
  the measured crossover batch size. Both arms must produce identical
  pair sets — the sweep doubles as an end-to-end differential check.

* **Policy sweep** — a long churn-and-join horizon (drifting partner,
  three joins per round, periodic maintenance points) run under each
  re-seed policy. The interesting question is whether any *selective*
  policy beats both do-nothing (``never``) and paranoid
  (``always-rebuild``) baselines on total accounted I/O.

Usage::

    PYTHONPATH=src python benchmarks/bench_dynamic.py           # full
    PYTHONPATH=src python benchmarks/bench_dynamic.py --quick --check
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.config import SystemConfig
from repro.dynamic import (
    AlwaysRebuild,
    DynamicScenario,
    NeverReseed,
    StalenessThreshold,
)

CONFIG = SystemConfig(page_size=256, buffer_pages=32)

#: Dense cluster coverage so the two sides genuinely intersect at bench
#: scale (the paper's defaults give near-disjoint clusters below a few
#: thousand objects and the join would be vacuous).
DENSE = {"cover_quotient": 1.0, "data_side_bound": 0.03,
         "objects_per_cluster": 40}

# ------------------------------------------------------------------ #
# Experiment 1: incremental vs recompute crossover
# ------------------------------------------------------------------ #

CROSS_SEED = 5
CROSS_N = 600
BATCH_SIZES = (5, 10, 20, 40, 80, 160)
BATCH_SIZES_QUICK = (10, 40, 160)


def _cross_scenario() -> DynamicScenario:
    return DynamicScenario(
        CONFIG, n_r=CROSS_N, n_s=CROSS_N, seed=CROSS_SEED,
        dataset_params=DENSE, policy=NeverReseed(),
    )


def crossover_experiment(quick: bool) -> dict:
    rows = []
    for k in (BATCH_SIZES_QUICK if quick else BATCH_SIZES):
        # Incremental arm: the maintained result is ready the moment
        # the batch has been applied.
        inc = _cross_scenario()
        base = inc.workspace.metrics.summary().total_io
        inc.step(s_ops=k, r_ops=k)
        inc_io = inc.workspace.metrics.summary().total_io - base
        inc_pairs = inc.incremental.pairs()

        # Recompute arm: identical churn (same seeds, same batches)
        # with maintenance unhooked, then one from-scratch resident
        # join over the post-churn trees.
        rec = _cross_scenario()
        rec.stream_s.detach(rec.incremental.on_s_op)
        rec.stream_r.detach(rec.incremental.on_r_op)
        base = rec.workspace.metrics.summary().total_io
        rec.step(s_ops=k, r_ops=k)
        rec_pairs = sorted(
            rec.workspace.match_resident(rec.tree_s, rec.partner)
        )
        rec_io = rec.workspace.metrics.summary().total_io - base

        rows.append({
            "batch_ops_per_side": k,
            "incremental_io": round(inc_io, 1),
            "recompute_io": round(rec_io, 1),
            "winner": "incremental" if inc_io < rec_io else "recompute",
            "pairs": len(inc_pairs),
            "identical": inc_pairs == rec_pairs,
        })
    inc_wins = [r["batch_ops_per_side"] for r in rows
                if r["winner"] == "incremental"]
    rec_wins = [r["batch_ops_per_side"] for r in rows
                if r["winner"] == "recompute"]
    return {
        "objects_per_side": CROSS_N,
        "seed": CROSS_SEED,
        "rows": rows,
        "crossover_between": (
            [max(inc_wins), min(rec_wins)] if inc_wins and rec_wins
            else None
        ),
    }


# ------------------------------------------------------------------ #
# Experiment 2: re-seed policy sweep
# ------------------------------------------------------------------ #

POLICY_SEED = 3
POLICY_N = 800
ROUNDS = 60
ROUNDS_QUICK = 36
JOINS_PER_ROUND = 3
MAINTAIN_EVERY = 6
#: Heavy partner drift plus light retained-side churn: the regime where
#: seed staleness actually costs match I/O, so re-seeding can pay.
R_STREAM = {"speed": 0.06, "move_fraction": 0.95}
S_STREAM = {"insert_fraction": 0.5}

POLICIES = (
    ("never", NeverReseed),
    ("always-rebuild", AlwaysRebuild),
    ("staleness-threshold", lambda: StalenessThreshold(
        rebuild_at=0.8, skew_at=1e9)),
)


def _policy_horizon(policy, rounds: int) -> dict:
    scenario = DynamicScenario(
        CONFIG, n_r=POLICY_N, n_s=POLICY_N, seed=POLICY_SEED,
        dataset_params=DENSE, r_params=R_STREAM, s_params=S_STREAM,
        policy=policy,
    )
    ws = scenario.workspace
    base = ws.metrics.summary().total_io
    joins = 0
    for i in range(1, rounds + 1):
        scenario.step(s_ops=4, r_ops=40)
        for _ in range(JOINS_PER_ROUND):
            scenario.run_join()
            joins += 1
        if i % MAINTAIN_EVERY == 0:
            scenario.maintain()
    # Exactness survives the whole horizon (re-seeds included).
    exact = (scenario.incremental.pairs() == scenario.reference_pairs())
    return {
        "total_io": round(ws.metrics.summary().total_io - base, 1),
        "joins": joins,
        "rebuilds": scenario.manager.rebuilds,
        "exact": exact,
    }


def policy_sweep(quick: bool) -> dict:
    rounds = ROUNDS_QUICK if quick else ROUNDS
    results = {name: _policy_horizon(factory(), rounds)
               for name, factory in POLICIES}
    winner = min(results, key=lambda name: results[name]["total_io"])
    return {
        "objects_per_side": POLICY_N,
        "seed": POLICY_SEED,
        "rounds": rounds,
        "joins_per_round": JOINS_PER_ROUND,
        "maintain_every": MAINTAIN_EVERY,
        "policies": results,
        "winner": winner,
    }


# ------------------------------------------------------------------ #
# Driver
# ------------------------------------------------------------------ #


def check(out) -> list[str]:
    """The acceptance gates for --check (and the committed full run)."""
    problems = []
    rows = out["crossover"]["rows"]
    if not all(r["identical"] for r in rows):
        problems.append("incremental and recompute arms disagree")
    if not all(r["pairs"] > 0 for r in rows):
        problems.append("vacuous crossover workload (zero join pairs)")
    if out["crossover"]["crossover_between"] is None:
        problems.append("no measured crossover (one arm always won)")
    sweep = out["policies"]
    winner = sweep["winner"]
    if winner in ("never", "always-rebuild"):
        problems.append(
            f"no selective policy beat both baselines (winner: {winner})"
        )
    if not all(p["exact"] for p in sweep["policies"].values()):
        problems.append("a policy horizon ended with an inexact join")
    if sweep["policies"]["always-rebuild"]["rebuilds"] == 0:
        problems.append("always-rebuild never rebuilt (no partner churn?)")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced sweep (CI perf smoke)")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero unless the dynamic gates hold")
    parser.add_argument("--out", default=None,
                        help="output path (default: BENCH_dynamic.json at "
                             "the repo root; --quick runs don't write)")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    print(f"crossover sweep ({'quick' if args.quick else 'full'})...")
    crossover = crossover_experiment(args.quick)
    for row in crossover["rows"]:
        print(f"  k={row['batch_ops_per_side']:4d}  "
              f"incremental={row['incremental_io']:8.1f}  "
              f"recompute={row['recompute_io']:8.1f}  -> {row['winner']}")
    print(f"  crossover between {crossover['crossover_between']}")

    print("policy sweep...")
    policies = policy_sweep(args.quick)
    for name, r in policies["policies"].items():
        print(f"  {name:20s} total_io={r['total_io']:9.1f} "
              f"rebuilds={r['rebuilds']}")
    print(f"  winner: {policies['winner']}")

    out = {
        "config": {"page_size": CONFIG.page_size,
                   "buffer_pages": CONFIG.buffer_pages},
        "dataset_params": DENSE,
        "crossover": crossover,
        "policies": policies,
        "duration_s": round(time.perf_counter() - t0, 1),
    }

    if args.out or not args.quick:
        target = pathlib.Path(
            args.out
            or pathlib.Path(__file__).resolve().parent.parent
            / "BENCH_dynamic.json"
        )
        target.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
        print(f"wrote {target}")

    if args.check:
        problems = check(out)
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}")
            return 1
        print("PASS: crossover measured, arms identical, a selective "
              "policy beat both baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
