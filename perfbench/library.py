"""The two library workloads: ``cold-join`` and ``warm-resident``.

Both join a derived data set D_S against the paper's pre-existing R-tree
T_R at 1/10 of Table 2's scale: a clustered T_R of 10,000 objects (665
pages of 512 bytes) under a 280-page LRU buffer, cover quotient 0.2, and
4,000-object clustered D_S sets. Joins go through the public facade
``repro.spatial_join`` in the default execution mode, one at a time, each
after ``Workspace.start_measurement()`` (cold buffer, zeroed counters), as
in the paper's protocol.

T_R is the pre-existing index, so it is one fixed data set; the workload
seed derives every D_S. (Varying T_R with the seed moves BFJ's I/O by
~11% between seeds, which would swamp the regression bounds.)

Every answer is checked against a brute-force oracle before it counts.
"""

from __future__ import annotations

import time

import repro
from repro.config import SystemConfig
from repro.workload import ClusteredConfig, generate_clustered
from repro.workload.seeding import derive_seed
from repro.workspace import Workspace

from common import BruteForce, Budget, Pass, buffer_stats, fingerprint

CONFIG = SystemConfig(page_size=512, buffer_pages=280)
N_R = 10_000
N_S = 4_000
OID_S = 10**6
T_R_SEED = 20240131
COLD_METHODS = ("STJ1-2N", "RTJ", "BFJ", "2STJ", "ZJOIN")
#: (class label, facade method, parallel keyword arguments).
WARM_OPS = (
    ("STJ1-2N", "STJ1-2N", {}),
    ("RTJ", "RTJ", {}),
    ("BFJ", "BFJ", {}),
    ("pooled-STJ", "STJ1-2N", {"workers": 2, "partitions": 8}),
)
#: Warm rounds per epoch; an epoch starts from a fresh workspace, which
#: bounds the simulated disk's growth and gives setup_s several samples.
WARM_ROUNDS = 16


def _clustered(n: int, seed: int, oid_start: int = 0):
    return generate_clustered(ClusteredConfig(
        n, cover_quotient=0.2, objects_per_cluster=20, seed=seed,
        oid_start=oid_start,
    ))


def _install_tr(entries_r):
    ws = Workspace(CONFIG)
    return ws, ws.install_rtree(entries_r)


def _join(ws, tree_r, file_s, method: str, kwargs: dict):
    ws.start_measurement()
    before = buffer_stats(ws.buffer)
    started = time.perf_counter()
    result = repro.spatial_join(
        file_s, tree_r, ws.buffer, ws.config, ws.metrics, method=method,
        **kwargs,
    )
    return result, time.perf_counter() - started, before


def cold_join(seed: int, budget: Budget, probe) -> Pass:
    """Each round: rebuild T_R (setup), derive a fresh D_S, join it once
    with each method, check every pair set against the oracle."""
    out = Pass()
    entries_r = _clustered(N_R, T_R_SEED)
    oracle = BruteForce(entries_r)
    op = 0
    while budget.more(len(out.plan)):
        with probe.paused():
            started = time.perf_counter()
            ws, tree_r = _install_tr(entries_r)
            out.setup.append(time.perf_counter() - started)
        d_s = _clustered(N_S, derive_seed(seed, "D_S", len(out.plan)), OID_S)
        expected = oracle.join(d_s)
        file_s = ws.install_datafile(d_s, name="D_S")
        for method in COLD_METHODS:
            probe.set_request(op)
            result, elapsed, before = _join(ws, tree_r, file_s, method, {})
            out.record_join(method, elapsed, result, ws, before)
            out.fingerprints.append(
                fingerprint(method, result.pairs, ws.metrics.summary()))
            if sorted(result.pairs) != expected:
                out.fail(f"round {len(out.plan)} {method}: pairs differ "
                         f"from the oracle ({len(result.pairs)} vs "
                         f"{len(expected)})")
            op += 1
        out.plan.append(1)
    return out


def warm_resident(seed: int, budget: Budget, probe) -> Pass:
    """Each epoch: a fresh workspace, T_R and D_S; the first join of each
    method fills the caches (setup); then up to ``WARM_ROUNDS`` rounds
    re-join the same D_S, each answer and CostSummary equal to the first."""
    out = Pass()
    entries_r = _clustered(N_R, T_R_SEED)
    oracle = BruteForce(entries_r)
    op = 0
    epoch = 0
    while budget.more(epoch):
        d_s = _clustered(N_S, derive_seed(seed, "D_S", epoch), OID_S)
        expected = oracle.join(d_s)
        first = {}
        with probe.paused():
            started = time.perf_counter()
            ws, tree_r = _install_tr(entries_r)
            file_s = ws.install_datafile(d_s, name="D_S")
            for label, method, kwargs in WARM_OPS:
                result, _, _ = _join(ws, tree_r, file_s, method, kwargs)
                first[label] = (result.pairs, ws.metrics.summary())
            out.setup.append(time.perf_counter() - started)
        for label, (pairs, summary) in first.items():
            out.fingerprints.append(fingerprint(label, pairs, summary))
            if sorted(pairs) != expected:
                out.fail(f"epoch {epoch} first {label}: pairs differ from "
                         f"the oracle")
        rounds = 0
        while (rounds < (budget.plan[epoch] if budget.replaying
                         else WARM_ROUNDS)
               and (budget.replaying or rounds == 0
                    or budget.remaining() > 0)):
            for label, method, kwargs in WARM_OPS:
                probe.set_request(op)
                result, elapsed, before = _join(
                    ws, tree_r, file_s, method, kwargs)
                out.record_join(label, elapsed, result, ws, before)
                summary = ws.metrics.summary()
                out.fingerprints.append(
                    fingerprint(label, result.pairs, summary))
                if (result.pairs, summary) != first[label]:
                    out.fail(f"epoch {epoch} round {rounds} {label}: pairs "
                             f"or CostSummary differ from the first join")
                op += 1
            rounds += 1
        out.plan.append(rounds)
        epoch += 1
    return out
