"""Tests for the persistent worker pool and its planner integration.

The differential suite proves parallel ≡ sequential end to end; this
module pins the pool-specific machinery: route selection
(``result.parallel_decision``), warm-substrate reuse with bit-identical
counters, worker-crash recovery, dataset staleness, start-method
resolution, and leak-free shutdown.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.config import SystemConfig
from repro.errors import ParallelError, StaleDatasetError, WorkerCrashError
from repro.join import spatial_join
from repro.parallel import (
    GridIndexDescriptor,
    SegmentDescriptor,
    TileJob,
    TileRunner,
    WorkerPool,
    get_default_pool,
    resolve_start_method,
    shutdown_default_pools,
)
from repro.workload import ClusteredConfig, generate_clustered
from repro.workspace import Workspace

CFG = SystemConfig(page_size=104, buffer_pages=64)


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_default_pools()


def _env(n_r: int = 420, n_s: int = 280, seed: int = 11):
    ws = Workspace(CFG)
    d_r = generate_clustered(ClusteredConfig(
        n_r, cover_quotient=2.0, objects_per_cluster=10, seed=seed,
    ))
    d_s = generate_clustered(ClusteredConfig(
        n_s, cover_quotient=2.0, objects_per_cluster=10, seed=seed + 1,
        oid_start=10**6,
    ))
    tree_r = ws.install_rtree(d_r)
    file_s = ws.install_datafile(d_s)
    ws.start_measurement()
    return ws, tree_r, file_s


def _join(ws, tree_r, file_s, **kw):
    return spatial_join(
        file_s, tree_r, ws.buffer, ws.config, ws.metrics, **kw,
    )


# --------------------------------------------------------------------- #
# Route selection
# --------------------------------------------------------------------- #


def test_pooled_route_parity_and_decision():
    ws, tree_r, file_s = _env()
    sequential = _join(ws, tree_r, file_s, method="STJ1-2N")
    ws.start_measurement()
    pooled = _join(
        ws, tree_r, file_s, method="STJ1-2N",
        workers=2, partitions=4, parallel_guard=False,
    )
    assert pooled.pair_set() == sequential.pair_set()
    decision = pooled.parallel_decision
    assert decision is not None
    assert decision.pooled
    assert decision.effective_workers == 2
    assert decision.reason == "persistent worker pool"


def test_guard_runs_tiny_join_in_process():
    ws, tree_r, file_s = _env(n_r=80, n_s=60, seed=21)
    sequential = _join(ws, tree_r, file_s, method="STJ1-2N")
    ws.start_measurement()
    guarded = _join(
        ws, tree_r, file_s, method="STJ1-2N",
        workers=2, partitions=4, parallel_guard=True,
    )
    assert guarded.pair_set() == sequential.pair_set()
    decision = guarded.parallel_decision
    assert decision.effective_workers == 1
    assert decision.requested_workers == 2
    assert not decision.pooled
    assert "guard" in decision.reason or "tile" in decision.reason
    # In-process fallback still produces full per-partition stats.
    assert guarded.partitions


def test_workers_one_never_pools():
    ws, tree_r, file_s = _env(seed=31)
    result = _join(ws, tree_r, file_s, method="BFJ", workers=1, partitions=4)
    decision = result.parallel_decision
    assert decision.effective_workers == 1
    assert not decision.pooled
    assert decision.reason == "single worker requested"


def test_unpublishable_dataset_runs_in_process():
    """Oids beyond int64 cannot go into the shared columns, so the join
    runs in-process — same answer — and the decision says why."""
    ws = Workspace(CFG)
    d_r = generate_clustered(ClusteredConfig(
        420, cover_quotient=2.0, objects_per_cluster=10, seed=41,
    ))
    d_s = generate_clustered(ClusteredConfig(
        280, cover_quotient=2.0, objects_per_cluster=10, seed=42,
        oid_start=2**63,
    ))
    tree_r = ws.install_rtree(d_r)
    file_s = ws.install_datafile(d_s)
    ws.start_measurement()
    sequential = _join(ws, tree_r, file_s, method="NAIVE")
    assert sequential.pairs
    ws.start_measurement()
    result = _join(
        ws, tree_r, file_s, method="NAIVE",
        workers=2, partitions=4, parallel_guard=False,
    )
    assert result.pair_set() == sequential.pair_set()
    decision = result.parallel_decision
    assert not decision.pooled
    assert decision.effective_workers == 1
    assert "int64" in decision.reason
    assert decision.reason.endswith("running in-process")


# --------------------------------------------------------------------- #
# Warm reuse
# --------------------------------------------------------------------- #


def test_warm_rerun_is_bit_identical():
    """A second pooled join on the same inputs hits the dataset cache
    and every worker's warm substrates — and must still report exactly
    the counters of the cold run."""
    ws, tree_r, file_s = _env(seed=51)
    kw = dict(method="STJ1-2N", workers=2, partitions=4,
              parallel_guard=False, parallel_seed=7)
    cold = _join(ws, tree_r, file_s, **kw)
    cold_summary = ws.metrics.summary()
    ws.start_measurement()
    warm = _join(ws, tree_r, file_s, **kw)
    warm_summary = ws.metrics.summary()

    assert warm.pairs == cold.pairs
    for field in ("match_read", "match_write", "construct_read",
                  "construct_write", "bbox_tests", "xy_tests"):
        assert getattr(warm_summary, field) == getattr(cold_summary, field)
    cold_stats = sorted(cold.partitions, key=lambda s: s.index)
    warm_stats = sorted(warm.partitions, key=lambda s: s.index)
    assert len(cold_stats) == len(warm_stats)
    for c, w in zip(cold_stats, warm_stats):
        assert c.snapshot == w.snapshot, f"partition {c.index} drifted"
        assert w.setup_s == 0.0, "warm substrate still reports setup time"


def test_tree_mutation_republishes_dataset():
    """Mutating the R-tree between joins must invalidate the cached
    published dataset (stamp change), not silently reuse stale
    columns."""
    from repro.geometry import Rect

    ws, tree_r, file_s = _env(seed=61)
    kw = dict(method="STJ1-2N", workers=2, partitions=4,
              parallel_guard=False)
    first = _join(ws, tree_r, file_s, **kw)
    assert first.parallel_decision.pooled

    tree_r.insert(Rect(0.41, 0.41, 0.44, 0.44), oid=999_999)
    ws.start_measurement()
    sequential = _join(ws, tree_r, file_s, method="STJ1-2N")
    ws.start_measurement()
    second = _join(ws, tree_r, file_s, **kw)
    assert second.pair_set() == sequential.pair_set()


# --------------------------------------------------------------------- #
# Failure model
# --------------------------------------------------------------------- #


def test_worker_crash_raises_typed_error_and_pool_recovers():
    ws, tree_r, file_s = _env(seed=71)
    kw = dict(method="STJ1-2N", workers=2, partitions=4,
              parallel_guard=False)
    sequential = _join(ws, tree_r, file_s, method="STJ1-2N")

    pool = get_default_pool(2)
    victim = pool._workers[0].process
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=30)

    ws.start_measurement()
    with pytest.raises(WorkerCrashError):
        _join(ws, tree_r, file_s, **kw)

    # The crash respawned a replacement: the *same* pool serves the
    # retry, and the answer is still exact.
    assert get_default_pool(2) is pool
    assert all(w.process.is_alive() for w in pool._workers)
    ws.start_measurement()
    retry = _join(ws, tree_r, file_s, **kw)
    assert retry.pair_set() == sequential.pair_set()
    assert retry.parallel_decision.pooled


def test_unpublished_dataset_is_a_stale_dataset_error():
    empty = SegmentDescriptor(name=None, dtype="int64", shape=(0,))
    job = TileJob(
        dataset_key="never-published", version=1,
        grid=GridIndexDescriptor(
            rows=1, cols=1, universe=(0.0, 0.0, 1.0, 1.0),
            num_tiles=1, csr_r=empty, csr_s=empty,
        ),
        tile=0, n_r=0, n_s=0, method="BFJ", config=CFG,
        options={}, seed=0, want_trace=False,
    )
    runner = TileRunner()
    with pytest.raises(StaleDatasetError):
        runner.run(job)
    runner.close()


def test_closed_pool_rejects_joins():
    pool = WorkerPool(1)
    pool.close()
    with pytest.raises(ParallelError):
        pool.run_join(None, [])
    pool.close()  # idempotent


# --------------------------------------------------------------------- #
# Start methods
# --------------------------------------------------------------------- #


def test_resolve_start_method_rejects_unknown():
    with pytest.raises(ParallelError):
        resolve_start_method("not-a-method")


def test_resolve_start_method_env(monkeypatch):
    import multiprocessing

    available = multiprocessing.get_all_start_methods()
    monkeypatch.setenv("REPRO_POOL_START_METHOD", available[0])
    assert resolve_start_method() == available[0]
    # Explicit argument wins over the environment.
    assert resolve_start_method(available[-1]) == available[-1]


@pytest.mark.skipif(
    "spawn" not in __import__("multiprocessing").get_all_start_methods(),
    reason="spawn start method unavailable",
)
def test_spawn_start_method_joins_correctly():
    ws, tree_r, file_s = _env(n_r=200, n_s=140, seed=81)
    sequential = _join(ws, tree_r, file_s, method="BFJ")
    ws.start_measurement()
    spawned = _join(
        ws, tree_r, file_s, method="BFJ",
        workers=2, partitions=4, parallel_guard=False,
        parallel_start_method="spawn",
    )
    assert spawned.pair_set() == sequential.pair_set()
    assert spawned.parallel_decision.pooled


# --------------------------------------------------------------------- #
# Shutdown hygiene
# --------------------------------------------------------------------- #


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="POSIX shm only")
def test_shutdown_unlinks_every_segment():
    before = set(os.listdir("/dev/shm"))
    ws, tree_r, file_s = _env(seed=91)
    result = _join(
        ws, tree_r, file_s, method="STJ1-2N",
        workers=2, partitions=4, parallel_guard=False,
    )
    assert result.parallel_decision.pooled
    shutdown_default_pools()
    after = set(os.listdir("/dev/shm"))
    assert after - before == set(), f"leaked segments: {after - before}"
