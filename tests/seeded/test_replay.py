"""Construction replay cache mechanics (see :mod:`repro.seeded.replay`).

Bit-identity of replayed runs is proven end-to-end by the differential
suite (``test_batch_repeat_runs_bit_identical``); these tests pin the
mechanics — when the cache records, when it replays, when it stands
down, when it invalidates, and that the allocation-drift invariant
fails loudly instead of degrading.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

import repro.analysis.sanitizer as sanitizer_mod
import repro.join.batch as join_batch
import repro.join.stj as stj_mod
import repro.seeded.replay as replay_mod
from repro.analysis.sanitizer import packed_snapshot
from repro.config import SystemConfig
from repro.geometry import Rect
from repro.join import spatial_join
from repro.join.batch import column_tree_of, snapshot_record
from repro.join.warm_cache import warm_cache_of
from repro.kernels.node_store import ColumnTree
from repro.rtree.node import Node
from repro.storage import PageKind
from repro.workload import ClusteredConfig, generate_clustered
from repro.workspace import Workspace

CFG = SystemConfig(page_size=104, buffer_pages=64)

SUMMARY_FIELDS = (
    "match_read", "match_write", "construct_read", "construct_write",
    "bbox_tests", "xy_tests",
)


def _workload():
    d_r = generate_clustered(ClusteredConfig(
        220, cover_quotient=2.0, objects_per_cluster=11,
        data_side_bound=0.06, seed=977,
    ))
    d_s = generate_clustered(ClusteredConfig(
        140, cover_quotient=2.0, objects_per_cluster=7,
        data_side_bound=0.06, seed=978, oid_start=10**6,
    ))
    return d_r, d_s


@pytest.fixture
def env(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "1")
    d_r, d_s = _workload()
    ws = Workspace(CFG)
    tree_r = ws.install_rtree(d_r)
    file_s = ws.install_datafile(d_s)
    return ws, tree_r, file_s


@pytest.fixture
def spies(monkeypatch):
    """Count STJ's log-first builds (each records its log) and warm
    replays without changing behaviour."""
    counts = {"record": 0, "replay": 0}
    orig_build, orig_replay = stj_mod.build_seeded_tree, replay_mod._replay

    def record(*args, **kwargs):
        counts["record"] += 1
        return orig_build(*args, **kwargs)

    def replay(rec, ctx):
        counts["replay"] += 1
        return orig_replay(rec, ctx)

    monkeypatch.setattr(stj_mod, "build_seeded_tree", record)
    monkeypatch.setattr(replay_mod, "_replay", replay)
    return counts


def _join(ws, tree_r, file_s):
    ws.start_measurement()
    return spatial_join(
        file_s, tree_r, ws.buffer, ws.config, ws.metrics, method="STJ",
    )


def _recording(tree_r):
    """The one construction recording in ``tree_r``'s warm cache."""
    (rec,) = warm_cache_of(tree_r).entries("construct")
    return rec


def test_first_run_records_then_replays(env, spies):
    ws, tree_r, file_s = env
    first = _join(ws, tree_r, file_s)
    assert spies == {"record": 1, "replay": 0}
    rec = _recording(tree_r)
    assert rec is not None

    second = _join(ws, tree_r, file_s)
    assert spies == {"record": 1, "replay": 1}
    assert _recording(tree_r) is rec, "hit must not re-record"
    assert warm_cache_of(tree_r).stats("construct") == {
        "hits": 1, "rebinds": 0, "misses": 1, "evictions": 0,
    }
    assert second.pairs == first.pairs
    # The replayed tree is a fresh finished instance, not the recording's.
    assert second.index is not first.index
    assert second.index.mutations == 1
    assert len(second.index) == len(first.index)


def test_batch_kill_switch_stands_down(env, spies, monkeypatch):
    """``REPRO_KERNELS=0`` switches off the whole fast path — batch
    traversal and construction replay alike."""
    ws, tree_r, file_s = env
    monkeypatch.setenv("REPRO_KERNELS", "0")
    _join(ws, tree_r, file_s)
    _join(ws, tree_r, file_s)
    assert spies == {"record": 0, "replay": 0}
    cache = warm_cache_of(tree_r)
    assert cache.entries("construct") == []
    assert not any(cache.stats("construct").values())


def test_sanitized_joins_record_then_replay(env, spies, monkeypatch):
    """The sanitizer checks only at phase boundaries, so it leaves the
    path alone: a sanitized pair of joins records, then replays, with
    the pairs and costs of an unsanitized pair in a twin workspace."""
    ws, tree_r, file_s = env
    d_r, d_s = _workload()
    twin = Workspace(CFG)
    twin_r = twin.install_rtree(d_r)
    twin_s = twin.install_datafile(d_s)
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    plain = []
    for _ in range(2):
        plain.append((_join(twin, twin_r, twin_s).pairs,
                      twin.metrics.summary()))
    assert spies == {"record": 1, "replay": 1}
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    for pairs, summary in plain:
        assert _join(ws, tree_r, file_s).pairs == pairs
        for field in SUMMARY_FIELDS:
            assert (getattr(ws.metrics.summary(), field)
                    == getattr(summary, field)), field
    assert spies == {"record": 2, "replay": 2}


def test_seeding_tree_mutation_invalidates(env, spies):
    ws, tree_r, file_s = env
    first = _join(ws, tree_r, file_s)
    rec = _recording(tree_r)

    tree_r.insert(Rect(0.4, 0.4, 0.46, 0.46), 424242)
    second = _join(ws, tree_r, file_s)
    # The stale recording was dropped with the cache's old stamp and
    # replaced by a fresh one, never replayed.
    assert spies == {"record": 2, "replay": 0}
    assert _recording(tree_r) is not rec
    assert warm_cache_of(tree_r).stats("construct")["misses"] == 2
    third = _join(ws, tree_r, file_s)
    assert spies == {"record": 2, "replay": 1}
    assert third.pairs == second.pairs
    assert first.pairs  # the pre-mutation run was non-vacuous


def test_replayed_tree_carries_an_exact_snapshot(env, spies, monkeypatch):
    """A replayed tree is handed the recorded build's snapshot moved to
    the replay's pages instead of re-packing its nodes: column for
    column, stamp and digest, it is what packing the replayed tree
    gives. Once the tree changes, the next snapshot is assembled from
    the carried one, re-reading only the nodes the insert edited."""
    ws, tree_r, file_s = env
    first = _join(ws, tree_r, file_s)
    packs = []
    build = ColumnTree.build.__func__
    # The sanitizer (REPRO_SANITIZE=1) packs reference snapshots through
    # packed_snapshot to check the carried ones; those are not the
    # join's packs.
    referencing = []
    reference_pack = sanitizer_mod.packed_snapshot

    def counted_reference(tree):
        referencing.append(tree)
        try:
            return reference_pack(tree)
        finally:
            referencing.pop()

    def counted(cls, *args, **kwargs):
        if not referencing:
            packs.append(args[1])
        return build(cls, *args, **kwargs)

    assembled = []
    assemble = join_batch.assemble

    def counted_assemble(base, *args, **kwargs):
        assembled.append(base)
        return assemble(base, *args, **kwargs)

    monkeypatch.setattr(ColumnTree, "build", classmethod(counted))
    monkeypatch.setattr(sanitizer_mod, "packed_snapshot", counted_reference)
    monkeypatch.setattr(join_batch, "assemble", counted_assemble)
    second = _join(ws, tree_r, file_s)
    assert spies == {"record": 1, "replay": 1}
    assert packs == [], "the replayed join packed a snapshot"

    tree_s = second.index
    assert snapshot_record(tree_s).carried
    assembled.clear()
    carried = column_tree_of(tree_s)
    assert carried is not column_tree_of(first.index)
    assert packs == [] and assembled == []
    assert carried.differs_from(packed_snapshot(tree_s)) is None
    assert not np.array_equal(carried.page, column_tree_of(first.index).page)

    tree_s.insert_retained(Rect(0.4, 0.4, 0.46, 0.46), 424242)
    packs.clear()
    fresh = column_tree_of(tree_s)
    assert assembled == [carried], "not assembled from the carried base"
    record = snapshot_record(tree_s)
    assert not record.carried
    assert 0 < record.reread < record.nodes == fresh.n_nodes
    assert fresh is not carried
    assert fresh.differs_from(packed_snapshot(tree_s)) is None


def test_replay_costs_match_a_scalar_rerun(monkeypatch, spies):
    """Twin workspaces, three runs each: every replayed run's counters
    and cumulative buffer stats equal the scalar path's run for run —
    and the fast leg really replayed, the scalar leg never did."""
    d_r, d_s = _workload()

    def runs(kernels):
        monkeypatch.setenv("REPRO_KERNELS", kernels)
        spies.update(record=0, replay=0)
        ws = Workspace(CFG)
        tree_r = ws.install_rtree(d_r)
        file_s = ws.install_datafile(d_s)
        out = []
        for _ in range(3):
            result = _join(ws, tree_r, file_s)
            out.append((result.pairs, ws.metrics.summary(),
                        ws.buffer.stats.hits, ws.buffer.stats.misses))
        return out

    fast = runs("1")
    assert spies == {"record": 1, "replay": 2}
    scalar = runs("0")
    assert spies == {"record": 0, "replay": 0}
    for (pb, sb, hb, mb), (ps, ss, hs, ms) in zip(fast, scalar):
        assert pb == ps
        for field in SUMMARY_FIELDS:
            assert getattr(sb, field) == getattr(ss, field)
        assert (hb, mb) == (hs, ms)


def test_allocation_drift_raises_runtime_error():
    """A replay whose allocations do not land exactly delta past the
    recorded ids must fail loudly — RuntimeError, not StorageError, so
    the engine's degradation path cannot mask it."""
    ws = Workspace(CFG)
    buffer, disk = ws.buffer, ws.disk
    # Claim the recorded page 5 will land at 5 + delta, but pick a delta
    # that disagrees with where the allocator actually is.
    delta = (disk._next_id - 5) + 7
    ops = replay_mod.EffectLog()
    ops.extend((2, 5, ops.ref(PageKind.TREE_NODE)))
    with pytest.raises(RuntimeError, match="drifted"):
        buffer.replay_ops(ops, 0, delta, [Node(0, [])], ws.metrics)


def test_recording_allocates_per_page_not_per_op(monkeypatch):
    """Keeping a build's recording adds a few objects the garbage
    collector tracks per page the build allocates (the pages' final
    images), not one per logged op as a list of op tuples did: the
    effect log is one flat integer array. With the cache stood down the
    builder still runs, and its recording is dropped."""
    monkeypatch.setenv("REPRO_KERNELS", "1")
    d_r, d_s = _workload()
    eligible = replay_mod.log_first

    def added_by_join(record):
        monkeypatch.setattr(replay_mod, "log_first",
                            eligible if record else lambda ctx: False)
        ws = Workspace(CFG)
        tree_r = ws.install_rtree(d_r)
        file_s = ws.install_datafile(d_s)
        ws.start_measurement()
        first_page = ws.disk.allocated_pages
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            result = _join(ws, tree_r, file_s)
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert result.pairs
        return added, ws.disk.allocated_pages - first_page, tree_r

    added_by_join(True)                     # warm any lazy state
    recorded, pages, tree_r = added_by_join(True)
    assert _recording(tree_r) is not None
    plain, plain_pages, _ = added_by_join(False)
    assert pages == plain_pages > 0
    assert recorded - plain <= 8 * pages
