"""A join owns the pages it allocates.

When a facade join ends, every page it allocated is freed except the
ones its index holds; those go when the caller drops the last handle to
the index and the buffer reaches its next safe point. Freeing is not
I/O: the join's own pairs and counters are unchanged, and both
execution paths free the same pages.
"""

from __future__ import annotations

import gc
import threading

import pytest

import repro.join.engine as engine
import repro.join.stj as stj_module
from repro.analysis.sanitizer import packed_snapshot
from repro.config import SystemConfig
from repro.errors import ExperimentError
from repro.geometry import Rect
from repro.join import spatial_join
from repro.join.batch import column_tree_of
from repro.join.engine import (
    _PartitionTask,
    build_partition_substrate,
    join_on_substrate,
)
from repro.join.lifetime import index_pages
from repro.storage import FaultInjector, FaultPlan, RecoveryPolicy
from repro.workspace import Workspace
from repro.zorder import ZFile

from ..conftest import random_entries

CFG = SystemConfig(page_size=512, buffer_pages=32)
METHODS = ("BFJ", "RTJ", "STJ1-2N", "STJ2-2F", "NAIVE", "ZJOIN", "2STJ")
EVERYTHING = Rect(-1.0, -1.0, 2.0, 2.0)
ENTRIES_R = random_entries(1500, seed=3)
ENTRIES_S = random_entries(400, seed=4, oid_start=10**6)


def _world():
    ws = Workspace(CFG)
    tree_r = ws.install_rtree(ENTRIES_R)
    file_s = ws.install_datafile(ENTRIES_S, name="D_S")
    ws.start_measurement()
    return ws, tree_r, file_s


def _join(ws, tree_r, file_s, method, **kwargs):
    return spatial_join(file_s, tree_r, ws.buffer, ws.config, ws.metrics,
                        method=method, **kwargs)


def _stored(ws) -> set[int]:
    """Every page id that holds data, on disk or in a buffer frame."""
    return set(ws.disk._pages) | set(ws.buffer.resident_ids())


def _lifetime(method: str) -> dict:
    """One join's page ledger, and the counters it must not move."""
    ws, tree_r, file_s = _world()
    before = ws.disk.written_pages
    stored = _stored(ws)
    start = ws.disk.allocated_pages
    result = _join(ws, tree_r, file_s, method)
    stats = ws.buffer.stats
    ledger = dict(
        pairs=result.pairs,
        summary=ws.metrics.summary(),
        buffer=(stats.hits, stats.misses, stats.evictions,
                stats.dirty_writebacks),
        allocated=(start, ws.disk.allocated_pages),
        kept=sorted(_stored(ws) - stored),
    )
    index = set(index_pages(result.index))
    assert set(ledger["kept"]) == index
    # Every kept page reaches the disk once written back.
    ws.buffer.flush_all()
    assert ws.disk.written_pages == before + len(index)
    del result
    gc.collect()
    ws.start_measurement()
    assert ws.disk.written_pages == before
    assert _stored(ws) == stored
    return ledger


@pytest.mark.parametrize("method", METHODS)
def test_a_join_keeps_only_its_index_and_both_paths_agree(
    method, monkeypatch
):
    monkeypatch.setenv("REPRO_KERNELS", "1")
    fast = _lifetime(method)
    monkeypatch.setenv("REPRO_KERNELS", "0")
    scalar = _lifetime(method)
    assert fast == scalar
    if method not in ("BFJ", "NAIVE"):
        start, end = fast["allocated"]
        assert fast["kept"] and set(fast["kept"]) <= set(range(start, end))


def test_counters_are_those_of_a_join_that_frees_nothing(monkeypatch):
    """A freed join's own pairs, costs and buffer statistics are those of
    the same join with freeing stood down."""
    freeing = {m: _lifetime(m) for m in ("STJ1-2N", "2STJ", "ZJOIN")}
    monkeypatch.setattr(engine, "end_join", lambda *args: None)
    for method, ledger in freeing.items():
        ws, tree_r, file_s = _world()
        result = _join(ws, tree_r, file_s, method)
        stats = ws.buffer.stats
        assert result.pairs == ledger["pairs"]
        assert ws.metrics.summary() == ledger["summary"]
        assert (stats.hits, stats.misses, stats.evictions,
                stats.dirty_writebacks) == ledger["buffer"]


def test_retained_indexes_stay_readable_through_later_joins():
    ws, tree_r, file_s = _world()
    kept = {}
    for method in ("STJ1-2N", "RTJ", "2STJ", "ZJOIN"):
        ws.start_measurement()
        kept[method] = _join(ws, tree_r, file_s, method)
    for method in METHODS * 2:
        ws.start_measurement()
        _join(ws, tree_r, file_s, method)
    oids_s = sorted(oid for _, oid in ENTRIES_S)
    for method, result in kept.items():
        index = result.index
        if isinstance(index, ZFile):
            assert sorted({e.oid for e in index.scan()}) == oids_s
            continue
        index.validate()
        assert sorted(index.window_query(EVERYTHING)) == oids_s
        snapshot = column_tree_of(index)
        assert snapshot.differs_from(packed_snapshot(index)) is None


def test_a_failed_join_frees_everything_it_allocated():
    ws, tree_r, file_s = _world()
    stored = _stored(ws)
    start = ws.disk.allocated_pages
    # The prepare phase writes D_R(2stj) before the seed source fails.
    with pytest.raises(ExperimentError, match="seed source"):
        _join(ws, tree_r, file_s, "2STJ", seeds="bogus")
    assert ws.disk.allocated_pages > start
    assert _stored(ws) == stored


def test_a_degraded_join_frees_its_abandoned_construction():
    injector = FaultInjector(FaultPlan(torn_write_rate=1.0), seed=0)
    ws = Workspace(SystemConfig(page_size=512, buffer_pages=8),
                   injector=injector)
    tree_r = ws.install_rtree(ENTRIES_R[:700])
    file_s = ws.install_datafile(ENTRIES_S)
    ws.start_measurement()
    stored = _stored(ws)
    start = ws.disk.allocated_pages
    injector.arm()
    result = _join(ws, tree_r, file_s, "STJ1-2N", use_linked_lists=False,
                   recovery=RecoveryPolicy(checkpoint_every=32))
    assert result.degraded and result.index is None
    assert ws.disk.allocated_pages > start
    assert _stored(ws) == stored


def test_a_finalizer_on_another_thread_only_queues():
    ws, tree_r, file_s = _world()
    result = _join(ws, tree_r, file_s, "STJ1-2N")
    frames = ws.buffer.audit_frames()
    written = ws.disk.written_pages
    holder = [result]
    del result
    dropper = threading.Thread(target=holder.clear)
    dropper.start()
    dropper.join()
    assert len(ws.buffer.pending_free) == 1
    assert ws.buffer.audit_frames() == frames
    assert ws.disk.written_pages == written
    stored = _stored(ws)
    ws.start_measurement()
    assert not ws.buffer.pending_free
    assert len(_stored(ws)) < len(stored)


def test_a_finalizer_in_a_collection_mid_join_only_queues(monkeypatch):
    ws, tree_r, file_s = _world()
    _join(ws, tree_r, file_s, "RTJ")
    ws.start_measurement()
    reference = (_join(ws, tree_r, file_s, "STJ1-2N").pairs,
                 ws.metrics.summary())

    ws, tree_r, file_s = _world()
    first = _join(ws, tree_r, file_s, "RTJ")
    index = first.index
    index.cycle = index   # only the cycle collector can reclaim it now
    del first, index
    seen = []
    real = stj_module.match_trees

    def collecting(*args, **kwargs):
        frames = ws.buffer.audit_frames()
        queued = len(ws.buffer.pending_free)
        gc.collect()
        seen.append((len(ws.buffer.pending_free) - queued,
                     ws.buffer.audit_frames() == frames))
        return real(*args, **kwargs)

    monkeypatch.setattr(stj_module, "match_trees", collecting)
    # Only the collection forced mid-join may run the finalizer.
    gc.disable()
    try:
        ws.start_measurement()
        result = _join(ws, tree_r, file_s, "STJ1-2N")
    finally:
        gc.enable()
    assert seen == [(1, True)]
    assert (result.pairs, ws.metrics.summary()) == reference
    assert len(ws.buffer.pending_free) == 1   # until the next safe point
    ws.start_measurement()
    assert not ws.buffer.pending_free


@pytest.mark.parametrize("method", ("STJ", "RTJ", "2STJ", "ZJOIN"))
def test_a_cached_tile_substrate_stays_flat_over_reruns(method):
    task = _PartitionTask(
        index=0, method=method, config=CFG,
        universe=(0.0, 0.0, 1.0, 1.0), rows=1, cols=1,
        entries_r=ENTRIES_R[:600], entries_s=ENTRIES_S[:200], options={},
        seed=99, want_trace=False,
    )
    substrate = build_partition_substrate(task)
    readings = []
    for _ in range(20):
        outcome = join_on_substrate(task, substrate)
        readings.append(substrate.ws.disk.written_pages)
    assert outcome.pairs
    assert len(set(readings)) == 1, readings
