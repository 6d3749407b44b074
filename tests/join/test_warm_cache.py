"""The warm cache's own mechanics: the bound, LRU order and stamp drops.

End-to-end reuse and bit-identity are pinned by the differential suite
(``test_resident_rotation_hits_every_cache``,
``test_plan_reuse_survives_key_collisions``); these tests pin what no
join of a small rotation reaches — eviction past the bound — and BFJ's
query batch, packed once per data file.
"""

from __future__ import annotations

import zlib
from types import SimpleNamespace

import repro.join.batch as join_batch
from repro.config import SystemConfig
from repro.join import spatial_join
from repro.join.warm_cache import CAPACITY, warm_cache_of
from repro.storage import FaultInjector, FaultPlan
from repro.workspace import Workspace

from ..conftest import random_entries


def _tree():
    return SimpleNamespace(mutations=0, root_id=7)


def test_bound_evicts_least_recently_used_first():
    tree = _tree()
    cache = warm_cache_of(tree)
    cache.store("construct", "rec", "recording")
    for i in range(CAPACITY - 1):
        cache.store("match", i, f"plan {i}")
    assert cache.lookup("construct", "rec") == "recording"  # now most recent
    cache.store("window", "q", "window plan")
    cache.store("window", "q2", "window plan 2")

    assert len(cache) == CAPACITY
    assert cache.lookup("match", 0) is None
    assert cache.lookup("match", 1) is None
    assert cache.lookup("construct", "rec") == "recording"
    assert cache.entries("window") == ["window plan", "window plan 2"]
    assert cache.stats("match")["evictions"] == 2
    assert cache.stats("construct")["evictions"] == 0


def test_stamp_move_drops_every_entry_and_keeps_counts():
    tree = _tree()
    cache = warm_cache_of(tree)
    cache.store("match", "digest", "plan")
    cache.note("match", "misses")
    assert warm_cache_of(tree).lookup("match", "digest") == "plan"

    tree.mutations += 1
    assert warm_cache_of(tree) is cache
    assert len(cache) == 0
    assert cache.stamp == (1, 7)
    assert cache.stats("match") == {
        "hits": 0, "rebinds": 0, "misses": 1, "evictions": 0,
    }

    cache.store("match", "digest", "plan")
    tree.root_id = 8
    assert len(warm_cache_of(tree)) == 0


def _bfj(ws, tree_r, file_s):
    ws.start_measurement()
    result = spatial_join(file_s, tree_r, ws.buffer, ws.config, ws.metrics,
                          method="BFJ")
    return result.pairs, ws.metrics.summary()


def test_a_second_bfj_join_on_one_file_does_not_pack_again(monkeypatch):
    """A data file is never rewritten, so BFJ packs its query batch once
    and hands the stored window plan the same bytes on every later join
    — except while a fault injector is armed."""
    monkeypatch.setenv("REPRO_KERNELS", "1")
    ws = Workspace(SystemConfig(page_size=512, buffer_pages=32),
                   injector=FaultInjector(FaultPlan(), seed=0))
    tree_r = ws.install_rtree(random_entries(1500, seed=3))
    file_s = ws.install_datafile(random_entries(400, seed=4,
                                                oid_start=10**6))
    packs = []

    def crc32(data):
        packs.append(len(data))
        return zlib.crc32(data)

    monkeypatch.setattr(join_batch, "zlib", SimpleNamespace(crc32=crc32))
    first = _bfj(ws, tree_r, file_s)
    second = _bfj(ws, tree_r, file_s)
    assert len(packs) == 1
    assert second == first
    cache = warm_cache_of(tree_r)
    (plan,) = cache.entries("window")
    assert plan.query is file_s._packed_query[0]
    assert cache.stats("window")["hits"] == 1

    ws.disk.injector.arm()
    assert _bfj(ws, tree_r, file_s) == first
    assert len(packs) == 2
