"""The warm cache's own mechanics: the bound, LRU order and stamp drops.

End-to-end reuse and bit-identity are pinned by the differential suite
(``test_resident_rotation_hits_every_cache``,
``test_plan_reuse_survives_key_collisions``); these tests pin what no
join of a small rotation reaches — eviction past the bound.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.join.warm_cache import CAPACITY, warm_cache_of


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
