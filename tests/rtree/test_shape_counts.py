"""The node count and height an R-tree keeps, against a walk.

``RTree.num_nodes()`` and ``RTree.height`` read counters the tree keeps
where nodes are made or freed and where the root changes, so the
planner's metadata costs no walk. Every way to make or change a tree
must keep them exact.
"""

from __future__ import annotations

import random

import pytest

from repro.config import SystemConfig
from repro.geometry import Rect
from repro.metrics import MetricsCollector
from repro.rtree import RTree, bulk_load_str
from repro.rtree.persist import dump_tree, load_tree
from repro.seeded.builder import build_rtree
from repro.storage import BufferPool, DiskSimulator

from ..conftest import random_entries

#: Small pages, so a few hundred objects make a tree of several levels
#: whose deletions condense and shrink the root.
CFG = SystemConfig(page_size=256, buffer_pages=64)


def _buffer() -> BufferPool:
    return BufferPool(CFG.buffer_pages, DiskSimulator(MetricsCollector(CFG)))


def _walked(tree: RTree) -> tuple[int, int]:
    nodes = sum(1 for _ in tree.iter_nodes())
    return nodes, tree._node_unaccounted(tree.root_id).level + 1


def assert_kept(tree: RTree) -> None:
    assert (tree.num_nodes(), tree.height) == _walked(tree)


def _random_batches(tree: RTree, live: dict, rng: random.Random,
                    batches: int, next_oid: int) -> None:
    """Insert, delete and move batches, checking after each."""
    for _ in range(batches):
        for _ in range(rng.randint(1, 8)):
            kind = rng.choice(("insert", "delete", "move"))
            if kind == "insert" or not live:
                x, y = rng.random(), rng.random()
                rect = Rect(x, y, x + rng.random() * 0.05,
                            y + rng.random() * 0.05)
                tree.insert(rect, next_oid)
                live[next_oid] = rect
                next_oid += 1
                continue
            oid = rng.choice(list(live))
            assert tree.delete(live.pop(oid), oid)
            if kind == "move":
                x, y = rng.random(), rng.random()
                live[oid] = Rect(x, y, x + 0.01, y + 0.01)
                tree.insert(live[oid], oid)
        assert_kept(tree)


@pytest.mark.parametrize("fast", (True, False))
def test_insert_delete_move_batches_keep_counts(fast):
    rng = random.Random(7)
    entries = random_entries(300, seed=71)
    tree = RTree.build(_buffer(), CFG, entries, fast=fast)
    assert_kept(tree)
    live = dict((oid, rect) for rect, oid in entries)
    _random_batches(tree, live, rng, 120, 10_000)
    # Drain it, through condensing and root shrinking, and grow it back.
    for oid, rect in list(live.items()):
        assert tree.delete(rect, oid)
        live.pop(oid)
        if oid % 37 == 0:
            assert_kept(tree)
    assert_kept(tree)
    assert (tree.num_nodes(), tree.height) == (1, 1)
    _random_batches(tree, live, rng, 40, 20_000)


@pytest.mark.parametrize("make", ("bulk", "builder", "loaded"))
def test_built_and_loaded_trees_keep_counts(make):
    entries = random_entries(400, seed=72)
    buffer = _buffer()
    if make == "bulk":
        tree = bulk_load_str(buffer, CFG, entries)
    elif make == "builder":
        tree = build_rtree(buffer, CFG, None, entries)
    else:
        source = RTree.build(_buffer(), CFG, entries)
        tree = load_tree(buffer, CFG, dump_tree(source, allow_quantize=True))
    assert tree.height > 2
    assert_kept(tree)
    # A loaded tree holds float32-rounded boxes; delete what it holds.
    live = dict((oid, rect) for rect, oid in tree.all_objects())
    _random_batches(tree, live, random.Random(8), 30, 10_000)


def test_empty_trees_keep_counts():
    assert_kept(RTree(_buffer(), CFG))
    assert_kept(bulk_load_str(_buffer(), CFG, []))
    assert_kept(build_rtree(_buffer(), CFG, None, []))
