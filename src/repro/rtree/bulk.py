"""STR (Sort-Tile-Recursive) bulk loading.

Not part of the 1994 paper — bulk loading matured later — but it is the
natural modern answer to "build an index at join time", so the ablation
benchmarks include it as an extra baseline against seeded-tree
construction. The algorithm (Leutenegger, Lopez & Edgington, 1997) packs
entries into leaves by sorting on x, slicing into vertical runs, sorting
each run on y, and repeating one level up until a single root remains.

The produced tree is a valid :class:`~repro.rtree.rtree.RTree` sharing all
query/matching machinery. Node pages are created through the buffer pool,
so construction I/O is accounted like any other method's.
"""

from __future__ import annotations

import math
from typing import Iterable

from ..config import SystemConfig
from ..errors import TreeError
from ..geometry import Rect
from ..metrics import MetricsCollector
from ..storage import BufferPool, PageKind
from .node import Entry, Node, node_mbr
from .rtree import RTree


def _pack_level(tree: RTree, entries: list[Entry], level: int) -> list[Entry]:
    """Pack ``entries`` into nodes at ``level``; return the parent entries."""
    capacity = tree.capacity
    n = len(entries)
    num_nodes = math.ceil(n / capacity)
    num_slices = max(1, math.ceil(math.sqrt(num_nodes)))
    per_slice = num_slices * capacity

    if tree.metrics is not None:
        # Two full sorts: each key extraction inspects one bbox axis.
        # Reported so bulk loading's CPU is comparable with other methods.
        tree.metrics.count_bbox_tests(2 * n)

    by_x = sorted(entries, key=lambda e: (e.mbr.xlo + e.mbr.xhi))
    parents: list[Entry] = []
    for s in range(0, n, per_slice):
        run = sorted(
            by_x[s:s + per_slice], key=lambda e: (e.mbr.ylo + e.mbr.yhi)
        )
        for off in range(0, len(run), capacity):
            chunk = run[off:off + capacity]
            node = Node(level, chunk)
            node.page_id = tree.buffer.new_page(
                PageKind.TREE_NODE, node
            ).page_id
            parents.append(Entry(node_mbr(node), node.page_id))
    return parents


def bulk_load_str(
    buffer: BufferPool,
    config: SystemConfig,
    entries: Iterable[tuple[Rect, int]],
    metrics: MetricsCollector | None = None,
    name: str = "",
) -> RTree:
    """Build a packed R-tree from scratch with STR.

    Returns an ordinary :class:`RTree`; empty input yields an empty tree.
    """
    tree = RTree(buffer, config, metrics=metrics, name=name)
    level_entries = [Entry(rect, oid) for rect, oid in entries]
    if not level_entries:
        return tree

    count = len(level_entries)
    level = 0
    nodes = 0
    while True:
        level_entries = _pack_level(tree, level_entries, level)
        nodes += len(level_entries)     # one parent entry per packed node
        if len(level_entries) == 1:
            break
        level += 1

    # The packing ended with a single node; make it the root and free
    # the empty placeholder root created by the RTree constructor (a
    # large pack may have evicted it to disk).
    only = level_entries[0]
    tree.buffer.free([tree.root_id])
    tree.root_id = only.ref
    tree._count = count
    tree._num_nodes = nodes
    tree._height = level + 1
    root = tree._node_unaccounted(tree.root_id)
    if root.level != level:
        raise TreeError("bulk load produced an inconsistent root level")
    return tree
