"""The tree-matching algorithm TM ([BKS93], adopted by the paper).

TM starts from the two root nodes and recursively descends every pair of
children whose bounding boxes overlap, reporting answers when both sides
reach leaf entries. The paper chose it for the seeded tree's matching
component because it needs no balance: a seeded tree's grown subtrees have
different heights, and TM simply keeps descending the deeper side while
the shallower side waits at a leaf.

The CPU and I/O improvement techniques of [BKS93] are applied:

* **Intersection-box restriction** — when nodes ``R1`` and ``R2`` match,
  children that do not overlap ``R1.mbr ∩ R2.mbr`` cannot contribute and
  are dropped before pairing.
* **Plane sweep** — overlapping child pairs are enumerated with the sweep
  of :func:`repro.geometry.sweep.sweep_pairs` instead of a nested loop,
  and are *visited in sweep order*, which gives consecutive pairs high
  page-buffer locality (this is [BKS93]'s access-ordering optimisation).
* **Pinning** — the two nodes of the pair being processed are pinned so
  child fetches can never evict their parents mid-visit.

Every single-axis comparison performed here feeds the paper's "XY" CPU
column via the metrics collector.

Buffer requirement: the depth-first descent keeps the current node pair
of every level pinned, so the buffer must hold at least two pages per
level of combined descent (roughly ``height_a + height_b`` pages). Any
realistic configuration — the paper's is 512 pages for trees of height
4 — satisfies this by orders of magnitude.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any

from ..geometry import Rect, sweep_pairs
from ..kernels import kernels_enabled
from ..metrics import MetricsCollector
from ..rtree.node import Node
from .batch import match_trees_batch
from .result import JoinPair

#: Entry -> MBR adapter, hoisted out of the per-pair sweep calls.
_MBR_OF = attrgetter("mbr")


def match_trees(
    tree_a: Any,
    tree_b: Any,
    metrics: MetricsCollector | None = None,
    fast: bool | None = None,
) -> list[JoinPair]:
    """All (ref_a, ref_b) pairs of overlapping objects in the two trees.

    ``tree_a`` and ``tree_b`` are duck-typed: they need ``root_id``,
    ``read_node(page_id, pin=...)``, ``buffer``, ``mutations`` and
    ``iter_nodes`` attributes — both :class:`~repro.rtree.RTree` and
    :class:`~repro.seeded.SeededTree` qualify. Either tree may be
    unbalanced.

    By default the whole pair tree is planned level-at-a-time over
    columnar snapshots and replayed through the buffer —
    :func:`~repro.join.batch.match_trees_batch` — with bit-identical
    pairs, counters and I/O. ``fast=False`` runs the scalar recursion
    below, the reference the batch path is tested against; so does a
    join whose trees hold oids beyond int64, which the snapshots cannot
    pack. ``fast=None`` reads ``REPRO_KERNELS`` once.
    """
    if fast is None:
        fast = kernels_enabled()
    if fast:
        pairs = match_trees_batch(tree_a, tree_b, metrics)
        if pairs is not None:
            return pairs
    return _TreeMatcher(tree_a, tree_b, metrics).run()


class _TreeMatcher:
    """One matching run; exists to carry shared state through recursion."""

    def __init__(self, tree_a: Any, tree_b: Any,
                 metrics: MetricsCollector | None):
        self.tree_a = tree_a
        self.tree_b = tree_b
        self.metrics = metrics
        self.cpu = metrics.cpu if metrics is not None else None
        self.results: list[JoinPair] = []
        # Bound-method hoists: _match runs once per overlapping node
        # pair, and the attribute chains (tree -> buffer -> unpin) cost
        # more than the call they set up.
        self._read_a = tree_a.read_node
        self._read_b = tree_b.read_node
        self._unpin_a = tree_a.buffer.unpin
        self._unpin_b = tree_b.buffer.unpin

    def run(self) -> list[JoinPair]:
        root_a = self.tree_a.read_node(self.tree_a.root_id)
        root_b = self.tree_b.read_node(self.tree_b.root_id)
        if not root_a.entries or not root_b.entries:
            return []
        self._match(self.tree_a.root_id, self.tree_b.root_id)
        return self.results

    # ----------------------------------------------------------------- #

    def _match(self, page_a: int, page_b: int) -> None:
        node_a = self._read_a(page_a, pin=True)
        try:
            node_b = self._read_b(page_b, pin=True)
            try:
                if node_a.is_leaf and node_b.is_leaf:
                    self._match_leaves(node_a, node_b)
                elif node_a.is_leaf:
                    self._descend_one(node_a, page_a, node_b, leaf_side="a")
                elif node_b.is_leaf:
                    self._descend_one(node_b, page_b, node_a, leaf_side="b")
                else:
                    self._match_internal(node_a, node_b)
            finally:
                self._unpin_b(page_b)
        finally:
            self._unpin_a(page_a)

    def _match_leaves(self, node_a: Node, node_b: Node) -> None:
        """Report overlapping (oid, oid) pairs via plane sweep."""
        pairs = sweep_pairs(
            node_a.entries, node_b.entries,
            rect_of=_MBR_OF, counters=self.cpu,
        )
        self.results.extend((ea.ref, eb.ref) for ea, eb in pairs)

    def _match_internal(self, node_a: Node, node_b: Node) -> None:
        """Pair up overlapping children, restricted to the intersection box."""
        box = node_a.cached_mbr().intersection(node_b.cached_mbr())
        if box is None:
            return
        cand_a = self._restrict(node_a, box)
        cand_b = self._restrict(node_b, box)
        if not cand_a or not cand_b:
            return
        pairs = sweep_pairs(
            cand_a, cand_b, rect_of=_MBR_OF, counters=self.cpu,
        )
        # Sweep order doubles as the traversal order ([BKS93]'s ordering
        # optimisation): consecutive pairs share pages, so the LRU buffer
        # turns repeats into hits.
        for ea, eb in pairs:
            self._match(ea.ref, eb.ref)

    def _descend_one(self, leaf: Node, leaf_page: int, internal: Node,
                     leaf_side: str) -> None:
        """Unbalanced case: hold the leaf, descend the internal node.

        Seeded trees make this common — a grown subtree may bottom out
        while the R-tree side still has internal levels.
        """
        window = leaf.cached_mbr()
        if self.cpu is not None:
            self.cpu.xy_tests += 2 * len(internal.entries)
        for e in internal.entries:
            if e.mbr.intersects(window):
                if leaf_side == "a":
                    self._match(leaf_page, e.ref)
                else:
                    self._match(e.ref, leaf_page)

    def _restrict(self, node: Node, box: Rect) -> list:
        """Children overlapping the pair's intersection box.

        Each check is an x-axis plus a y-axis comparison (two XY tests);
        this is the [BKS93] technique that prunes children before the
        sweep even starts.
        """
        if self.cpu is not None:
            self.cpu.xy_tests += 2 * len(node.entries)
        return [e for e in node.entries if e.mbr.intersects(box)]
