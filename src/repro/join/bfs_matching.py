"""Breadth-first tree matching (Günther's traversal order).

The paper's related work discusses Günther's generalization-tree join,
which traverses breadth-first: "the pairs of matching tree-nodes at tree
level n must be recorded before the algorithm can descend to level n+1.
In practice, the amount of memory required to hold such information
could be large for indices with high fanout" — one of the reasons the
paper adopts depth-first TM instead.

This module implements the breadth-first variant so that concern can be
*measured*: the per-level pair queue lives in a bounded memory budget
and spills to disk in sequential runs when it overflows, exactly like
any operator state in a real system. With an unbounded budget BFS visits
the same node pairs as TM and produces identical results; with a small
budget it pays spill I/O that TM never pays — the quantitative form of
the paper's argument (see ``benchmarks/test_ablation_bfs.py``).
"""

from __future__ import annotations

from typing import Any, Iterator

from operator import attrgetter

from ..config import SystemConfig
from ..geometry import sweep_pairs
from ..metrics import MetricsCollector
from ..storage import Page, PageKind
from ..storage.disk import DiskSimulator
from .result import JoinPair

#: Entry -> MBR adapter, hoisted out of the per-pair sweep calls.
_MBR_OF = attrgetter("mbr")

#: Bytes per queued pair: two page ids (the paper's 4-byte pointers).
_PAIR_BYTES = 8


class _PairQueue:
    """A FIFO of node-pair ids with a memory budget and disk spilling.

    Pairs beyond the budget are written out in page-sized sequential
    runs; draining replays the spilled runs first (in order), then the
    resident tail. All I/O goes through the disk simulator and is
    charged to whatever phase is active.
    """

    def __init__(self, disk: DiskSimulator, config: SystemConfig,
                 budget_pairs: int | None):
        self.disk = disk
        self.config = config
        self.budget = budget_pairs
        self.pairs_per_page = max(
            1, (config.page_size - config.node_header_bytes) // _PAIR_BYTES
        )
        self._resident: list[tuple[int, int]] = []
        self._spilled_runs: list[tuple[int, int]] = []  # (first_id, pages)
        self.spilled_pairs = 0

    def append(self, pair: tuple[int, int]) -> None:
        self._resident.append(pair)
        if self.budget is not None and len(self._resident) > self.budget:
            self._spill()

    def _spill(self) -> None:
        batch = self._resident
        self._resident = []
        num_pages = (len(batch) + self.pairs_per_page - 1) \
            // self.pairs_per_page
        first_id = self.disk.allocate(num_pages)
        pages = [
            Page(
                first_id + i, PageKind.LIST,
                batch[i * self.pairs_per_page:(i + 1) * self.pairs_per_page],
            )
            for i in range(num_pages)
        ]
        self.disk.write_run(pages)
        self._spilled_runs.append((first_id, num_pages))
        self.spilled_pairs += len(batch)

    def __len__(self) -> int:
        return self.spilled_pairs + len(self._resident)

    def drain(self) -> Iterator[tuple[int, int]]:
        for first_id, num_pages in self._spilled_runs:
            for page in self.disk.read_run(first_id, num_pages):
                yield from page.payload
        self._spilled_runs = []
        self.spilled_pairs = 0
        resident = self._resident
        self._resident = []
        yield from resident


def match_trees_bfs(
    tree_a: Any,
    tree_b: Any,
    metrics: MetricsCollector | None = None,
    queue_budget_pairs: int | None = None,
) -> list[JoinPair]:
    """Breadth-first equivalent of :func:`~repro.join.matching.match_trees`.

    ``queue_budget_pairs`` bounds the per-level pair queue held in
    memory; ``None`` means unbounded (no spilling). Results and CPU/XY
    accounting match the depth-first matcher; the extra disk traffic of
    spilling is the cost of the traversal order. Only the ablation runs
    this matcher, so it has just the scalar implementation.
    """
    cpu = metrics.cpu if metrics is not None else None
    config = tree_a.config
    disk = tree_a.buffer.disk
    # Bound-method hoists for the per-pair attribute chains
    # (tree -> buffer -> unpin), as in the DFS matcher.
    read_a = tree_a.read_node
    read_b = tree_b.read_node
    unpin_a = tree_a.buffer.unpin
    unpin_b = tree_b.buffer.unpin

    root_a = tree_a.read_node(tree_a.root_id)
    root_b = tree_b.read_node(tree_b.root_id)
    results: list[JoinPair] = []
    if not root_a.entries or not root_b.entries:
        return results

    current = _PairQueue(disk, config, queue_budget_pairs)
    current.append((tree_a.root_id, tree_b.root_id))

    while len(current):
        nxt = _PairQueue(disk, config, queue_budget_pairs)
        for page_a, page_b in current.drain():
            node_a = read_a(page_a, pin=True)
            try:
                node_b = read_b(page_b, pin=True)
                try:
                    if node_a.is_leaf and node_b.is_leaf:
                        hits = sweep_pairs(
                            node_a.entries, node_b.entries,
                            rect_of=_MBR_OF, counters=cpu,
                        )
                        results.extend((ea.ref, eb.ref) for ea, eb in hits)
                    elif node_a.is_leaf or node_b.is_leaf:
                        leaf, internal, leaf_is_a = (
                            (node_a, node_b, True) if node_a.is_leaf
                            else (node_b, node_a, False)
                        )
                        window = leaf.cached_mbr()
                        if cpu is not None:
                            cpu.xy_tests += 2 * len(internal.entries)
                        for e in internal.entries:
                            if e.mbr.intersects(window):
                                nxt.append(
                                    (page_a, e.ref) if leaf_is_a
                                    else (e.ref, page_b)
                                )
                    else:
                        box = node_a.cached_mbr().intersection(
                            node_b.cached_mbr()
                        )
                        if box is None:
                            continue
                        if cpu is not None:
                            cpu.xy_tests += 2 * (
                                len(node_a.entries) + len(node_b.entries)
                            )
                        cand_a = [e for e in node_a.entries
                                  if e.mbr.intersects(box)]
                        cand_b = [e for e in node_b.entries
                                  if e.mbr.intersects(box)]
                        if cand_a and cand_b:
                            for ea, eb in sweep_pairs(
                                cand_a, cand_b, rect_of=_MBR_OF,
                                counters=cpu,
                            ):
                                nxt.append((ea.ref, eb.ref))
                finally:
                    unpin_b(page_b)
            finally:
                unpin_a(page_a)
        current = nxt

    return results
