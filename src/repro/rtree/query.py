"""Shared spatial-selection traversals.

R-trees and (cleaned-up) seeded trees answer selection queries
identically — the seeded tree "can be retained after join and used as an
ordinary spatial access method" (Section 5 of the paper). The traversals
are written once here against the duck-typed tree interface
(``read_node``, ``root_id``, ``metrics``): window queries (the operation
BFJ repeats, and the paper's running example of spatial selection) and
best-first k-nearest-neighbour search (the other staple a retained
index is expected to answer; Roussopoulos et al.'s branch-and-bound).
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any

from ..geometry import Rect
from ..kernels import intersect_indices


def window_query(tree: Any, window: Rect, fast: bool) -> list[int]:
    """Object ids of all objects whose MBRs intersect ``window``.

    Node reads are accounted through the tree's buffer; each entry
    inspected costs one bbox test (the batch intersect filter charges
    the same per-entry count). ``fast`` scans each node's column cache;
    otherwise entries are tested one by one, the scalar reference.
    """
    results: list[int] = []
    stack = [tree.root_id]
    while stack:
        node = tree.read_node(stack.pop())
        if tree.metrics is not None:
            tree.metrics.count_bbox_tests(len(node.entries))
        if fast:
            entries = node.entries
            arr = node.rect_array()
            out = results if node.is_leaf else stack
            if arr.is_numpy:
                out.extend(
                    entries[i].ref
                    for i in intersect_indices(arr, window)
                )
            else:
                # List-backed columns (node-sized arrays): walk them
                # directly, appending refs in one pass — an index list
                # plus re-indexing costs more than the scan itself here.
                wxlo, wylo = window.xlo, window.ylo
                wxhi, wyhi = window.xhi, window.yhi
                for e, xlo, ylo, xhi, yhi in zip(
                    entries, arr.xlo, arr.ylo, arr.xhi, arr.yhi
                ):
                    if (xlo <= wxhi and wxlo <= xhi
                            and ylo <= wyhi and wylo <= yhi):
                        out.append(e.ref)
        elif node.is_leaf:
            for e in node.entries:
                if e.mbr.intersects(window):
                    results.append(e.ref)
        else:
            for e in node.entries:
                if e.mbr.intersects(window):
                    stack.append(e.ref)
    return results


def _mindist_sq(rect: Rect, x: float, y: float) -> float:
    """Squared distance from a point to the nearest point of a rect."""
    dx = max(rect.xlo - x, 0.0, x - rect.xhi)
    dy = max(rect.ylo - y, 0.0, y - rect.yhi)
    return dx * dx + dy * dy


def nearest_neighbors(
    tree: Any, x: float, y: float, k: int = 1
) -> list[tuple[float, int]]:
    """The ``k`` objects whose MBRs lie closest to point ``(x, y)``.

    Best-first branch and bound: a priority queue ordered by MINDIST
    holds both nodes and leaf entries; whenever an entry surfaces ahead
    of every remaining node it is provably among the nearest. Returns
    ``(distance, oid)`` pairs in ascending distance order (fewer than
    ``k`` when the tree is smaller). Node reads are accounted through
    the tree's buffer; each entry examined costs one bbox test.
    """
    if k < 1:
        return []
    tiebreak = count()  # heap needs a total order; ids are not comparable
    heap: list[tuple[float, int, bool, int]] = [
        (0.0, next(tiebreak), False, tree.root_id)
    ]
    results: list[tuple[float, int]] = []
    while heap and len(results) < k:
        dist_sq, _, is_object, ref = heapq.heappop(heap)
        if is_object:
            results.append((dist_sq ** 0.5, ref))
            continue
        node = tree.read_node(ref)
        if tree.metrics is not None:
            tree.metrics.count_bbox_tests(len(node.entries))
        for e in node.entries:
            heapq.heappush(
                heap,
                (_mindist_sq(e.mbr, x, y), next(tiebreak),
                 node.is_leaf, e.ref),
            )
    return results
