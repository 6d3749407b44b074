"""Seed-level filtering (Section 3.2).

A rectangle joins with some object indexed by the R-tree ``T_R`` only if
it overlaps at least one bounding box at *every* level of ``T_R``. The
seed levels of a seeded tree are copies of the top ``k`` levels of
``T_R``, so they can answer a necessary condition for joinability before
an object is even inserted: each seed entry carries a ``shadow`` field —
the *unmodified* bounding box copied from the seeding tree — and an
object that fails to overlap any shadow along a root-to-slot path cannot
produce a join result and is dropped.

The test is evaluated level by level, exactly as the paper phrases it
("we first check if the data object overlaps at least one shadow field at
each of the k seed levels"): all shadows of the current frontier are
tested, and the next frontier is the children of the overlapping entries.
Because shadow boxes nest (a child's shadow lies inside its parent's),
this is equivalent to requiring an overlapping root-to-slot shadow path.
Every shadow comparison is a construction-time bbox test, feeding the
paper's observation that filtering trades roughly an order of magnitude
of CPU for its I/O gain.
"""

from __future__ import annotations

from ..geometry import Rect
from ..metrics import MetricsCollector
from ..rtree.node import Node


def passes_filter(
    seed_root: Node,
    seed_levels: int,
    rect: Rect,
    fetch_child,
    metrics: MetricsCollector | None = None,
) -> bool:
    """True when ``rect`` overlaps a shadow at every seed level.

    Parameters
    ----------
    seed_root:
        The root seed node; its entries (and their descendants') must
        carry ``shadow`` boxes.
    seed_levels:
        Number of seed levels ``k``; entries of nodes at depth ``k - 1``
        are the slots.
    rect:
        The candidate object's bounding box.
    fetch_child:
        Callable mapping a seed entry ``ref`` to the child seed
        :class:`Node`; the seeded tree passes an accounted buffer fetch.
    metrics:
        Receives one bbox test per shadow comparison performed.
    """
    tests = 0
    frontier = [seed_root]
    passed = True
    for depth in range(seed_levels):
        at_slot_level = depth == seed_levels - 1
        overlapping: list[int] = []
        for node in frontier:
            for entry in node.entries:
                tests += 1
                shadow = entry.shadow
                if shadow is not None and shadow.intersects(rect):
                    if not at_slot_level:
                        overlapping.append(entry.ref)
                    else:
                        overlapping.append(-1)
        if not overlapping:
            passed = False
            break
        if not at_slot_level:
            frontier = [fetch_child(ref) for ref in overlapping]

    if metrics is not None:
        metrics.count_bbox_tests(tests)
    return passed
