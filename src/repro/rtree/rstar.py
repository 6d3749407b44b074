"""The R*-tree topological split (Beckmann et al., SIGMOD 1990).

The paper cites the R*-tree as the leading R-tree variant but
deliberately evaluates on the original structure "for generality". This
module provides the R*-split as a drop-in
:data:`~repro.rtree.split.SplitFunction`, so experiments can ask a
question the paper leaves open: does a better-shaped tree — as seeding
tree, join-time tree, or both — change the seeded-tree results?

Algorithm (the split is where most of R*'s quality gain lives; forced
reinsertion, an insertion-time mechanism, is out of scope here):

1. **Choose split axis** — for each axis, sort entries by lower and by
   upper coordinate and evaluate every legal distribution
   ``(first k, rest)`` with ``m <= k <= M+1-m``; pick the axis whose
   distributions have the least total margin (perimeter).
2. **Choose distribution** — along that axis, pick the distribution with
   the least overlap between the two groups' boxes, ties broken by
   least total area.

CPU accounting matches the other splits: one bbox test per entry
distributed (see :mod:`repro.rtree.split`).
"""

from __future__ import annotations

from ..errors import TreeError
from ..geometry import Rect, union_all
from ..metrics import MetricsCollector
from .node import Entry


def _group_box(entries: list[Entry]) -> Rect:
    return union_all(e.mbr for e in entries)


def rstar_split(
    entries: list[Entry],
    min_fill: int,
    metrics: MetricsCollector | None = None,
    fast: bool = False,
) -> tuple[list[Entry], list[Entry]]:
    """Split an over-full entry list with the R* topological split."""
    n = len(entries)
    if n < 2:
        raise TreeError("cannot split fewer than 2 entries")
    if min_fill * 2 > n:
        raise TreeError(f"min_fill {min_fill} impossible for {n} entries")

    # --- Step 1: choose the split axis by total margin ---------------- #
    def sorted_variants(axis: str):
        if axis == "x":
            yield sorted(entries, key=lambda e: (e.mbr.xlo, e.mbr.xhi))
            yield sorted(entries, key=lambda e: (e.mbr.xhi, e.mbr.xlo))
        else:
            yield sorted(entries, key=lambda e: (e.mbr.ylo, e.mbr.yhi))
            yield sorted(entries, key=lambda e: (e.mbr.yhi, e.mbr.ylo))

    def distributions(ordered: list[Entry]):
        for k in range(min_fill, n - min_fill + 1):
            yield ordered[:k], ordered[k:]

    best_axis = None
    best_margin = float("inf")
    for axis in ("x", "y"):
        margin = 0.0
        for ordered in sorted_variants(axis):
            for group_a, group_b in distributions(ordered):
                margin += _group_box(group_a).margin()
                margin += _group_box(group_b).margin()
        if margin < best_margin:
            best_margin = margin
            best_axis = axis

    # --- Step 2: choose the distribution by overlap, then area -------- #
    best_groups: tuple[list[Entry], list[Entry]] | None = None
    best_key = (float("inf"), float("inf"))
    for ordered in sorted_variants(best_axis):
        for group_a, group_b in distributions(ordered):
            box_a = _group_box(group_a)
            box_b = _group_box(group_b)
            inter = box_a.intersection(box_b)
            overlap = inter.area() if inter is not None else 0.0
            key = (overlap, box_a.area() + box_b.area())
            if key < best_key:
                best_key = key
                best_groups = (list(group_a), list(group_b))

    assert best_groups is not None
    if metrics is not None:
        metrics.count_bbox_tests(n)
    return best_groups
