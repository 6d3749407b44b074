"""Node-splitting algorithms (Guttman 1984).

The paper uses the original R-tree, whose canonical split is Guttman's
*quadratic* algorithm; the cheaper *linear* variant is provided as an
ablation option. Both take an over-full entry list and return two groups,
each holding at least ``min_fill`` entries.

CPU accounting: the paper's construction-time "bbox" column counts
bounding-box *overlap tests*, not the area arithmetic inside a split
(its reported counts are far too small to include quadratic seed
picking). A split is therefore charged one bbox test per entry
distributed — the cost of one classification pass — through the optional
``metrics`` collector.
"""

from __future__ import annotations

from typing import Callable

from ..errors import TreeError
from ..geometry import union_all
from ..kernels import kernels_enabled, quadratic_split_indices
from ..metrics import MetricsCollector
from .node import Entry

#: ``(entries, min_fill, metrics, fast)``: the tree passes its execution
#: path as ``fast``, which a split with one implementation ignores.
SplitFunction = Callable[
    [list[Entry], int, MetricsCollector | None, bool],
    tuple[list[Entry], list[Entry]],
]


def quadratic_split(
    entries: list[Entry],
    min_fill: int,
    metrics: MetricsCollector | None = None,
    fast: bool | None = None,
) -> tuple[list[Entry], list[Entry]]:
    """Guttman's quadratic split.

    Picks as seeds the pair of entries that would waste the most area if
    grouped together, then assigns each remaining entry to the group whose
    bounding box it enlarges least, honouring the minimum fill.
    ``fast=None`` reads ``REPRO_KERNELS`` once.
    """
    n = len(entries)
    if n < 2:
        raise TreeError("cannot split fewer than 2 entries")
    if min_fill * 2 > n:
        raise TreeError(
            f"min_fill {min_fill} impossible for {n} entries"
        )

    if fast is None:
        fast = kernels_enabled()
    if fast:
        # Column-batch twin of the loops below: same seeds, same
        # assignments, same tie-breaks (None means the input triggered
        # a scalar-only corner such as NaN waste, so fall through).
        mbrs = [e.mbr for e in entries]
        groups = quadratic_split_indices(
            [r.xlo for r in mbrs], [r.ylo for r in mbrs],
            [r.xhi for r in mbrs], [r.yhi for r in mbrs], min_fill,
        )
        if groups is not None:
            if metrics is not None:
                metrics.count_bbox_tests(n)
            idx_a, idx_b = groups
            return [entries[k] for k in idx_a], [entries[k] for k in idx_b]

    # --- PickSeeds: maximise d = area(union) - area(e1) - area(e2) ----- #
    # When no pair's waste exceeds -inf (every area overflowed to inf,
    # so each d is NaN or -inf), the first pair seeds the groups.
    seed_a, seed_b = 0, 1
    worst = float("-inf")
    areas = [e.mbr.area() for e in entries]
    for i in range(n):
        mi = entries[i].mbr
        for j in range(i + 1, n):
            mj = entries[j].mbr
            d = mi.union(mj).area() - areas[i] - areas[j]
            if d > worst:
                worst = d
                seed_a, seed_b = i, j

    group_a = [entries[seed_a]]
    group_b = [entries[seed_b]]
    box_a = entries[seed_a].mbr
    box_b = entries[seed_b].mbr
    remaining = [e for k, e in enumerate(entries) if k not in (seed_a, seed_b)]

    # --- PickNext loop ------------------------------------------------- #
    while remaining:
        # If one group must absorb everything left to reach min fill,
        # short-circuit (Guttman's termination condition).
        if len(group_a) + len(remaining) == min_fill:
            group_a.extend(remaining)
            remaining = []
            break
        if len(group_b) + len(remaining) == min_fill:
            group_b.extend(remaining)
            remaining = []
            break

        # Pick the entry with the greatest preference |d1 - d2|.
        best_idx = -1
        best_pref = -1.0
        best_d1 = best_d2 = 0.0
        for k, e in enumerate(remaining):
            d1 = box_a.enlargement(e.mbr)
            d2 = box_b.enlargement(e.mbr)
            pref = abs(d1 - d2)
            if pref > best_pref:
                best_pref = pref
                best_idx = k
                best_d1, best_d2 = d1, d2
        chosen = remaining.pop(best_idx)

        # Resolve ties: smaller enlargement, then smaller area, then size.
        if best_d1 < best_d2:
            to_a = True
        elif best_d2 < best_d1:
            to_a = False
        elif box_a.area() < box_b.area():
            to_a = True
        elif box_b.area() < box_a.area():
            to_a = False
        else:
            to_a = len(group_a) <= len(group_b)
        if to_a:
            group_a.append(chosen)
            box_a = box_a.union(chosen.mbr)
        else:
            group_b.append(chosen)
            box_b = box_b.union(chosen.mbr)

    if metrics is not None:
        metrics.count_bbox_tests(n)
    return group_a, group_b


def linear_split(
    entries: list[Entry],
    min_fill: int,
    metrics: MetricsCollector | None = None,
    fast: bool = False,
) -> tuple[list[Entry], list[Entry]]:
    """Guttman's linear split (ablation alternative).

    Seeds are the pair with the greatest normalised separation along
    either axis; the rest are assigned by least enlargement in input
    order.
    """
    n = len(entries)
    if n < 2:
        raise TreeError("cannot split fewer than 2 entries")
    if min_fill * 2 > n:
        raise TreeError(f"min_fill {min_fill} impossible for {n} entries")

    total = union_all(e.mbr for e in entries)

    def normalised_separation(axis_lo: str, axis_hi: str, extent: float):
        # Highest low side vs. lowest high side along one axis.
        highest_low = max(range(n), key=lambda k: getattr(entries[k].mbr, axis_lo))
        lowest_high = min(range(n), key=lambda k: getattr(entries[k].mbr, axis_hi))
        if highest_low == lowest_high:
            return 0.0, highest_low, lowest_high
        sep = (
            getattr(entries[highest_low].mbr, axis_lo)
            - getattr(entries[lowest_high].mbr, axis_hi)
        )
        return (sep / extent if extent > 0 else 0.0), highest_low, lowest_high

    sx, ax, bx = normalised_separation("xlo", "xhi", total.width)
    sy, ay, by = normalised_separation("ylo", "yhi", total.height)
    if sx >= sy:
        seed_a, seed_b = ax, bx
    else:
        seed_a, seed_b = ay, by
    if seed_a == seed_b:  # fully degenerate input; any split is as good
        seed_b = (seed_a + 1) % n

    group_a = [entries[seed_a]]
    group_b = [entries[seed_b]]
    box_a = entries[seed_a].mbr
    box_b = entries[seed_b].mbr
    remaining = [e for k, e in enumerate(entries) if k not in (seed_a, seed_b)]

    for idx, e in enumerate(remaining):
        left = len(remaining) - idx
        if len(group_a) + left == min_fill:
            group_a.extend(remaining[idx:])
            break
        if len(group_b) + left == min_fill:
            group_b.extend(remaining[idx:])
            break
        d1 = box_a.enlargement(e.mbr)
        d2 = box_b.enlargement(e.mbr)
        if d1 < d2 or (d1 == d2 and len(group_a) <= len(group_b)):
            group_a.append(e)
            box_a = box_a.union(e.mbr)
        else:
            group_b.append(e)
            box_b = box_b.union(e.mbr)

    if metrics is not None:
        metrics.count_bbox_tests(n)
    return group_a, group_b


def check_split(
    original: list[Entry],
    groups: tuple[list[Entry], list[Entry]],
    min_fill: int,
) -> None:
    """Validate a split result; raises :class:`TreeError` on violation.

    Used by tests and by the tree's internal assertions: both groups must
    be non-empty, meet the minimum fill, and partition the input exactly.
    """
    group_a, group_b = groups
    if len(group_a) < min_fill or len(group_b) < min_fill:
        raise TreeError("split produced an under-filled group")
    if len(group_a) + len(group_b) != len(original):
        raise TreeError("split lost or duplicated entries")
    seen = {id(e) for e in group_a} | {id(e) for e in group_b}
    if seen != {id(e) for e in original}:
        raise TreeError("split changed the entry set")
