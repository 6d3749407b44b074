"""Seeded-tree staleness: how far the seeds have drifted from reality.

The paper copies the partner tree's top ``k`` levels once, at build
time (Section 2.1), and never revisits them. Under churn the partner's
node boxes move while the seeded tree's internal structure stays where
the *old* boxes put it, so slot guidance degrades: inserts land in
slots whose true region moved away, subtrees overlap, and join cost
creeps above what the planner predicts. :class:`StalenessTracker`
quantifies that drift with two structural signals:

* **seed dilation** — how much the recorded seed-source boxes must
  grow to cover the partner's *current* boxes at the same depth
  (area-weighted enlargement; 0 = unchanged);
* **occupancy skew** — max/mean object count under the seeded tree's
  top-level entries (1 = perfectly even; grows as churn concentrates
  data in slots the old seeds happened to favour).

Reads here use unaccounted introspection: the tracker models metadata
a resident-index owner would maintain alongside the tree (the paper's
cost model charges data-path I/O, not bookkeeping).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..geometry import Rect
from ..rtree import RTree
from ..rtree.node import Node
from ..seeded import SeededTree


@dataclass(frozen=True)
class StalenessSnapshot:
    """One staleness measurement; inputs to a re-seed policy."""

    seed_dilation: float       # area-weighted box drift, 0 = fresh
    occupancy_skew: float      # max/mean top-entry occupancy, 1 = even
    partner_churn: int         # partner mutations since the baseline


def partner_seed_boxes(partner: RTree, seed_levels: int) -> list[Rect]:
    """The partner entry boxes a ``seed_levels``-deep seeding would copy.

    These are the entry MBRs of the nodes at depth ``k - 1`` — exactly
    the boxes that become slots in :meth:`repro.seeded.SeededTree.seed`.
    Falls back to the deepest internal level when churn has shrunk the
    partner below ``k + 1`` levels.
    """
    depth = min(seed_levels, max(partner.height - 1, 1)) - 1
    nodes: list[Node] = [partner._node_unaccounted(partner.root_id)]
    for _ in range(depth):
        children: list[Node] = []
        for node in nodes:
            if node.is_leaf:
                continue
            children.extend(
                partner._node_unaccounted(e.ref) for e in node.entries
            )
        if not children:
            break
        nodes = children
    out: list[Rect] = []
    for node in nodes:
        if not node.is_leaf:
            out.extend(e.mbr for e in node.entries)
    return out


def occupancy_skew(tree: SeededTree) -> float:
    """Max/mean leaf-object count under the tree's top-level entries."""
    root = tree._node_unaccounted(tree.root_id)
    if root.is_leaf or not root.entries:
        return 1.0

    def count_below(page_id: int) -> int:
        node = tree._node_unaccounted(page_id)
        if node.is_leaf:
            return len(node.entries)
        return sum(count_below(e.ref) for e in node.entries)

    counts = [count_below(e.ref) for e in root.entries]
    total = sum(counts)
    if total == 0:
        return 1.0
    return max(counts) * len(counts) / total


class StalenessTracker:
    """Accumulates drift evidence between re-baselines."""

    def __init__(self) -> None:
        self._boxes: list[Rect] = []
        self._baseline_mutations = 0

    def rebaseline(self, partner: RTree, tree: SeededTree) -> None:
        """Record the partner boxes the current seeds correspond to."""
        self._boxes = partner_seed_boxes(partner, tree.seed_levels)
        self._baseline_mutations = partner.mutations

    def seed_dilation(self, partner: RTree, seed_levels: int) -> float:
        """Area-weighted growth of recorded boxes to cover current ones.

        For each current box the nearest recorded box (center distance)
        is found and its enlargement to cover the current box summed;
        the total is normalized by the recorded area so the figure is
        scale-free. O(n·m) over two slot-level box lists — hundreds of
        boxes, not data objects.
        """
        if not self._boxes:
            return 0.0
        current = partner_seed_boxes(partner, seed_levels)
        if not current:
            return 0.0
        base_area = sum(b.area() for b in self._boxes) or 1e-12
        growth = 0.0
        for cur in current:
            nearest = min(
                self._boxes, key=lambda b: b.center_distance_sq(cur)
            )
            growth += nearest.enlargement(cur)
        return growth / base_area

    def measure(self, partner: RTree, tree: SeededTree) -> StalenessSnapshot:
        return StalenessSnapshot(
            seed_dilation=self.seed_dilation(partner, tree.seed_levels),
            occupancy_skew=occupancy_skew(tree),
            partner_churn=partner.mutations - self._baseline_mutations,
        )
