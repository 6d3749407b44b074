"""Re-seed policies and the maintenance procedure they trigger.

A stale seeded tree is refreshed by :func:`rebuild_seeded`: read every
object out of the old tree, copy fresh seed levels from the partner's
current top, and grow a brand-new tree. That is the paper's own
construction (Section 2.1) run again, charged to the maintenance
(CONSTRUCT) phase because it is index construction.

:class:`ReseedPolicy` objects decide *when* a rebuild is worth it from
a :class:`~repro.dynamic.staleness.StalenessSnapshot`.
:class:`ReseedManager` glues tracker, policy, and procedure to one
resident tree.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum
from typing import Callable

from ..errors import SeedingError
from ..join.lifetime import free_scratch
from ..rtree import RTree
from ..rtree.node import Entry
from ..seeded import SeededTree
from ..workspace import Workspace
from .staleness import StalenessSnapshot, StalenessTracker


class ReseedDecision(Enum):
    NONE = "none"
    REBUILD = "rebuild"


class ReseedPolicy(ABC):
    """Maps a staleness snapshot to a maintenance decision."""

    name = "reseed-policy"

    @abstractmethod
    def decide(self, snap: StalenessSnapshot) -> ReseedDecision:
        ...


class NeverReseed(ReseedPolicy):
    """The do-nothing baseline: ride the drifted tree forever."""

    name = "never"

    def decide(self, snap: StalenessSnapshot) -> ReseedDecision:
        return ReseedDecision.NONE


class AlwaysRebuild(ReseedPolicy):
    """The paranoid baseline: full rebuild whenever the partner moved."""

    name = "always-rebuild"

    def decide(self, snap: StalenessSnapshot) -> ReseedDecision:
        if snap.partner_churn > 0:
            return ReseedDecision.REBUILD
        return ReseedDecision.NONE


class StalenessThreshold(ReseedPolicy):
    """Trigger on structural drift: dilation and occupancy skew.

    Rebuild when either signal crosses its bar; ride the drift
    otherwise.
    """

    name = "staleness-threshold"

    def __init__(self, rebuild_at: float = 2.0, skew_at: float = 4.0) -> None:
        if rebuild_at <= 0:
            raise ValueError("need rebuild_at > 0")
        self.rebuild_at = rebuild_at
        self.skew_at = skew_at

    def decide(self, snap: StalenessSnapshot) -> ReseedDecision:
        if (snap.seed_dilation >= self.rebuild_at
                or snap.occupancy_skew >= self.skew_at):
            return ReseedDecision.REBUILD
        return ReseedDecision.NONE


# --------------------------------------------------------------------- #
# Maintenance procedure
# --------------------------------------------------------------------- #


def _drain_tree(tree: SeededTree) -> list[tuple]:
    """Read every object out of a tree (accounted) and free its pages."""
    entries: list[Entry] = []
    tree._flatten_subtree(tree.root_id, entries)
    return [(e.mbr, e.ref) for e in entries]


def _make_successor(
    old: SeededTree, partner: RTree, seed_levels: int | None
) -> SeededTree:
    # Churn may have shrunk the partner below the old seeding depth;
    # clamp so seeding stays legal (slots need pointer entries).
    k = min(seed_levels or old.seed_levels, partner.height - 1)
    if k < 1:
        raise SeedingError(
            "partner tree has no internal levels left to seed from"
        )
    return SeededTree(
        old.buffer, old.config, old.metrics,
        copy_strategy=old.copy_strategy,
        update_policy=old.update_policy,
        seed_levels=k,
        # Filtering drops objects that cannot *join*; a retained index
        # must keep everything, so successors never filter.
        filtering=False,
        split=old.split,
        name=old.name,
    )


def rebuild_seeded(
    workspace: Workspace,
    old: SeededTree,
    partner: RTree,
    seed_levels: int | None = None,
) -> SeededTree:
    """Full rebuild: drain the old tree, re-seed, re-grow. Accounted
    under the maintenance phase. The drain frees the old tree's pages,
    frames without write-back and images alike, and the rebuild then
    frees what its construction allocated and the successor does not
    hold (pruned seed nodes, linked-list batches), as a join does; so a
    resident tree rebuilt again and again does not grow the disk."""
    start = old.buffer.disk.allocated_pages
    with workspace.maintenance_phase():
        data = _drain_tree(old)
        tree = _make_successor(old, partner, seed_levels)
        tree.seed(partner)
        tree.grow_from(data)
        tree.cleanup()
    free_scratch(tree.buffer, start, tree)
    return tree


# --------------------------------------------------------------------- #
# Manager
# --------------------------------------------------------------------- #


class ReseedManager:
    """Owns one resident seeded tree's staleness loop.

    Call :meth:`evaluate` at maintenance points. When the policy fires,
    the tree is rebuilt, the tracker re-baselines, and subscribers
    (update streams, the incremental join) are re-pointed at the
    successor.
    """

    def __init__(
        self,
        workspace: Workspace,
        tree: SeededTree,
        partner: RTree,
        policy: ReseedPolicy,
        tracker: StalenessTracker | None = None,
    ) -> None:
        self.workspace = workspace
        self.tree = tree
        self.partner = partner
        self.policy = policy
        self.tracker = tracker or StalenessTracker()
        self.tracker.rebaseline(partner, tree)
        self.rebuilds = 0
        self._subscribers: list[Callable[[SeededTree], None]] = []

    def subscribe(self, callback: Callable[[SeededTree], None]) -> None:
        """Register to be re-pointed when the tree is replaced."""
        self._subscribers.append(callback)

    def measure(self) -> StalenessSnapshot:
        return self.tracker.measure(self.partner, self.tree)

    def evaluate(self) -> tuple[ReseedDecision, StalenessSnapshot]:
        """Measure, decide, and execute; returns what happened."""
        snap = self.measure()
        decision = self.policy.decide(snap)
        if decision is ReseedDecision.NONE:
            return decision, snap
        if self.partner.height <= 1:
            # Nothing to seed from; keep the current tree.
            return ReseedDecision.NONE, snap
        successor = rebuild_seeded(self.workspace, self.tree, self.partner)
        self.rebuilds += 1
        self.tree = successor
        self.tracker.rebaseline(self.partner, successor)
        for callback in self._subscribers:
            callback(successor)
        return decision, snap
