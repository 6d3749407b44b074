"""The seeded tree (Section 2 of the paper).

Lifecycle::

    tree = SeededTree(buffer, config, metrics, ...)
    tree.seed(t_r)              # seeding phase: copy T_R's top k levels
    tree.grow_from(datafile)    # growing phase: insert every D_S object
    tree.cleanup()              # clean-up phase: true MBRs, prune slots
    # ready: match with TM, or use as an ordinary selection index

Structure: the top ``k`` levels are *seed levels* copied (and transformed
by a :class:`~repro.seeded.policies.CopyStrategy`) from the seeding tree.
Entries of the last seed level are *slots*; each non-empty slot points at
a *grown subtree*, an ordinary R-tree that grows independently — node
splits never propagate into the seed levels, and when a grown subtree's
root splits, the slot pointer is simply redirected to the new root. The
tree is therefore generally unbalanced, which the TM matching algorithm
tolerates.

During the growing phase the seed bounding boxes only *guide* insertion
(they need not bound anything); a :class:`~repro.seeded.policies.UpdatePolicy`
says how they react to insertions. The clean-up phase restores true
minimum bounding boxes everywhere and deletes empty slots.

Two Section-3 techniques plug in here:

* intermediate linked lists (:mod:`repro.seeded.linked_lists`) replace
  random construction I/O with sequential batches when the estimated tree
  size exceeds the buffer;
* seed-level filtering (:mod:`repro.seeded.filtering`) drops objects that
  provably cannot join, using ``shadow`` boxes carried by seed entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator

from ..config import SystemConfig
from ..errors import SeedingError, TreeError, TreePhaseError
from ..geometry import Rect
from ..kernels import (
    all_points,
    kernels_enabled,
    least_enlargement_index,
    min_center_distance_index,
)
from ..metrics import MetricsCollector
from ..rtree.insertion import insert_into_subtree, new_node
from ..rtree.node import Entry, Node, node_mbr
from ..rtree.query import nearest_neighbors as shared_nearest_neighbors
from ..rtree.query import window_query as shared_window_query
from ..rtree.rtree import RTree, find_leaf_path
from ..rtree.split import SplitFunction, quadratic_split
from ..storage import BufferPool
from ..storage.datafile import DataFile
from .filtering import passes_filter
from .linked_lists import LinkedListManager
from .policies import CopyStrategy, UpdatePolicy, apply_update

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .recovery import GrowCheckpointer, GrowSalvage


def tile_order(rects: list[Rect], capacity: int) -> list[Rect]:
    """Sort-Tile order of artificial seed boxes, ``capacity`` per node."""
    groups = math.ceil(len(rects) / capacity)
    slices = max(1, math.ceil(math.sqrt(groups)))
    per_slice = slices * capacity
    by_x = sorted(rects, key=lambda r: r.xlo + r.xhi)
    ordered: list[Rect] = []
    for s in range(0, len(by_x), per_slice):
        ordered.extend(
            sorted(by_x[s:s + per_slice], key=lambda r: r.ylo + r.yhi)
        )
    return ordered


class TreePhase(Enum):
    """Where a seeded tree is in its lifecycle."""

    CREATED = "created"
    SEEDED = "seeded"
    READY = "ready"


@dataclass(slots=True)
class _Slot:
    """Join-time state of one slot (an (mbr, cp) pair at level k-1)."""

    index: int
    root_id: int = -1      # grown-subtree root page; -1 = empty slot
    count: int = 0         # objects inserted through this slot
    root_level: int = 0    # grown-subtree height - 1 (grows on root split)
    true_mbr: Rect | None = None  # exact union of all data under the slot


@dataclass(frozen=True)
class SeededTreeStats:
    """Construction statistics, useful for experiments and tests."""

    seed_levels: int
    num_slots: int
    used_slots: int
    inserted: int
    filtered: int
    list_batches: int
    list_pages_flushed: int


class SeededTree:
    """A join-time index seeded from an existing R-tree.

    Parameters
    ----------
    buffer, config, metrics:
        The shared storage stack and cost collector.
    copy_strategy:
        How seed bounding boxes are derived from the seeding tree
        (Section 2.1); default C3, the paper's best.
    update_policy:
        How traversed seed boxes react to insertions (Section 2.2);
        default U3 — together with C3 this is the paper's STJ1.
    seed_levels:
        Number of levels ``k`` to copy from the seeding tree; must be at
        least 1 and leave at least one pointer level (``k < height``).
    filtering:
        Enable seed-level filtering (Section 3.2).
    use_linked_lists:
        Force linked-list construction on/off; ``None`` (default) decides
        automatically by comparing the estimated tree size against the
        buffer size, as the paper prescribes.
    fast:
        Fast path or scalar reference for descent, filtering, growth,
        splits and window queries; ``None`` reads ``REPRO_KERNELS`` once.
    """

    def __init__(
        self,
        buffer: BufferPool,
        config: SystemConfig,
        metrics: MetricsCollector | None = None,
        *,
        copy_strategy: CopyStrategy = CopyStrategy.CENTER_AT_SLOTS,
        update_policy: UpdatePolicy = UpdatePolicy.ENCLOSE_DATA_ONLY,
        seed_levels: int = 2,
        filtering: bool = False,
        use_linked_lists: bool | None = None,
        split: SplitFunction = quadratic_split,
        name: str = "",
        fast: bool | None = None,
    ):
        if seed_levels < 1:
            raise SeedingError("a seeded tree needs at least one seed level")
        self.buffer = buffer
        self.config = config
        self.metrics = metrics
        self.copy_strategy = copy_strategy
        self.update_policy = update_policy
        self.seed_levels = seed_levels
        self.filtering = filtering
        self.use_linked_lists = use_linked_lists
        self.split = split
        self.name = name
        self.fast = kernels_enabled() if fast is None else fast
        self.capacity = config.node_capacity
        self.min_fill = config.node_min_fill

        self.phase = TreePhase.CREATED
        self.root_id = -1
        # Monotone edit stamp for retained-index use, mirroring
        # RTree.mutations: caches keyed on tree identity use it to tell
        # "same object" from "same contents".
        self.mutations = 0
        self._slots: list[_Slot] = []
        self._seed_page_ids: list[int] = []
        self._lists: LinkedListManager | None = None
        self._list_batches = 0
        self._list_pages_flushed = 0
        self._count = 0
        self._filtered = 0

    # ----------------------------------------------------------------- #
    # Node access (same duck-type as RTree)
    # ----------------------------------------------------------------- #

    def read_node(self, page_id: int, pin: bool = False) -> Node:
        node = self.buffer.fetch(page_id, pin=pin).payload
        if not isinstance(node, Node):
            raise TreeError(f"page {page_id} does not hold a tree node")
        return node

    def _node_unaccounted(self, page_id: int) -> Node:
        page = self.buffer.peek(page_id) or self.buffer.disk.peek(page_id)
        if page is None:
            raise TreeError(f"node page {page_id} not found")
        return page.payload

    # ----------------------------------------------------------------- #
    # Phase 1: seeding
    # ----------------------------------------------------------------- #

    def seed(self, seeding_tree: RTree) -> None:
        """Copy the top ``k`` levels of ``seeding_tree`` into seed levels.

        Reads of the seeding tree's nodes are accounted (they go through
        the shared buffer). The created seed pages are not pinned — every
        insertion traverses them, so the LRU buffer keeps them hot; under
        extreme pressure (seed levels rivalling the buffer size) they
        page in and out with honest I/O charges instead of deadlocking
        the pool.
        """
        if self.phase is not TreePhase.CREATED:
            raise TreePhaseError(f"cannot seed in phase {self.phase.value}")
        self._check_seeding_tree(seeding_tree)
        k = self.seed_levels

        # Breadth-first copy of T_R levels 0 .. k-1. Seed nodes carry a
        # provisional level (fixed up at clean-up); what matters during
        # growing is the depth-based structure.
        source_root = seeding_tree.read_node(seeding_tree.root_id)
        root_copy = self._copy_seed_node(source_root, depth=0)
        self.root_id = root_copy.page_id
        frontier = [(source_root, root_copy)]
        for depth in range(1, k):
            next_frontier = []
            for source, copy in frontier:
                for src_entry, dst_entry in zip(source.entries, copy.entries):
                    child_src = seeding_tree.read_node(src_entry.ref)
                    child_copy = self._copy_seed_node(child_src, depth)
                    dst_entry.ref = child_copy.page_id
                    next_frontier.append((child_src, child_copy))
            frontier = next_frontier

        # The deepest copied nodes are the slot level: their entries
        # become slots (paper: pointer fields set to NULL; here the ref
        # temporarily holds the slot index).
        for _, copy in frontier:
            for entry in copy.entries:
                slot = _Slot(index=len(self._slots))
                entry.ref = slot.index
                self._slots.append(slot)

        self._apply_copy_strategy()
        self.phase = TreePhase.SEEDED

    def seed_from_boxes(self, boxes: list[Rect]) -> None:
        """Artificial seeding for the two-seeded-tree scenario (Section 5).

        When neither join input has a usable R-tree, the paper suggests a
        common set of seed levels "artificially constructed rather than
        being copied from any pre-computed R-tree" — e.g. slots that
        uniformly divide the map area, or boxes obtained by spatial
        sampling. ``boxes`` become the slot bounding boxes; parent seed
        levels are packed above them (Sort-Tile order) until a single
        root remains, and ``seed_levels`` is set accordingly.

        Seed-level filtering is rejected here: artificial boxes carry no
        guarantee of covering the other operand, so a shadow test could
        drop objects that do join.
        """
        if self.phase is not TreePhase.CREATED:
            raise TreePhaseError(f"cannot seed in phase {self.phase.value}")
        self._check_seed_boxes(boxes)

        # Bottom level: slot nodes over the given boxes.
        ordered = tile_order(boxes, self.capacity)
        level_nodes: list[Node] = []
        for off in range(0, len(ordered), self.capacity):
            chunk = ordered[off:off + self.capacity]
            entries = [Entry(r, -1) for r in chunk]
            node = new_node(self, 1, entries)
            self._seed_page_ids.append(node.page_id)
            level_nodes.append(node)

        # Parent levels until a single root remains.
        depth_count = 1
        while len(level_nodes) > 1:
            parents: list[Node] = []
            for off in range(0, len(level_nodes), self.capacity):
                chunk = level_nodes[off:off + self.capacity]
                entries = [
                    Entry(node_mbr(child), child.page_id) for child in chunk
                ]
                node = new_node(self, 1, entries)
                self._seed_page_ids.append(node.page_id)
                parents.append(node)
            level_nodes = parents
            depth_count += 1

        self.seed_levels = depth_count
        self.root_id = level_nodes[0].page_id

        # Assign provisional levels (root highest) and register slots.
        by_depth = self._seed_nodes_by_depth()
        for depth, nodes in enumerate(by_depth):
            for node in nodes:
                node.level = self.seed_levels - depth
        for node in by_depth[-1]:
            for entry in node.entries:
                slot = _Slot(index=len(self._slots))
                entry.ref = slot.index
                self._slots.append(slot)

        self._apply_copy_strategy()
        self.phase = TreePhase.SEEDED

    def _check_seeding_tree(self, seeding_tree: RTree) -> None:
        """Raise unless ``seeding_tree`` is tall enough for the seed levels."""
        k = self.seed_levels
        if k >= seeding_tree.height:
            raise SeedingError(
                f"{k} seed levels requested but the seeding tree has only "
                f"{seeding_tree.height} levels (slots need pointer entries)"
            )

    def _check_seed_boxes(self, boxes: list[Rect]) -> None:
        """Raise unless artificial seeding over ``boxes`` is sound."""
        if self.filtering:
            raise SeedingError(
                "seed-level filtering needs shadows copied from a real "
                "R-tree; artificial seeds cannot filter safely"
            )
        if not boxes:
            raise SeedingError("artificial seeding needs at least one box")

    def _copy_seed_node(self, source: Node, depth: int) -> Node:
        """Materialise one seed node copied from a seeding-tree node."""
        entries = []
        for e in source.entries:
            mbr = Rect(e.mbr.xlo, e.mbr.ylo, e.mbr.xhi, e.mbr.yhi)
            shadow = mbr if self.filtering else None
            entries.append(Entry(mbr, e.ref, shadow=shadow))
        # Provisional level: anything positive keeps is_leaf False.
        node = new_node(self, self.seed_levels - depth, entries)
        self._seed_page_ids.append(node.page_id)
        return node

    def _apply_copy_strategy(self) -> None:
        """Transform seed bounding boxes per C1/C2/C3 (Section 2.1)."""
        if self.copy_strategy is CopyStrategy.MBR:
            return
        nodes_by_depth = self._seed_nodes_by_depth()
        slot_depth = self.seed_levels - 1
        if self.copy_strategy is CopyStrategy.CENTER:
            for nodes in nodes_by_depth:
                for node in nodes:
                    for entry in node.entries:
                        entry.mbr = entry.mbr.center_rect()
                    node.invalidate_caches()
            return
        # C3: center points at the slot level; true MBR of the
        # (transformed) children everywhere above, computed bottom-up.
        for node in nodes_by_depth[slot_depth]:
            for entry in node.entries:
                entry.mbr = entry.mbr.center_rect()
            node.invalidate_caches()
        for depth in range(slot_depth - 1, -1, -1):
            for node in nodes_by_depth[depth]:
                for entry in node.entries:
                    child = self._node_unaccounted(entry.ref)
                    entry.mbr = node_mbr(child)
                node.invalidate_caches()

    def _seed_nodes_by_depth(self) -> list[list[Node]]:
        """Seed nodes grouped by depth (0 = root); unaccounted access."""
        levels: list[list[Node]] = [
            [self._node_unaccounted(self.root_id)]
        ]
        for depth in range(1, self.seed_levels):
            children = []
            for node in levels[depth - 1]:
                children.extend(
                    self._node_unaccounted(e.ref) for e in node.entries
                )
            levels.append(children)
        return levels

    # ----------------------------------------------------------------- #
    # Phase 2: growing
    # ----------------------------------------------------------------- #

    def grow_from(
        self,
        source: DataFile | Iterable[tuple[Rect, int]],
        *,
        checkpointer: "GrowCheckpointer | None" = None,
        resume: "GrowSalvage | None" = None,
    ) -> None:
        """Insert every object of ``source`` (the data set ``D_S``).

        A :class:`DataFile` is scanned sequentially (accounted); a plain
        iterable is consumed directly. Linked-list construction is
        switched on automatically when the estimated tree size exceeds
        the buffer, unless forced either way at construction time.

        ``checkpointer`` takes a durable growing-phase checkpoint every
        N inserts (see :mod:`repro.seeded.recovery`); ``resume`` replays
        a salvage record from a crashed previous attempt — the flushed
        batches are adopted, counters restored, and the already-scanned
        input prefix skipped (its scan I/O is still charged: recovery
        re-reads the input). Resuming forces linked-list mode, since
        that is the only mode that leaves durable state to salvage.
        """
        if self.phase is not TreePhase.SEEDED:
            raise TreePhaseError(f"cannot grow in phase {self.phase.value}")
        if isinstance(source, DataFile):
            expected = len(source)
            entries: Iterable[tuple[Rect, int]] = source.scan()
        else:
            entries = list(source)
            expected = len(entries)  # type: ignore[arg-type]

        use_lists = self.use_linked_lists
        if use_lists is None:
            estimated = self.config.estimated_tree_pages(expected)
            use_lists = estimated > self.buffer.capacity
        if resume is not None:
            use_lists = True
        if use_lists and self._lists is None:
            # Leave room for the hot seed pages, but never let huge seed
            # levels squeeze the lists below half the buffer.
            budget = max(
                self.buffer.capacity // 2,
                self.buffer.capacity - len(self._seed_page_ids),
            )
            self._lists = LinkedListManager(
                self.buffer.disk, self.config, len(self._slots), budget
            )
        if resume is not None:
            self._adopt_salvage(resume)

        skip = resume.entries_scanned if resume is not None else 0
        scanned = 0
        for rect, oid in entries:
            scanned += 1
            if scanned <= skip:
                continue
            self.insert(rect, oid)
            if checkpointer is not None:
                checkpointer.maybe_checkpoint(self, scanned)

    def _adopt_salvage(self, salvage: "GrowSalvage") -> None:
        """Restore the durable state of a crashed growing phase.

        The caller must have re-seeded this tree from the same seeding
        tree (seeding is deterministic, so slot indices line up); a slot
        count mismatch means the salvage belongs to a different seeding
        and is rejected.
        """
        from ..errors import RecoveryError

        if len(salvage.slot_counts) != len(self._slots):
            raise RecoveryError(
                f"salvage record has {len(salvage.slot_counts)} slots; "
                f"this tree has {len(self._slots)}"
            )
        if self._count or any(s.count for s in self._slots):
            raise RecoveryError(
                "cannot adopt a salvage record into a tree that has "
                "already grown"
            )
        assert self._lists is not None
        self._lists.adopt_batches(salvage.batches)
        self._count = salvage.inserted
        self._filtered = salvage.filtered
        for slot, count in zip(self._slots, salvage.slot_counts):
            slot.count = count

    def insert(self, rect: Rect, oid: int) -> None:
        """Insert one object: filter, descend the seed levels, grow."""
        if self.phase is not TreePhase.SEEDED:
            raise TreePhaseError(f"cannot insert in phase {self.phase.value}")

        if self.filtering and not passes_filter(
            self.read_node(self.root_id), self.seed_levels, rect,
            self.read_node, self.metrics, fast=self.fast,
        ):
            self._filtered += 1
            return

        slot = self._descend_to_slot(rect)
        if self._lists is not None:
            self._lists.append(slot.index, (rect, oid))
        else:
            self._insert_through_slot(slot, rect, oid)
        slot.count += 1
        self._count += 1

    def _descend_to_slot(self, rect: Rect) -> _Slot:
        """Root-to-slot descent, applying the update policy on the way."""
        node = self.read_node(self.root_id)
        for depth in range(self.seed_levels):
            at_slot_level = depth == self.seed_levels - 1
            entry, idx = self._choose_seed_entry(node, rect)
            if apply_update(self.update_policy, entry, rect, at_slot_level):
                # The update rewrote exactly one entry's box: patch that
                # row instead of dropping the whole column cache, which
                # would force a rebuild on every descent.
                node.patch_entry_mbr(idx)
                self.buffer.mark_dirty(node.page_id)
            if at_slot_level:
                return self._slots[entry.ref]
            node = self.read_node(entry.ref)
        raise TreeError("descent fell through the slot level")  # unreachable

    def _choose_seed_entry(self, node: Node, rect: Rect) -> tuple[Entry, int]:
        """Pick the guiding entry (and its index) for one seed node.

        The paper's criterion depends on what the bounding-box fields
        hold: center points are compared by center distance, areas by
        least enlargement. When updates have turned only some boxes into
        real rectangles, least enlargement is used for all (a degenerate
        box's enlargement grows with distance, so the criteria agree in
        spirit). The index lets :meth:`_descend_to_slot` patch the one
        cache row an update rewrites.
        """
        entries = node.entries
        if not entries:
            raise TreeError("seed node with no entries")
        if self.metrics is not None:
            # One classification pass per node visited, matching the
            # granularity of the R-tree's choose_subtree accounting.
            self.metrics.count_bbox_tests(1)
        if self.fast:
            # The update policies rewrite one box per visited node, but
            # the descent patches that single cache row, so the column
            # caches stay warm across inserts.
            arr = node.rect_array()
            # None on a NaN distance or enlargement: the scalar loop
            # decides.
            if all_points(arr):
                idx = min_center_distance_index(arr, rect)
            else:
                idx = least_enlargement_index(arr, rect)
            if idx is not None:
                return entries[idx], idx
        if all(e.mbr.is_point() for e in entries):
            # First-minimum semantics, same winner as min() over the
            # entries (and as the center-distance kernel).
            best_idx = 0
            best_d = entries[0].mbr.center_distance_sq(rect)
            for i, e in enumerate(entries[1:], 1):
                d = e.mbr.center_distance_sq(rect)
                if d < best_d:
                    best_idx, best_d = i, d
            return entries[best_idx], best_idx
        best_idx = 0
        best_enl = entries[0].mbr.enlargement(rect)
        best_area = entries[0].mbr.area()
        for i, e in enumerate(entries[1:], 1):
            enl = e.mbr.enlargement(rect)
            if enl < best_enl or (enl == best_enl and e.mbr.area() < best_area):
                best_idx, best_enl, best_area = i, enl, e.mbr.area()
        return entries[best_idx], best_idx

    def _insert_through_slot(self, slot: _Slot, rect: Rect, oid: int) -> None:
        """Grow the slot's subtree by one entry (allocating it if new).

        Tracks the subtree's exact MBR and root level as it grows, so the
        clean-up phase can restore slot-entry bounding boxes without
        re-reading any grown pages.
        """
        if slot.root_id == -1:
            leaf = new_node(self, 0, [Entry(rect, oid)])
            slot.root_id = leaf.page_id
            slot.true_mbr = rect
        else:
            new_root = insert_into_subtree(self, slot.root_id, Entry(rect, oid))
            if new_root != slot.root_id:
                slot.root_id = new_root
                slot.root_level += 1
            slot.true_mbr = (
                rect if slot.true_mbr is None else slot.true_mbr.union(rect)
            )

    # ----------------------------------------------------------------- #
    # Phase 3: clean-up
    # ----------------------------------------------------------------- #

    def cleanup(self) -> None:
        """Finish construction: build listed subtrees, restore true MBRs.

        After this the bounding boxes of seed nodes are the true minimum
        bounding boxes of their children, empty slots are gone, seed
        levels carry consistent level numbers, and the tree is ready for
        matching or selection queries.
        """
        if self.phase is not TreePhase.SEEDED:
            raise TreePhaseError(f"cannot clean up in phase {self.phase.value}")

        if self._lists is not None:
            self._build_subtrees_from_lists()

        root = self.read_node(self.root_id, pin=True)
        try:
            if self._fix_seed_node(root, depth=0) is None:
                # Nothing was inserted: collapse to an empty leaf.
                root.entries = []
                root.level = 0
                root.invalidate_caches()
            self.buffer.mark_dirty(self.root_id)
        finally:
            self.buffer.unpin(self.root_id)
        self._seed_page_ids = []
        # One stamp bump covers the whole construction epoch: snapshots
        # are only taken from READY trees, so invalidating at the phase
        # transition subsumes every mutation made while growing,
        # including an adopted crash salvage.
        self.mutations += 1
        self.phase = TreePhase.READY

    def _build_subtrees_from_lists(self) -> None:
        """Construct the grown subtrees from the linked lists.

        The manager regroups the flushed data by slot with sequential
        sweeps only (see
        :meth:`~repro.seeded.linked_lists.LinkedListManager.regroup_and_drain`),
        so each grown subtree — a small fraction of the whole tree — is
        built exactly once and construction-time buffer misses all but
        vanish. This is the heart of the Section 3.1 optimisation.
        """
        assert self._lists is not None
        for slot_index, entries in self._lists.regroup_and_drain():
            slot = self._slots[slot_index]
            for rect, oid in entries:
                self._insert_through_slot(slot, rect, oid)
        self._list_batches = self._lists.batches_flushed
        self._list_pages_flushed = self._lists.pages_flushed
        self._lists = None

    def _fix_seed_node(self, node: Node, depth: int) -> int | None:
        """Restore true MBRs/levels below ``node``; prune empty branches.

        Returns the node's final level, or ``None`` when the subtree
        holds no data (the caller then drops the branch).
        """
        at_slot_level = depth == self.seed_levels - 1
        kept: list[Entry] = []
        child_levels: list[int] = []
        for entry in node.entries:
            if at_slot_level:
                slot = self._slots[entry.ref]
                if slot.root_id == -1:
                    continue  # empty slot: deleted by clean-up
                # The exact subtree MBR and level were tracked during
                # growth, so no grown page needs to be read here.
                assert slot.true_mbr is not None
                entry.ref = slot.root_id
                entry.mbr = slot.true_mbr
                entry.shadow = None
                kept.append(entry)
                child_levels.append(slot.root_level)
                continue
            child = self.read_node(entry.ref, pin=True)
            try:
                level = self._fix_seed_node(child, depth + 1)
            finally:
                self.buffer.unpin(child.page_id)
            if level is None:
                self.buffer.drop(child.page_id, write_back=False)
                continue
            entry.mbr = node_mbr(child)
            entry.shadow = None
            kept.append(entry)
            child_levels.append(child.level)
        node.entries = kept
        node.invalidate_caches()
        if not kept:
            return None
        node.level = max(child_levels) + 1
        # The node stayed resident: the caller holds a pin on it.
        self.buffer.mark_dirty(node.page_id)
        return node.level

    # ----------------------------------------------------------------- #
    # Post-construction use
    # ----------------------------------------------------------------- #

    def window_query(self, window: Rect) -> list[int]:
        """Spatial selection on the finished tree (Section 5 notes a
        seeded tree may be retained as an ordinary access method)."""
        self._require_ready()
        return shared_window_query(self, window, self.fast)

    def insert_retained(self, rect: Rect, oid: int) -> None:
        """Insert into the *finished* tree, used as an ordinary index.

        Section 5: "a seeded tree can be retained after join and used as
        an ordinary spatial access method". Retained use means ordinary
        R-tree insertion — the seed/grown distinction is gone, so splits
        may now propagate through former seed levels and the root may
        grow. (Joins insert through :meth:`insert`; this method exists
        for the index's after-life.)
        """
        self._require_ready()
        self.root_id = insert_into_subtree(
            self, self.root_id, Entry(rect, oid)
        )
        self._count += 1
        self.mutations += 1

    def delete_retained(self, rect: Rect, oid: int) -> bool:
        """Delete from the *finished* tree; returns False when absent.

        The retained-index counterpart of :meth:`RTree.delete`. A
        seeded tree is generally *unbalanced* — grown subtrees end at
        different levels — so Guttman's condense step cannot re-insert
        an orphaned node's entries "at their original level": the
        descent in :func:`insert_into_subtree` may jump past that level
        entirely. Instead, an under-full node's whole subtree is
        flattened to its data entries (accounted reads — those pages
        are genuinely visited) and re-inserted at the leaf level, which
        is always reachable.
        """
        self._require_ready()
        pinned: list[int] = []
        orphan_roots: list[int] = []
        try:
            path = find_leaf_path(self, rect, oid, pinned)
            if path is None:
                return False
            nodes, child_idxs, entry_idx = path
            leaf = nodes[-1]
            del leaf.entries[entry_idx]
            leaf.invalidate_caches()
            self.buffer.mark_dirty(leaf.page_id)
            self._count -= 1
            self.mutations += 1
            for depth in range(len(nodes) - 1, 0, -1):
                cur = nodes[depth]
                parent = nodes[depth - 1]
                idx = child_idxs[depth - 1]
                if len(cur.entries) < self.min_fill:
                    del parent.entries[idx]
                    orphan_roots.append(cur.page_id)
                else:
                    parent.entries[idx].mbr = node_mbr(cur)
                parent.invalidate_caches()
                self.buffer.mark_dirty(parent.page_id)
        finally:
            for pid in pinned:
                self.buffer.unpin(pid)

        salvaged: list[Entry] = []
        for page_id in orphan_roots:
            self._flatten_subtree(page_id, salvaged)
        root = self._node_unaccounted(self.root_id)
        if not root.entries and not root.is_leaf:
            # Every child was orphaned: restart from an empty leaf so
            # re-insertion has a well-formed target.
            root.entries = []
            root.level = 0
            root.invalidate_caches()
            self.buffer.mark_dirty(self.root_id)
        for e in salvaged:
            self.root_id = insert_into_subtree(self, self.root_id, e)
        self._shrink_root_retained()
        return True

    def _flatten_subtree(self, page_id: int, out: list[Entry]) -> None:
        """Collect a subtree's data entries and free its pages.

        Reads are accounted — flattening visits every page it frees.
        """
        node = self.read_node(page_id)
        if node.is_leaf:
            out.extend(node.entries)
        else:
            for e in node.entries:
                self._flatten_subtree(e.ref, out)
        self.buffer.free([page_id])

    def _shrink_root_retained(self) -> None:
        while True:
            root = self._node_unaccounted(self.root_id)
            if root.is_leaf or len(root.entries) != 1:
                return
            old_id = self.root_id
            self.root_id = root.entries[0].ref
            self.buffer.free([old_id])

    def point_query(self, x: float, y: float) -> list[int]:
        self._require_ready()
        return shared_window_query(self, Rect.point(x, y), self.fast)

    def nearest_neighbors(self, x: float, y: float,
                          k: int = 1) -> list[tuple[float, int]]:
        """The k objects nearest to a point, as (distance, oid) pairs.

        Part of the retained-index after-life (Section 5); identical
        semantics to :meth:`RTree.nearest_neighbors`.
        """
        self._require_ready()
        return shared_nearest_neighbors(self, x, y, k)

    def _require_ready(self) -> None:
        if self.phase is not TreePhase.READY:
            raise TreePhaseError(
                f"operation requires a finished tree (phase is "
                f"{self.phase.value})"
            )

    # ----------------------------------------------------------------- #
    # Introspection (unaccounted)
    # ----------------------------------------------------------------- #

    def __len__(self) -> int:
        return self._count

    @property
    def filtered_count(self) -> int:
        """Objects dropped by seed-level filtering."""
        return self._filtered

    @property
    def num_slots(self) -> int:
        return len(self._slots)

    def stats(self) -> SeededTreeStats:
        lists = self._lists
        return SeededTreeStats(
            seed_levels=self.seed_levels,
            num_slots=len(self._slots),
            used_slots=sum(1 for s in self._slots if s.count > 0),
            inserted=self._count,
            filtered=self._filtered,
            list_batches=(
                lists.batches_flushed if lists else self._list_batches
            ),
            list_pages_flushed=(
                lists.pages_flushed if lists else self._list_pages_flushed
            ),
        )

    def iter_nodes(self) -> Iterator[Node]:
        """Every node of the finished tree, root first; no I/O charged."""
        self._require_ready()
        stack = [self.root_id]
        while stack:
            node = self._node_unaccounted(stack.pop())
            yield node
            if not node.is_leaf:
                stack.extend(e.ref for e in node.entries)

    def num_nodes(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def all_objects(self) -> list[tuple[Rect, int]]:
        """Every stored (mbr, oid) pair; testing oracle, no I/O charged."""
        out = []
        for node in self.iter_nodes():
            if node.is_leaf:
                out.extend((e.mbr, e.ref) for e in node.entries)
        return out

    @property
    def height(self) -> int:
        """Root level + 1; an upper bound path length, since grown
        subtrees may be shorter (the tree is unbalanced)."""
        self._require_ready()
        return self._node_unaccounted(self.root_id).level + 1

    def validate(self) -> None:
        """Structural invariants of the finished tree.

        Capacity bounds everywhere; exact parent MBRs; strictly
        decreasing levels; object count consistency. (Minimum fill is not
        an invariant here: seed nodes lose entries to slot pruning and
        grown roots may be slim, both by design.)
        """
        self._require_ready()
        counted = 0
        stack = [self.root_id]
        while stack:
            page_id = stack.pop()
            node = self._node_unaccounted(page_id)
            if len(node.entries) > self.capacity:
                raise TreeError(f"node {page_id} over capacity")
            if node.is_leaf:
                counted += len(node.entries)
                continue
            for e in node.entries:
                child = self._node_unaccounted(e.ref)
                if child.level >= node.level:
                    raise TreeError(
                        f"child {e.ref} level {child.level} not below "
                        f"parent level {node.level}"
                    )
                if not child.entries:
                    raise TreeError(f"empty node {e.ref} survived clean-up")
                if e.mbr != node_mbr(child):
                    raise TreeError(
                        f"entry MBR for node {e.ref} is not the true MBR"
                    )
                stack.append(e.ref)
        if counted != self._count:
            raise TreeError(
                f"object count mismatch: inserted {self._count}, leaves "
                f"hold {counted}"
            )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"SeededTree({label} phase={self.phase.value}, "
            f"objects={self._count}, slots={len(self._slots)})"
        )
