"""Log-first construction of join-time trees.

A cold STJ, 2STJ or RTJ join spends most of its wall time building a
tree object by object: every level of every insert calls the buffer
and the update policy on ``Entry`` objects. Yet without
faults, deadlines or observers the build never branches on buffer
state — what it computes is a function of its inputs alone. This
builder therefore runs the same algorithms on plain entry columns,
off the buffer, and writes the accounted effects the per-object build
would have issued into one :class:`~repro.seeded.replay.EffectLog`. The
real pool then executes that log once through
:meth:`~repro.storage.BufferPool.replay_ops`, the decoder warm replay
already uses, so hits, misses, evictions, write-backs and disk
classification fall out of the live pool exactly as they would for the
per-object build.

Why the log equals the per-object build's: each step below mirrors one
scalar routine, effect for effect and in the same order — the seeding
copy (:meth:`SeededTree.seed` / :meth:`SeededTree.seed_from_boxes`),
seed-level filtering (:func:`~repro.seeded.filtering.passes_filter`),
the seed descent with its update policy
(:meth:`SeededTree._descend_to_slot`), Guttman growth
(:func:`~repro.rtree.insertion.insert_into_subtree`) through the tree's
own split function, the linked lists (the real
:class:`~repro.seeded.linked_lists.LinkedListManager` over a disk
stand-in that logs instead of writing) and clean-up. Choices use the
scalar loops' own tie-break and NaN rules. Page ids come from a
private copy of the disk allocator, taken in the order the per-object
build allocates, so the replay's creations land on the same ids. The
one deliberate difference: bbox tests are a CPU counter with no phase
and no order, so the build logs their total once instead of one charge
per node visited.

What it holds: one small node object per page (coordinate and ref
columns), the log, and — after clean-up — the final node images and a
:class:`~repro.kernels.node_store.ColumnTree` packed from the columns,
which the finished tree is handed (:func:`carry_column_tree`) so its
match phase packs nothing. Nodes reference children only, so all of
it is freed by reference counting when the build returns, except what
STJ keeps as its warm recording.

Where it runs: wherever construction replay may
(:func:`~repro.seeded.replay.log_first`), sanitized joins included,
and for the workspace's own ``T_R`` at set-up
(:meth:`~repro.workspace.Workspace.install_rtree`) on the fast path
over a disk with no injector or deadline. Recovery, fault injection,
deadlines, tracing and ``REPRO_KERNELS=0`` keep the per-object build,
which stays the oracle.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..geometry import Rect
from ..join.batch import carry_column_tree
from ..kernels import RectArray, quadratic_split_indices
from ..kernels.node_store import ColumnTree
from ..rtree.node import Entry
from ..rtree.rtree import RTree
from ..rtree.split import SplitFunction, quadratic_split
from ..storage import BufferPool, PageKind
from ..storage.datafile import DataFile
from .linked_lists import LinkedListManager
from .policies import CopyStrategy, UpdatePolicy
from .replay import BuildRecording, EffectLog, node_images, replay_recording
from .tree import SeededTree, tile_order

__all__ = ["build_rtree", "build_seeded_tree"]

_INF = float("inf")


class _Node:
    """One page of a tree under construction, as entry columns.

    ``ref`` holds child ``_Node`` objects in internal nodes, the data
    file's ``(rect, oid)`` tuples in leaves, and slot indices in the
    slot level until clean-up. Seed nodes also carry ``touched`` flags,
    ``nonpoint`` (how many boxes are not points), their box areas and,
    when filtering, the shadow columns.
    """

    __slots__ = ("page", "level", "xlo", "ylo", "xhi", "yhi", "ref",
                 "touched", "nonpoint", "area", "shadow", "refs")

    def __init__(self, page: int, level: int, xlo: list, ylo: list,
                 xhi: list, yhi: list, ref: list) -> None:
        self.page = page
        self.level = level
        self.xlo = xlo
        self.ylo = ylo
        self.xhi = xhi
        self.yhi = yhi
        self.ref = ref
        self.touched: list | None = None
        self.nonpoint = 0
        self.area: list | None = None
        self.shadow: tuple | None = None
        #: Final refs as page ids / oids, filled by ``images``.
        self.refs: list | None = None


class _Slot:
    """A slot's grown subtree and the exact MBR of the data under it."""

    __slots__ = ("root", "count", "level", "x0", "y0", "x1", "y1")

    def __init__(self) -> None:
        self.root: _Node | None = None
        self.count = 0
        self.level = 0
        self.x0 = self.y0 = self.x1 = self.y1 = 0.0


class _Charge:
    """The metrics collector as a split function sees it: the build's
    bbox total."""

    __slots__ = ("bbox",)

    def __init__(self) -> None:
        self.bbox = 0

    def count_bbox_tests(self, count: int = 1) -> None:
        self.bbox += count


class _ListDisk:
    """The disk as the linked lists see it during a log-first build.

    Allocation draws on the build's allocator; run writes and the
    regroup reads become log ops (consecutive single-page reads merge
    into one run read), and written pages stay here so the regroup pass
    can read them back.
    """

    __slots__ = ("build", "pages", "metrics")

    def __init__(self, build: "_Build") -> None:
        self.build = build
        self.pages: dict[int, Any] = {}
        self.metrics = None

    def allocate(self, count: int = 1) -> int:
        build = self.build
        first = build.next_id
        build.next_id += count
        return first

    def write_run(self, pages: list) -> None:
        ops = self.build.ops
        ops.extend((9, pages[0].page_id, ops.ref(pages)))
        for page in pages:
            self.pages[page.page_id] = page

    def read(self, page_id: int) -> Any:
        ops = self.build.ops
        if ops and ops[-3] == 10 and ops[-2] + ops[-1] == page_id:
            ops[-1] += 1
        else:
            ops.extend((10, page_id, 1))
        return self.pages[page_id]


class _Build:
    """The shared machinery: allocator, log, node creation, growth."""

    def __init__(self, buffer: BufferPool, split: SplitFunction,
                 metrics: Any, fast: bool) -> None:
        self.ops = EffectLog()
        self.ext = self.ops.extend
        self.kind = self.ops.ref(PageKind.TREE_NODE)
        self.start = buffer.disk.allocated_pages
        self.next_id = self.start
        self.created: list[_Node] = []
        self.split = split
        self.fast = fast
        self.charge = _Charge() if metrics is not None else None

    def new_node(self, level: int, xlo: list, ylo: list, xhi: list,
                 yhi: list, ref: list) -> _Node:
        page = self.next_id
        self.next_id = page + 1
        node = _Node(page, level, xlo, ylo, xhi, yhi, ref)
        self.ext((2, page, self.kind))
        self.created.append(node)
        return node

    def scan(self, data: DataFile) -> list:
        """The data file's entries, logging the accounted scan."""
        self.ext((8, self.ops.ref(data), 0))
        return data.read_all_unaccounted()

    # ----------------------------------------------------------------- #
    # Guttman growth (insert_into_subtree, target level 0)
    # ----------------------------------------------------------------- #

    def grow(self, root: _Node, item: tuple, capacity: int,
             min_fill: int) -> _Node:
        """Insert one data entry below ``root``; return the new root."""
        rect = item[0]
        x0, y0, x1, y1 = rect.xlo, rect.ylo, rect.xhi, rect.yhi
        ext = self.ext
        node = root
        ext((1, node.page, 0))
        path = [node]
        idxs = []
        while node.level > 0:
            best = _least_enlargement(node, x0, y0, x1, y1)
            if best is None:
                best = _first_least_enlargement(node, x0, y0, x1, y1)
            idxs.append(best)
            node = node.ref[best]
            ext((1, node.page, 0))
            path.append(node)
        if self.charge is not None:
            self.charge.bbox += len(idxs)

        node.xlo.append(x0)
        node.ylo.append(y0)
        node.xhi.append(x1)
        node.yhi.append(y1)
        node.ref.append(item)

        new_root = root
        depth = len(path) - 1
        while depth >= 0:
            cur = path[depth]
            if len(cur.ref) > capacity:
                sibling = self._split(cur, min_fill)
            else:
                sibling = None
            if depth > 0:
                parent = path[depth - 1]
                i = idxs[depth - 1]
                if sibling is None:
                    # The child's MBR grew by at most the inserted box.
                    m0, n0 = parent.xlo[i], parent.ylo[i]
                    m1, n1 = parent.xhi[i], parent.yhi[i]
                    if not (m0 <= x0 and n0 <= y0 and m1 >= x1 and n1 >= y1):
                        _put(parent, i, m0 if m0 <= x0 else x0,
                             n0 if n0 <= y0 else y0,
                             m1 if m1 >= x1 else x1,
                             n1 if n1 >= y1 else y1)
                else:
                    _put(parent, i, *_mbr(cur))
                    _add_row(parent, sibling)
            elif sibling is not None:
                # Root split: the subtree grows one level.
                new_root = self.new_node(cur.level + 1, [], [], [], [], [])
                new_root.area = []
                _add_row(new_root, cur)
                _add_row(new_root, sibling)
            depth -= 1
        # Every path node was marked dirty (the leaf by the append, each
        # parent by its adjustment, a split node once more) while pinned,
        # and a pinned page is neither evicted nor dropped: each node's
        # marks take effect with its unpin.
        for n in path:
            ext((5, n.page, 0))
        return new_root

    def _split(self, cur: _Node, min_fill: int) -> _Node:
        """Split ``cur`` with the tree's split function; return the
        sibling holding the second group."""
        xlo, ylo, xhi, yhi, ref = cur.xlo, cur.ylo, cur.xhi, cur.yhi, cur.ref
        groups = None
        if self.split is quadratic_split and self.fast:
            # What quadratic_split runs on the fast path, handed the
            # node's own columns instead of columns packed from Entry
            # objects; None (a NaN corner) takes the general route.
            groups = quadratic_split_indices(
                RectArray(xlo, ylo, xhi, yhi, is_numpy=False), min_fill)
            if groups is not None and self.charge is not None:
                self.charge.bbox += len(ref)
        if groups is None:
            if cur.level == 0:
                rects = [item[0] for item in ref]
            else:
                rects = list(map(Rect, xlo, ylo, xhi, yhi))
            # Entry refs carry row numbers, so the groups map back to
            # rows.
            entries = list(map(Entry, rects, range(len(ref))))
            group_a, group_b = self.split(entries, min_fill, self.charge,
                                          self.fast)
            groups = [e.ref for e in group_a], [e.ref for e in group_b]
        rows_a, rows_b = groups
        cur.xlo = [xlo[k] for k in rows_a]
        cur.ylo = [ylo[k] for k in rows_a]
        cur.xhi = [xhi[k] for k in rows_a]
        cur.yhi = [yhi[k] for k in rows_a]
        cur.ref = [ref[k] for k in rows_a]
        sibling = self.new_node(
            cur.level,
            [xlo[k] for k in rows_b], [ylo[k] for k in rows_b],
            [xhi[k] for k in rows_b], [yhi[k] for k in rows_b],
            [ref[k] for k in rows_b],
        )
        area = cur.area
        if area is not None:
            cur.area = [area[k] for k in rows_a]
            sibling.area = [area[k] for k in rows_b]
        return sibling

    # ----------------------------------------------------------------- #
    # Final images
    # ----------------------------------------------------------------- #

    def images(self, nodes: list[_Node]) -> list[tuple]:
        """``(page id, level, mbrs, refs, touched)`` per node; fills
        each node's ``refs``."""
        out = []
        for node in nodes:
            ref = node.ref
            if node.level == 0:
                mbrs = [item[0] for item in ref]
                refs = [item[1] for item in ref]
            else:
                mbrs = list(map(Rect, node.xlo, node.ylo, node.xhi, node.yhi))
                refs = [child.page for child in ref]
            node.refs = refs
            touched = node.touched
            if touched is not None and not any(touched):
                touched = None
            out.append((node.page, node.level, mbrs, refs, touched))
        return out

    @staticmethod
    def snapshot(root: _Node, stamp: tuple) -> ColumnTree | None:
        """The finished tree's columns in ``iter_nodes`` order: what
        :func:`~repro.join.batch.column_tree_of` would pack."""
        records = []
        stack = [root]
        while stack:
            node = stack.pop()
            records.append((node.page, node.level, node.refs,
                            node.xlo, node.ylo, node.xhi, node.yhi))
            if node.level > 0:
                stack.extend(node.ref)
        try:
            return ColumnTree.build(records, root.page, stamp=stamp)
        except OverflowError:
            return None


# --------------------------------------------------------------------- #
# Seeded trees
# --------------------------------------------------------------------- #

class _SeededBuild(_Build):
    """One seeded tree: seeding, growing and clean-up on columns."""

    def __init__(self, tree: SeededTree) -> None:
        super().__init__(tree.buffer, tree.split, tree.metrics, tree.fast)
        self.tree = tree
        self.capacity = tree.capacity
        self.min_fill = tree.min_fill
        self.seed_levels = tree.seed_levels
        self.slots: list[_Slot] = []
        self.by_depth: list[list[_Node]] = []
        self.root: _Node | None = None
        self.count = 0
        self.filtered = 0
        self.list_batches = 0
        self.list_pages_flushed = 0

    # -- seeding -------------------------------------------------------- #

    def seed_from_tree(self, seeding_tree: RTree) -> None:
        """:meth:`SeededTree.seed`: copy the top levels breadth first."""
        self.tree._check_seeding_tree(seeding_tree)
        k = self.seed_levels
        peek = seeding_tree._node_unaccounted
        self.ext((0, seeding_tree.root_id, 0))
        source = peek(seeding_tree.root_id)
        root = self._copy(source, 0)
        self.root = root
        frontier = [(source, root)]
        self.by_depth = [[root]]
        for depth in range(1, k):
            next_frontier = []
            for source, copy in frontier:
                for j, e in enumerate(source.entries):
                    self.ext((0, e.ref, 0))
                    child_source = peek(e.ref)
                    child = self._copy(child_source, depth)
                    copy.ref[j] = child
                    next_frontier.append((child_source, child))
            frontier = next_frontier
            self.by_depth.append([copy for _, copy in frontier])
        self._register_slots()

    def _copy(self, source: Any, depth: int) -> _Node:
        mbrs = [e.mbr for e in source.entries]
        xlo = [r.xlo for r in mbrs]
        ylo = [r.ylo for r in mbrs]
        xhi = [r.xhi for r in mbrs]
        yhi = [r.yhi for r in mbrs]
        node = self.new_node(self.seed_levels - depth, xlo, ylo, xhi, yhi,
                             [e.ref for e in source.entries])
        if self.tree.filtering:
            node.shadow = (xlo[:], ylo[:], xhi[:], yhi[:])
        return node

    def seed_from_boxes(self, boxes: list[Rect]) -> None:
        """:meth:`SeededTree.seed_from_boxes`: slot nodes over the
        boxes in tile order, parent levels packed above them."""
        self.tree._check_seed_boxes(boxes)
        cap = self.capacity
        ordered = tile_order(boxes, cap)
        level_nodes = []
        for off in range(0, len(ordered), cap):
            chunk = ordered[off:off + cap]
            level_nodes.append(self.new_node(
                1, [r.xlo for r in chunk], [r.ylo for r in chunk],
                [r.xhi for r in chunk], [r.yhi for r in chunk],
                [-1] * len(chunk),
            ))
        depth_count = 1
        while len(level_nodes) > 1:
            parents = []
            for off in range(0, len(level_nodes), cap):
                chunk = level_nodes[off:off + cap]
                parents.append(self.new_node(
                    1, [min(c.xlo) for c in chunk], [min(c.ylo) for c in chunk],
                    [max(c.xhi) for c in chunk], [max(c.yhi) for c in chunk],
                    chunk,
                ))
            level_nodes = parents
            depth_count += 1
        self.seed_levels = depth_count
        self.root = level_nodes[0]
        self.by_depth = [[self.root]]
        for _ in range(1, depth_count):
            self.by_depth.append([
                child for node in self.by_depth[-1] for child in node.ref
            ])
        for depth, nodes in enumerate(self.by_depth):
            for node in nodes:
                node.level = depth_count - depth
        self._register_slots()

    def _register_slots(self) -> None:
        """Slot indices into the slot level, then the copy strategy."""
        slots = self.slots
        for node in self.by_depth[-1]:
            for j in range(len(node.ref)):
                node.ref[j] = len(slots)
                slots.append(_Slot())
        strategy = self.tree.copy_strategy
        if strategy is CopyStrategy.CENTER:
            for nodes in self.by_depth:
                for node in nodes:
                    _center(node)
        elif strategy is CopyStrategy.CENTER_AT_SLOTS:
            for node in self.by_depth[-1]:
                _center(node)
            for nodes in reversed(self.by_depth[:-1]):
                for node in nodes:
                    children = node.ref
                    node.xlo = [min(c.xlo) for c in children]
                    node.ylo = [min(c.ylo) for c in children]
                    node.xhi = [max(c.xhi) for c in children]
                    node.yhi = [max(c.yhi) for c in children]
        for nodes in self.by_depth:
            for node in nodes:
                node.touched = [False] * len(node.ref)
                node.area = [(a1 - a0) * (b1 - b0) for a0, b0, a1, b1 in zip(
                    node.xlo, node.ylo, node.xhi, node.yhi)]
                node.nonpoint = sum(
                    1 for a0, b0, a1, b1 in zip(node.xlo, node.ylo,
                                                node.xhi, node.yhi)
                    if not (a0 == a1 and b0 == b1)
                )

    # -- growing -------------------------------------------------------- #

    def grow_from(self, data: DataFile) -> None:
        """:meth:`SeededTree.grow_from` over a data file."""
        tree = self.tree
        buffer = tree.buffer
        use_lists = tree.use_linked_lists
        if use_lists is None:
            estimated = tree.config.estimated_tree_pages(len(data))
            use_lists = estimated > buffer.capacity
        lists = None
        if use_lists:
            budget = max(buffer.capacity // 2,
                         buffer.capacity - len(self.created))
            lists = LinkedListManager(_ListDisk(self), tree.config,
                                      len(self.slots), budget)
        entries = self.scan(data)
        filtering = tree.filtering
        slots = self.slots
        descend = self._descend
        for item in entries:
            rect = item[0]
            x0, y0, x1, y1 = rect.xlo, rect.ylo, rect.xhi, rect.yhi
            if filtering and not self._passes(x0, y0, x1, y1):
                self.filtered += 1
                continue
            slot_index = descend(x0, y0, x1, y1)
            slot = slots[slot_index]
            if lists is not None:
                lists.append(slot_index, item)
            else:
                self._through_slot(slot, item)
            slot.count += 1
            self.count += 1
        if lists is not None:
            # Clean-up's first step, deferred here so the manager (and
            # its pages) can be released with the growing phase.
            for slot_index, items in lists.regroup_and_drain():
                slot = slots[slot_index]
                for item in items:
                    self._through_slot(slot, item)
            self.list_batches = lists.batches_flushed
            self.list_pages_flushed = lists.pages_flushed

    def _passes(self, x0: float, y0: float, x1: float, y1: float) -> bool:
        """:func:`~repro.seeded.filtering.passes_filter`."""
        ext = self.ext
        root = self.root
        ext((0, root.page, 0))
        k = self.seed_levels
        tests = 0
        frontier = [root]
        passed = True
        for depth in range(k):
            at_slot_level = depth == k - 1
            overlapping = []
            for node in frontier:
                s0, t0, s1, t1 = node.shadow
                tests += len(s0)
                for i in range(len(s0)):
                    if s0[i] <= x1 and x0 <= s1[i] and t0[i] <= y1 and y0 <= t1[i]:
                        overlapping.append(node.ref[i])
            if not overlapping:
                passed = False
                break
            if not at_slot_level:
                frontier = overlapping
                for node in frontier:
                    ext((0, node.page, 0))
        if self.charge is not None:
            self.charge.bbox += tests
        return passed

    def _descend(self, x0: float, y0: float, x1: float, y1: float) -> int:
        """:meth:`SeededTree._descend_to_slot`; returns the slot index."""
        ext = self.ext
        node = self.root
        policy = self.tree.update_policy
        last = self.seed_levels - 1
        updates_all = policy.updates_all_levels
        keeps_seed = policy.encloses_seed_box
        if self.charge is not None:
            self.charge.bbox += last + 1
        depth = 0
        while True:
            xs0, ys0, xs1, ys1 = node.xlo, node.ylo, node.xhi, node.yhi
            # _choose_seed_entry's scalar loops scan from the first row,
            # so a NaN first row wins (best stays 0) and later NaN rows
            # never do, which is what min() over the rows gives too.
            if not node.nonpoint:
                # Center distance, first minimum.
                rsx = x0 + x1
                rsy = y0 + y1
                dist = [
                    ((dx := (a0 + a1) - rsx) * dx
                     + (dy := (b0 + b1) - rsy) * dy) / 4.0
                    for a0, b0, a1, b1 in zip(xs0, ys0, xs1, ys1)
                ]
                least = min(dist)
                best = dist.index(least) if least == least else 0
            else:
                # Least enlargement, ties by area.
                best = _least_enlargement(node, x0, y0, x1, y1)
                if best is None:
                    best = 0
            at_slot_level = depth == last
            if policy is not UpdatePolicy.NONE and (at_slot_level or updates_all):
                a0, b0, a1, b1 = xs0[best], ys0[best], xs1[best], ys1[best]
                was_point = a0 == a1 and b0 == b1
                if keeps_seed or node.touched[best]:
                    a0 = a0 if a0 <= x0 else x0
                    b0 = b0 if b0 <= y0 else y0
                    a1 = a1 if a1 >= x1 else x1
                    b1 = b1 if b1 >= y1 else y1
                else:
                    a0, b0, a1, b1 = x0, y0, x1, y1
                xs0[best], ys0[best], xs1[best], ys1[best] = a0, b0, a1, b1
                node.area[best] = (a1 - a0) * (b1 - b0)
                node.touched[best] = True
                node.nonpoint += was_point - (a0 == a1 and b0 == b1)
                ext((3, node.page, 0))      # the fetch, then the dirty mark
            else:
                ext((0, node.page, 0))
            if at_slot_level:
                return node.ref[best]
            node = node.ref[best]
            depth += 1

    def _through_slot(self, slot: _Slot, item: tuple) -> None:
        """:meth:`SeededTree._insert_through_slot`."""
        rect = item[0]
        x0, y0, x1, y1 = rect.xlo, rect.ylo, rect.xhi, rect.yhi
        root = slot.root
        if root is None:
            slot.root = self.new_node(0, [x0], [y0], [x1], [y1], [item])
            slot.x0, slot.y0, slot.x1, slot.y1 = x0, y0, x1, y1
            return
        new_root = self.grow(root, item, self.capacity, self.min_fill)
        if new_root is not root:
            slot.root = new_root
            slot.level += 1
        slot.x0 = slot.x0 if slot.x0 <= x0 else x0
        slot.y0 = slot.y0 if slot.y0 <= y0 else y0
        slot.x1 = slot.x1 if slot.x1 >= x1 else x1
        slot.y1 = slot.y1 if slot.y1 >= y1 else y1

    # -- clean-up ------------------------------------------------------- #

    def cleanup(self) -> None:
        """:meth:`SeededTree.cleanup` after the lists were drained."""
        ext = self.ext
        root = self.root
        ext((1, root.page, 0))
        if self._fix(root, 0) is None:
            root.level = 0
        ext((5, root.page, 0))

    def _fix(self, node: _Node, depth: int) -> int | None:
        """:meth:`SeededTree._fix_seed_node`; the caller logs a kept
        node's dirty mark together with its unpin."""
        ext = self.ext
        at_slot_level = depth == self.seed_levels - 1
        keep = []
        levels = []
        xlo, ylo, xhi, yhi = [], [], [], []
        ref = []
        for j, r in enumerate(node.ref):
            if at_slot_level:
                slot = self.slots[r]
                if slot.root is None:
                    continue
                child = slot.root
                box = (slot.x0, slot.y0, slot.x1, slot.y1)
                level = slot.level
            else:
                child = r
                ext((1, child.page, 0))
                level = self._fix(child, depth + 1)
                if level is None:
                    ext((4, child.page, 0))
                    ext((6, child.page, 0))
                    continue
                # The child marked itself dirty last; then it is unpinned.
                ext((5, child.page, 0))
                box = _mbr(child)
            keep.append(j)
            levels.append(level)
            xlo.append(box[0])
            ylo.append(box[1])
            xhi.append(box[2])
            yhi.append(box[3])
            ref.append(child)
        touched = node.touched
        node.touched = [touched[j] for j in keep]
        node.xlo, node.ylo, node.xhi, node.yhi = xlo, ylo, xhi, yhi
        node.ref = ref
        if not keep:
            return None
        node.level = max(levels) + 1
        return node.level

    # -- the result ----------------------------------------------------- #

    def recording(self, tree_kwargs: dict) -> BuildRecording:
        """The finished build as a replayable recording."""
        if self.charge is not None:
            self.ext((7, self.charge.bbox, 0))
        rec = BuildRecording()
        rec.ops = self.ops
        rec.alloc_start = self.start
        rec.created = self.images(self.created)
        root = self.root
        rec.root_id = root.page
        rec.seed_levels = self.seed_levels
        rec.count = self.count
        rec.filtered = self.filtered
        rec.list_batches = self.list_batches
        rec.list_pages_flushed = self.list_pages_flushed
        rec.slots = tuple(
            (index, -1, s.count, s.level, None) if s.root is None else
            (index, s.root.page, s.count, s.level,
             Rect(s.x0, s.y0, s.x1, s.y1))
            for index, s in enumerate(self.slots)
        )
        rec.tree_kwargs = tree_kwargs
        # A seeded build's one construction epoch stamps it mutations=1.
        rec.snapshot = self.snapshot(root, (1, root.page))
        return rec


def _put(node: _Node, i: int, a0: float, b0: float, a1: float,
         b1: float) -> None:
    """Row ``i`` of internal node ``node`` becomes box ``(a0, b0, a1, b1)``."""
    # repro-lint: disable=RPR008 -- a build's private lists, never published as shared columns
    node.xlo[i], node.ylo[i], node.xhi[i], node.yhi[i] = a0, b0, a1, b1
    node.area[i] = (a1 - a0) * (b1 - b0)


def _mbr(node: _Node) -> tuple:
    """``node_mbr``: min/max folds keep the first of equal values, as
    ``union_all`` does."""
    return min(node.xlo), min(node.ylo), max(node.xhi), max(node.yhi)


def _add_row(node: _Node, child: _Node) -> None:
    """Append ``child``, with its MBR, to internal node ``node``."""
    a0, b0, a1, b1 = _mbr(child)
    node.xlo.append(a0)
    node.ylo.append(b0)
    node.xhi.append(a1)
    node.yhi.append(b1)
    node.area.append((a1 - a0) * (b1 - b0))
    node.ref.append(child)


def _least_enlargement(node: _Node, x0: float, y0: float, x1: float,
                       y1: float) -> int | None:
    """First row of least enlargement to cover the box, ties by least
    area (first again), or ``None`` when the first row's enlargement is
    NaN: min() then returns it, and the callers' scalar loops disagree
    on such a row.

    NaN rows after the first are skipped by min() and never win the
    scalar loops either, so both loops agree with this whenever it
    answers.
    """
    xs0, ys0, xs1, ys1, areas = node.xlo, node.ylo, node.xhi, node.yhi, node.area
    enl = [
        ((a1 if a1 >= x1 else x1) - (a0 if a0 <= x0 else x0))
        * ((b1 if b1 >= y1 else y1) - (b0 if b0 <= y0 else y0)) - area
        for a0, b0, a1, b1, area in zip(xs0, ys0, xs1, ys1, areas)
    ]
    least = min(enl)
    if least != least:
        return None
    best = enl.index(least)
    if enl.count(least) > 1:
        best_area = areas[best]
        for i in range(best + 1, len(enl)):
            if enl[i] == least and areas[i] < best_area:
                best, best_area = i, areas[i]
    return best


def _first_least_enlargement(node: _Node, x0: float, y0: float,
                             x1: float, y1: float) -> int:
    """``choose_subtree``'s scalar loop, verbatim: the rule for a node
    whose first row's enlargement is NaN."""
    best = 0
    best_enl = best_area = _INF
    for i, (a0, b0, a1, b1) in enumerate(
        zip(node.xlo, node.ylo, node.xhi, node.yhi)
    ):
        area = (a1 - a0) * (b1 - b0)
        enl = ((a1 if a1 >= x1 else x1) - (a0 if a0 <= x0 else x0)) * (
            (b1 if b1 >= y1 else y1) - (b0 if b0 <= y0 else y0)
        ) - area
        if enl < best_enl:
            best, best_enl, best_area = i, enl, area
        elif enl == best_enl and area < best_area:
            best, best_area = i, area
    return best


def _center(node: _Node) -> None:
    """Copy strategy C2/C3 on one node: every box to its center point."""
    cx = [(a0 + a1) / 2.0 for a0, a1 in zip(node.xlo, node.xhi)]
    cy = [(b0 + b1) / 2.0 for b0, b1 in zip(node.ylo, node.yhi)]
    node.xlo, node.xhi = cx, cx[:]
    node.ylo, node.yhi = cy, cy[:]


def build_seeded_tree(
    buffer: BufferPool,
    config: Any,
    metrics: Any,
    data: DataFile,
    seeding: RTree | list[Rect],
    *,
    fast: bool = True,
    **tree_kwargs: Any,
) -> tuple[SeededTree, BuildRecording]:
    """Seed, grow and clean up a seeded tree log-first.

    ``seeding`` is the seeding R-tree or, for 2STJ, the artificial slot
    boxes; ``tree_kwargs`` are :class:`SeededTree`'s knobs. Returns the
    finished tree — pages, counters and buffer state exactly as the
    per-object build leaves them — and its recording, which the caller
    may keep for warm replay or drop.
    """
    tree = SeededTree(buffer, config, metrics, fast=fast, **tree_kwargs)
    build = _SeededBuild(tree)
    if isinstance(seeding, RTree):
        build.seed_from_tree(seeding)
    else:
        build.seed_from_boxes(seeding)
    build.grow_from(data)
    build.cleanup()
    rec = build.recording(tree_kwargs)
    return replay_recording(rec, buffer, config, metrics, fast), rec


# --------------------------------------------------------------------- #
# R-trees (RTJ)
# --------------------------------------------------------------------- #

def build_rtree(
    buffer: BufferPool,
    config: Any,
    metrics: Any,
    data: DataFile | Iterable[tuple[Rect, int]],
    *,
    split: SplitFunction = quadratic_split,
    name: str = "",
    fast: bool = True,
) -> RTree:
    """:meth:`RTree.build` over a data file or ``(rect, oid)`` entries,
    log-first.

    A data file's accounted scan is logged; plain entries cost no I/O
    to read, as they cost :meth:`RTree.build` none. The constructor's
    empty root is the build's first effect, so it is made for real; the
    inserts then grow from it off the buffer, and the root's payload
    takes its final image in place.
    """
    tree = RTree(buffer, config, metrics=metrics, split=split, name=name,
                 fast=fast)
    build = _Build(buffer, split, metrics, fast)
    root = first = _Node(tree.root_id, 0, [], [], [], [], [])
    capacity, min_fill = tree.capacity, tree.min_fill
    if isinstance(data, DataFile):
        entries = build.scan(data)
    else:
        entries = [(rect, oid) for rect, oid in data]
    for item in entries:
        root = build.grow(root, item, capacity, min_fill)
    if build.charge is not None:
        build.ext((7, build.charge.bbox, 0))

    (image,) = build.images([first])
    payload = buffer.peek(first.page).payload
    payload.level = image[1]
    payload.entries = list(map(Entry, image[2], image[3]))
    payload.invalidate_caches()
    buffer.replay_ops(build.ops, build.start, 0,
                      node_images(build.images(build.created), 0, 0),
                      metrics)
    tree.root_id = root.page
    tree._count = tree.mutations = len(entries)
    carry_column_tree(tree, build.snapshot(root, (tree.mutations, root.page)))
    return tree
