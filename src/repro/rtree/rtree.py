"""A dynamic R-tree over the simulated storage stack.

Every node access — descent during insertion, window-query traversal,
matching-time reads — goes through the :class:`~repro.storage.BufferPool`,
so disk costs emerge from the same mechanics the paper measures: building a
tree larger than the buffer causes eviction write-backs and re-read misses,
which is precisely why join-time R-tree construction (algorithm RTJ) is
expensive and why the seeded tree's linked lists help.

The structure is Guttman's original R-tree: quadratic split by default,
insertion by least enlargement, deletion with tree condensation and
re-insertion. CPU work is reported as bounding-box test counts.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..config import SystemConfig
from ..errors import TreeError
from ..geometry import Rect
from ..kernels import kernels_enabled
from ..metrics import MetricsCollector
from ..storage import BufferPool, PageKind
from .insertion import insert_into_subtree
from .node import Entry, Node, node_mbr
from .query import nearest_neighbors as shared_nearest_neighbors
from .query import window_query as shared_window_query
from .split import SplitFunction, quadratic_split


def find_leaf_path(
    tree: "RTree | object", rect: Rect, oid: int, pinned: list[int]
) -> tuple[list[Node], list[int], int] | None:
    """DFS for the leaf containing (rect, oid); accounted reads.

    Shared by :meth:`RTree.delete` and the seeded tree's retained
    deletion — ``tree`` needs ``read_node``/``buffer``/``metrics``/
    ``root_id`` (the duck type both trees implement). Path nodes are
    fetched *pinned* and the successful path stays pinned on return: an
    unpinned DFS can evict its own ancestors once the tree outgrows the
    buffer, and the condense step would then try to pin (or dirty) a
    non-resident page. Every pin taken is recorded in ``pinned`` before
    recursing so the caller's ``finally`` can release them even when a
    storage fault fires mid-search; rejected branches are released on
    backtrack.
    """
    buffer: BufferPool = tree.buffer  # type: ignore[attr-defined]
    metrics: MetricsCollector | None = tree.metrics  # type: ignore[attr-defined]
    read_node = tree.read_node  # type: ignore[attr-defined]
    root = read_node(tree.root_id, pin=True)  # type: ignore[attr-defined]
    pinned.append(root.page_id)

    def descend(
        node: Node, nodes: list[Node], idxs: list[int]
    ) -> tuple[list[Node], list[int], int] | None:
        if metrics is not None:
            metrics.count_bbox_tests(len(node.entries))
        if node.is_leaf:
            for i, e in enumerate(node.entries):
                if e.ref == oid and e.mbr == rect:
                    return nodes + [node], idxs, i
            return None
        for i, e in enumerate(node.entries):
            if e.mbr.contains(rect):
                child = read_node(e.ref, pin=True)
                pinned.append(e.ref)
                found = descend(child, nodes + [node], idxs + [i])
                if found:
                    return found
                pinned.pop()
                buffer.unpin(e.ref)
        return None

    return descend(root, [], [])


class RTree:
    """Guttman R-tree with buffered node storage.

    Parameters
    ----------
    buffer:
        The buffer pool all node I/O goes through.
    config:
        Physical design (node capacity, minimum fill).
    metrics:
        Optional CPU-test collector; disk costs are reported by the
        storage stack itself.
    split:
        Node-split strategy; defaults to Guttman's quadratic split.
    fast:
        Fast path or scalar reference for this tree's quadratic splits;
        ``None`` reads ``REPRO_KERNELS`` once, here.
    """

    def __init__(
        self,
        buffer: BufferPool,
        config: SystemConfig,
        metrics: MetricsCollector | None = None,
        split: SplitFunction = quadratic_split,
        name: str = "",
        fast: bool | None = None,
    ):
        self.buffer = buffer
        self.config = config
        self.metrics = metrics
        self.split = split
        self.name = name
        self.fast = kernels_enabled() if fast is None else fast
        self.capacity = config.node_capacity
        self.min_fill = config.node_min_fill
        self._count = 0
        # Monotone edit stamp: bumped by every insert/delete so caches
        # keyed on tree identity (the shared-dataset publisher) can tell
        # "same tree object" from "same tree contents".
        self.mutations = 0
        root = Node(level=0)
        root.page_id = buffer.new_page(PageKind.TREE_NODE, root).page_id
        self.root_id = root.page_id

    # ----------------------------------------------------------------- #
    # Bulk helpers
    # ----------------------------------------------------------------- #

    @classmethod
    def build(
        cls,
        buffer: BufferPool,
        config: SystemConfig,
        entries: Iterable[tuple[Rect, int]],
        metrics: MetricsCollector | None = None,
        split: SplitFunction = quadratic_split,
        name: str = "",
        fast: bool | None = None,
    ) -> "RTree":
        """Create a tree by inserting ``entries`` one at a time.

        This is the "straightforward construction algorithm" the paper
        charges RTJ with — each insert descends through the buffer, so
        trees larger than the buffer generate misses.
        """
        tree = cls(buffer, config, metrics=metrics, split=split, name=name,
                   fast=fast)
        for rect, oid in entries:
            tree.insert(rect, oid)
        return tree

    # ----------------------------------------------------------------- #
    # Node access
    # ----------------------------------------------------------------- #

    def read_node(self, page_id: int, pin: bool = False) -> Node:
        """Fetch a node through the buffer (accounted)."""
        node = self.buffer.fetch(page_id, pin=pin).payload
        if not isinstance(node, Node):
            raise TreeError(f"page {page_id} does not hold a tree node")
        return node

    def _node_unaccounted(self, page_id: int) -> Node:
        """Node access for introspection; charges nothing, moves nothing."""
        page = self.buffer.peek(page_id) or self.buffer.disk.peek(page_id)
        if page is None:
            raise TreeError(f"node page {page_id} not found")
        return page.payload

    # ----------------------------------------------------------------- #
    # Properties
    # ----------------------------------------------------------------- #

    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        """Number of levels, counting the leaf level (a 1-node tree is 1)."""
        return self._node_unaccounted(self.root_id).level + 1

    @property
    def root_level(self) -> int:
        return self._node_unaccounted(self.root_id).level

    def mbr(self) -> Rect | None:
        """MBR of the whole data set (``None`` when empty); unaccounted."""
        root = self._node_unaccounted(self.root_id)
        if not root.entries:
            return None
        return node_mbr(root)

    # ----------------------------------------------------------------- #
    # Insertion
    # ----------------------------------------------------------------- #

    def insert(self, rect: Rect, oid: int) -> None:
        """Insert one data object (Guttman's Insert)."""
        self._insert_entry(Entry(rect, oid), target_level=0)
        self._count += 1
        self.mutations += 1

    def _insert_entry(self, entry: Entry, target_level: int) -> None:
        """Place ``entry`` into a node at ``target_level``, splitting upward.

        ``target_level = 0`` inserts a data entry into a leaf; higher
        levels re-insert orphaned subtrees during deletion. The shared
        machinery in :mod:`repro.rtree.insertion` does the work; a root
        split hands back a new root id.
        """
        self.root_id = insert_into_subtree(
            self, self.root_id, entry, target_level
        )

    # ----------------------------------------------------------------- #
    # Queries
    # ----------------------------------------------------------------- #

    def window_query(self, window: Rect) -> list[int]:
        """Object ids of all objects whose MBRs intersect ``window``.

        This is the spatial-selection operation BFJ issues once per input
        rectangle. Every entry inspected costs one bbox test.
        """
        return shared_window_query(self, window)

    def point_query(self, x: float, y: float) -> list[int]:
        """Object ids whose MBRs cover the point ``(x, y)``."""
        return self.window_query(Rect.point(x, y))

    def nearest_neighbors(self, x: float, y: float,
                          k: int = 1) -> list[tuple[float, int]]:
        """The k objects nearest to a point, as (distance, oid) pairs."""
        return shared_nearest_neighbors(self, x, y, k)

    # ----------------------------------------------------------------- #
    # Deletion
    # ----------------------------------------------------------------- #

    def delete(self, rect: Rect, oid: int) -> bool:
        """Remove one data object; returns False when not present.

        Implements Guttman's Delete: locate the leaf, remove the entry,
        condense the tree (eliminating under-full nodes and re-inserting
        their entries at their original levels), then shrink the root
        while it has a single child.
        """
        pinned: list[int] = []
        orphans: list[Node] = []
        try:
            path = self._find_leaf_path(rect, oid, pinned)
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
                    orphans.append(cur)
                else:
                    parent.entries[idx].mbr = node_mbr(cur)
                parent.invalidate_caches()
                self.buffer.mark_dirty(parent.page_id)
        finally:
            # Condensing must not leak pins when a fault interrupts it —
            # a surviving pin would fail the next purge.
            for pid in pinned:
                self.buffer.unpin(pid)
        # The orphans' entries live on in memory until re-inserted; their
        # pages are dead, in the buffer and on disk alike.
        self.buffer.free([orphan.page_id for orphan in orphans])

        # Re-insert orphaned entries at their original levels, lowest
        # levels first so the tree never has to grow to accept them.
        for orphan in sorted(orphans, key=lambda n: n.level):
            for e in orphan.entries:
                if orphan.level == 0:
                    self._insert_entry(e, target_level=0)
                else:
                    self._insert_entry(e, target_level=orphan.level)

        self._shrink_root()
        return True

    def _find_leaf_path(
        self, rect: Rect, oid: int, pinned: list[int]
    ) -> tuple[list[Node], list[int], int] | None:
        return find_leaf_path(self, rect, oid, pinned)

    def _shrink_root(self) -> None:
        while True:
            root = self._node_unaccounted(self.root_id)
            if root.is_leaf or len(root.entries) != 1:
                return
            old_id = self.root_id
            self.root_id = root.entries[0].ref
            self.buffer.free([old_id])

    # ----------------------------------------------------------------- #
    # Introspection (unaccounted; for tests, seeding, statistics)
    # ----------------------------------------------------------------- #

    def iter_nodes(self) -> Iterator[Node]:
        """Every node, root first; charges no I/O."""
        stack = [self.root_id]
        while stack:
            node = self._node_unaccounted(stack.pop())
            yield node
            if not node.is_leaf:
                stack.extend(e.ref for e in node.entries)

    def num_nodes(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def nodes_at_level(self, level: int) -> list[Node]:
        """All nodes at one level (0 = leaves); charges no I/O."""
        return [n for n in self.iter_nodes() if n.level == level]

    def all_objects(self) -> list[tuple[Rect, int]]:
        """Every stored (mbr, oid) pair; charges no I/O. Testing oracle."""
        out = []
        for node in self.iter_nodes():
            if node.is_leaf:
                out.extend((e.mbr, e.ref) for e in node.entries)
        return out

    def validate(self, check_min_fill: bool = True) -> None:
        """Check structural invariants; raises :class:`TreeError`.

        * every node obeys the capacity bound;
        * every non-root node meets the minimum fill (skippable for
          bulk-loaded trees, whose trailing nodes may be slim);
        * every parent entry's MBR equals the exact MBR of its child;
        * child levels decrease by exactly one per step;
        * the stored object count matches ``len(tree)``.
        """
        root = self._node_unaccounted(self.root_id)
        counted = 0
        stack: list[tuple[int, bool]] = [(self.root_id, True)]
        while stack:
            page_id, is_root = stack.pop()
            node = self._node_unaccounted(page_id)
            if len(node.entries) > self.capacity:
                raise TreeError(f"node {page_id} over capacity")
            if check_min_fill and not is_root and len(node.entries) < self.min_fill:
                raise TreeError(f"node {page_id} under minimum fill")
            if is_root and node.level != root.level:
                raise TreeError("root level mismatch")
            if node.is_leaf:
                counted += len(node.entries)
                continue
            for e in node.entries:
                child = self._node_unaccounted(e.ref)
                if child.level != node.level - 1:
                    raise TreeError(
                        f"child {e.ref} at level {child.level} under "
                        f"level-{node.level} node {page_id}"
                    )
                if not child.entries:
                    raise TreeError(f"empty non-root node {e.ref}")
                if e.mbr != node_mbr(child):
                    raise TreeError(
                        f"parent MBR of node {e.ref} is not the exact "
                        f"union of its entries"
                    )
                stack.append((e.ref, False))
        if counted != self._count:
            raise TreeError(
                f"object count mismatch: tree says {self._count}, "
                f"leaves hold {counted}"
            )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"RTree({label} objects={self._count}, height={self.height})"
