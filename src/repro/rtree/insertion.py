"""Shared R-tree insertion machinery.

Both a free-standing :class:`~repro.rtree.rtree.RTree` and the *grown
subtrees* of a seeded tree insert entries the same way (Guttman's
algorithm); they differ only in who owns the root pointer. An R-tree keeps
it in ``root_id``; a seeded tree keeps one root per slot, and when a grown
subtree's root splits, the slot pointer is redirected to the new root
(Section 2.2 of the paper). :func:`insert_into_subtree` implements the
descent/split/adjust logic once and returns the (possibly new) root id so
either owner can update its pointer.

The ``owner`` argument is duck-typed: it must provide ``buffer``,
``capacity``, ``min_fill``, ``split``, ``metrics`` and ``fast`` (the
split's execution path) attributes.
"""

from __future__ import annotations

from typing import Any

from ..errors import TreeError
from ..geometry import Rect
from ..storage import PageKind
from .node import Entry, Node, node_mbr


def choose_subtree(owner: Any, node: Node, rect: Rect) -> int:
    """Index of the child entry needing least enlargement (ties: area).

    CPU accounting note: the paper's construction-time "bbox" column
    counts *bounding box overlap tests*; a least-enlargement scan is a
    single vectorisable comparison pass, so it is charged as one bbox
    test per node visited (filter probes and window queries, which test
    overlap entry by entry, are charged per entry). This granularity
    reproduces the paper's orderings — STJ-N lowest CPU, filtering an
    order of magnitude more — which per-entry charging here would bury
    under descent-scan noise.
    """
    best_idx = 0
    best_enl = float("inf")
    best_area = float("inf")
    for i, e in enumerate(node.entries):
        enl = e.mbr.enlargement(rect)
        if enl < best_enl:
            best_idx, best_enl, best_area = i, enl, e.mbr.area()
        elif enl == best_enl:
            area = e.mbr.area()
            if area < best_area:
                best_idx, best_area = i, area
    if owner.metrics is not None:
        owner.metrics.count_bbox_tests(1)
    return best_idx


def new_node(owner: Any, level: int, entries: list[Entry]) -> Node:
    """Materialise a node in the owner's buffer (born dirty).

    An owner that a finished join handed back as its index keeps the
    page ids its finalizer frees (``_held_pages``, set by
    :func:`repro.join.lifetime.end_join`); a page it grows later joins
    that list, so it goes with the index too.
    """
    node = Node(level, entries)
    node.page_id = owner.buffer.new_page(PageKind.TREE_NODE, node).page_id
    held = getattr(owner, "_held_pages", None)
    if held is not None:
        held.append(node.page_id)
    return node


def insert_into_subtree(
    owner: Any, root_id: int, entry: Entry, target_level: int = 0,
) -> int:
    """Insert ``entry`` into the subtree rooted at ``root_id``.

    Returns the root id after the insert — a new id when the root split
    (the subtree grew one level). ``target_level`` selects the level that
    receives the entry: 0 for data entries, higher for re-inserting
    orphaned subtrees during deletion.
    """
    buffer = owner.buffer
    node = buffer.fetch(root_id, pin=True).payload
    path: list[Node] = [node]
    try:
        if node.level < target_level:
            raise TreeError(
                f"cannot insert at level {target_level}: subtree root is at "
                f"level {node.level}"
            )
        child_idxs: list[int] = []
        while node.level > target_level:
            idx = choose_subtree(owner, node, entry.mbr)
            child_idxs.append(idx)
            node = buffer.fetch(node.entries[idx].ref, pin=True).payload
            path.append(node)

        node.entries.append(entry)
        node.invalidate_caches()
        buffer.mark_dirty(node.page_id)

        new_root_id = root_id
        sibling: Node | None = None
        for depth in range(len(path) - 1, -1, -1):
            cur = path[depth]
            if len(cur.entries) > owner.capacity:
                group_a, group_b = owner.split(
                    cur.entries, owner.min_fill, owner.metrics, owner.fast
                )
                cur.entries = group_a
                cur.invalidate_caches()
                sibling = new_node(owner, cur.level, group_b)
                buffer.mark_dirty(cur.page_id)
            else:
                sibling = None

            if depth > 0:
                parent = path[depth - 1]
                child_idx = child_idxs[depth - 1]
                parent_entry = parent.entries[child_idx]
                if sibling is None:
                    # Exact cheap extension: the child's true MBR grew by at
                    # most the inserted entry's rectangle. When the
                    # rectangle was already covered the union is the
                    # identity and the parent's entries are unchanged.
                    m = parent_entry.mbr
                    em = entry.mbr
                    if not (m.xlo <= em.xlo and m.ylo <= em.ylo
                            and m.xhi >= em.xhi and m.yhi >= em.yhi):
                        parent_entry.mbr = m.union(em)
                        parent.invalidate_caches()
                else:
                    parent_entry.mbr = node_mbr(cur)
                    parent.entries.append(
                        Entry(node_mbr(sibling), sibling.page_id)
                    )
                    parent.invalidate_caches()
                buffer.mark_dirty(parent.page_id)
            elif sibling is not None:
                # Root split: the subtree grows one level; hand the caller a
                # new root id to store (RTree.root_id or a slot pointer).
                root = new_node(
                    owner,
                    cur.level + 1,
                    [
                        Entry(node_mbr(cur), cur.page_id),
                        Entry(node_mbr(sibling), sibling.page_id),
                    ],
                )
                new_root_id = root.page_id
    finally:
        # Release every descent pin even when the level check or a
        # mid-descent fault aborts the insert, or the leaked pins would
        # make the next buffer purge fail.
        for n in path:
            buffer.unpin(n.page_id)
    return new_root_id
