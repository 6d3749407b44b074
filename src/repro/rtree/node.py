"""R-tree node and entry types.

A node at *level 0* is a leaf whose entries reference object ids; a node
at level ``L > 0`` references child nodes at level ``L - 1`` by page id.
This matches the paper's description: non-leaf entries are ``(mbr, cp)``
pairs, leaf entries are ``(mbr, oid)`` pairs.

Seeded trees reuse these types for their grown nodes, and extend
:class:`Entry` with the optional ``shadow`` field used by seed-level
filtering (Section 3.2) — the field exists on every entry but is ``None``
outside seed nodes, costing one slot per entry.

Every code path that mutates ``entries`` (or an entry's ``mbr`` in
place) must call :meth:`Node.invalidate_caches`. The call drops the
memoised node MBR (:meth:`Node.cached_mbr`, which the scalar tree
matcher reads; the runtime sanitizer cross-checks it at phase
boundaries) and gives the node a new *edit tick* from one process-wide
counter (:func:`next_edit_tick`), as does creating it. A columnar
snapshot remembers the tick it was taken at, so the next one re-reads
only the nodes that are new or carry a later tick
(:func:`repro.join.batch.column_tree_of`).
"""

from __future__ import annotations

import itertools

from ..geometry import Rect, union_all

#: A fresh edit tick, strictly above every tick handed out before.
next_edit_tick = itertools.count(1).__next__


class Entry:
    """One (mbr, ref) pair.

    ``ref`` is a child page id in a non-leaf node and an object id in a
    leaf. Two extra fields exist only for seed-node entries:

    * ``shadow`` — the unmodified seeding-tree bounding box used by
      seed-level filtering (Section 3.2); ``None`` otherwise.
    * ``touched`` — whether the box was updated since seeding; the
      data-only update policies U3/U5 replace the seed value on the first
      update and union afterwards, so they must remember this.
    """

    __slots__ = ("mbr", "ref", "shadow", "touched")

    def __init__(self, mbr: Rect, ref: int, shadow: Rect | None = None):
        self.mbr = mbr
        self.ref = ref
        self.shadow = shadow
        self.touched = False

    def __repr__(self) -> str:
        return f"Entry(mbr={self.mbr!r}, ref={self.ref})"


class Node:
    """One R-tree (or seeded-tree) node, occupying one page.

    ``page_id`` is assigned when the node is registered with the buffer
    pool; a value of ``-1`` marks a node not yet materialised. ``tick``
    is the edit tick of the node's creation or last cache invalidation.
    """

    __slots__ = ("page_id", "level", "entries", "tick", "_mbr_cache")

    def __init__(self, level: int, entries: list[Entry] | None = None,
                 page_id: int = -1):
        self.level = level
        self.entries = entries if entries is not None else []
        self.page_id = page_id
        self.tick = next_edit_tick()
        self._mbr_cache: Rect | None = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        return len(self.entries)

    def invalidate_caches(self) -> None:
        """Drop the node-MBR memo and take a new edit tick after any
        entry mutation."""
        self._mbr_cache = None
        self.tick = next_edit_tick()

    def cached_mbr(self) -> Rect:
        """The node MBR, computed once per edit."""
        mbr = self._mbr_cache
        if mbr is None:
            mbr = union_all(e.mbr for e in self.entries)
            self._mbr_cache = mbr
        return mbr

    # ----------------------------------------------------------------- #
    # Pickling (the memo and the tick are process-local)
    # ----------------------------------------------------------------- #

    def __getstate__(self) -> tuple[int, int, list[Entry]]:
        return (self.page_id, self.level, self.entries)

    def __setstate__(self, state: tuple[int, int, list[Entry]]) -> None:
        self.page_id, self.level, self.entries = state
        self.tick = next_edit_tick()
        self._mbr_cache = None

    def __repr__(self) -> str:
        return (
            f"Node(page={self.page_id}, level={self.level}, "
            f"entries={len(self.entries)})"
        )


def node_mbr(node: Node) -> Rect:
    """True minimum bounding rectangle of a node's entries."""
    return union_all(e.mbr for e in node.entries)
