"""R-tree node and entry types.

A node at *level 0* is a leaf whose entries reference object ids; a node
at level ``L > 0`` references child nodes at level ``L - 1`` by page id.
This matches the paper's description: non-leaf entries are ``(mbr, cp)``
pairs, leaf entries are ``(mbr, oid)`` pairs.

Seeded trees reuse these types for their grown nodes, and extend
:class:`Entry` with the optional ``shadow`` field used by seed-level
filtering (Section 3.2) — the field exists on every entry but is ``None``
outside seed nodes, costing one slot per entry.

Nodes carry three lazily built caches for the vectorized kernel layer
(:mod:`repro.kernels`): the struct-of-arrays columns of the entry MBRs,
the columns of the entry shadows, and the node MBR. Every code path
that mutates ``entries`` (or an entry's ``mbr``/``shadow`` in place)
must call :meth:`Node.invalidate_caches` (or, for one replaced entry
MBR, :meth:`Node.patch_entry_mbr`); the runtime sanitizer cross-checks
cache coherence at phase boundaries.

The same two calls give the node a new *edit tick* from one
process-wide counter (:func:`next_edit_tick`), as does creating it. A
columnar snapshot remembers the tick it was taken at, so the next one
re-reads only the nodes that are new or carry a later tick
(:func:`repro.join.batch.column_tree_of`).
"""

from __future__ import annotations

import itertools
from typing import Iterable

from ..geometry import Rect, union_all
from ..kernels import RectArray

#: Sentinel cached when a node has at least one shadow-less entry, so
#: the miss itself is remembered (``None`` means "not computed yet").
_NO_SHADOWS = object()

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

    __slots__ = (
        "page_id", "level", "entries", "tick",
        "_rect_cache", "_mbr_cache", "_shadow_cache",
    )

    def __init__(self, level: int, entries: list[Entry] | None = None,
                 page_id: int = -1):
        self.level = level
        self.entries = entries if entries is not None else []
        self.page_id = page_id
        self.tick = next_edit_tick()
        self._rect_cache: RectArray | None = None
        self._mbr_cache: Rect | None = None
        self._shadow_cache: object = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        return len(self.entries)

    # ----------------------------------------------------------------- #
    # Kernel caches
    # ----------------------------------------------------------------- #

    def invalidate_caches(self) -> None:
        """Drop the column/MBR caches after any entry mutation."""
        self._rect_cache = None
        self._mbr_cache = None
        self._shadow_cache = None
        self.tick = next_edit_tick()

    def patch_entry_mbr(self, i: int) -> None:
        """Refresh the caches after entry ``i``'s MBR was replaced.

        The seed-descent update policies rewrite one entry's box per
        visited node; dropping the whole column cache there would force
        a rebuild on every descent. Patching the one changed row keeps
        the columns warm (shadows are untouched by updates; the node
        MBR must still be recomputed).
        """
        cache = self._rect_cache
        if cache is not None and cache.n == len(self.entries):
            cache.patch_row(i, self.entries[i].mbr)
        else:
            self._rect_cache = None
        self._mbr_cache = None
        self.tick = next_edit_tick()

    def rect_array(self) -> RectArray:
        """Struct-of-arrays columns of the entry MBRs, lazily built.

        The length check is a belt-and-suspenders guard: a caller that
        appended an entry but forgot :meth:`invalidate_caches` still
        gets a rebuild instead of a silently short array (in-place MBR
        edits remain the sanitizer's job to catch).
        """
        cache = self._rect_cache
        if cache is None or cache.n != len(self.entries):
            cache = RectArray.from_entries(self.entries)
            self._rect_cache = cache
        return cache

    def warm_rect_array(self) -> RectArray | None:
        """The column cache only if it is already valid, else ``None``.

        A gate for callers that cannot amortise a build — they take the
        columns when some earlier pass left them warm and fall back to
        the scalar loop otherwise. (The insertion path no longer needs
        it: choose_subtree builds eagerly because the non-split adjust
        patches rather than invalidates.)
        """
        cache = self._rect_cache
        if cache is not None and cache.n == len(self.entries):
            return cache
        return None

    def cached_mbr(self) -> Rect:
        """The node MBR, computed once per cache generation."""
        mbr = self._mbr_cache
        if mbr is None:
            mbr = union_all(e.mbr for e in self.entries)
            self._mbr_cache = mbr
        return mbr

    def shadow_array(self) -> RectArray | None:
        """Columns of the entry shadows, or ``None`` if any is unset."""
        cached = self._shadow_cache
        if cached is None or (
            isinstance(cached, RectArray) and cached.n != len(self.entries)
        ):
            shadows = [e.shadow for e in self.entries]
            if any(s is None for s in shadows):
                cached = _NO_SHADOWS
            else:
                cached = RectArray.from_rects(shadows)  # type: ignore[arg-type]
            self._shadow_cache = cached
        return cached if isinstance(cached, RectArray) else None

    # ----------------------------------------------------------------- #
    # Pickling (drop caches: numpy columns are heavier than the entries)
    # ----------------------------------------------------------------- #

    def __getstate__(self) -> tuple[int, int, list[Entry]]:
        return (self.page_id, self.level, self.entries)

    def __setstate__(self, state: tuple[int, int, list[Entry]]) -> None:
        self.page_id, self.level, self.entries = state
        self.tick = next_edit_tick()
        self._rect_cache = None
        self._mbr_cache = None
        self._shadow_cache = None

    def __repr__(self) -> str:
        return (
            f"Node(page={self.page_id}, level={self.level}, "
            f"entries={len(self.entries)})"
        )


def node_mbr(node: Node) -> Rect:
    """True minimum bounding rectangle of a node's entries."""
    return union_all(e.mbr for e in node.entries)


def entries_mbr(entries: Iterable[Entry]) -> Rect:
    """MBR of a plain entry collection (used while splitting)."""
    return union_all(e.mbr for e in entries)
