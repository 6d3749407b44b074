"""Splitting join inputs into per-tile shards.

A :class:`ShardDescriptor` is everything one partition's join needs:
the tile, and *row indices* into both inputs' entry lists naming the
(boundary-replicated) entries that overlap it. Each side's indices
follow input order, so ``[entries[i] for i in indices]`` is the tile's
entry list in a fixed order and a substrate built from it is
deterministic. Descriptors are what the persistent worker pool ships —
the entries themselves travel once, through shared-memory columns, not
once per join per tile — and what the in-process route slices into
per-tile entry lists. Each tile builds its own disk/buffer substrate
from those lists, so no simulated-storage state ever crosses a process
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..geometry import Rect, union_all
from ..storage.datafile import DataEntry
from .grid import GridPartitioner, Tile

__all__ = [
    "ShardDescriptor",
    "joint_universe",
    "make_shard_descriptors",
    "shard_index_csr",
]


def joint_universe(*entry_sets: list[DataEntry]) -> Rect | None:
    """The MBR of every rectangle across the given entry lists.

    ``None`` when all lists are empty (the join answer is trivially
    empty and no grid is needed).
    """
    rects = [rect for entries in entry_sets for rect, _oid in entries]
    if not rects:
        return None
    return union_all(rects)


@dataclass
class ShardDescriptor:
    """One tile's slice of both inputs, as row indices into columns.

    ``indices_r``/``indices_s`` index the input entry lists (and thus a
    published dataset's shared coordinate/oid columns) in input order;
    an entry that overlaps several tiles appears in each of them.
    """

    tile: Tile
    indices_r: list[int] = field(default_factory=list)
    indices_s: list[int] = field(default_factory=list)

    @property
    def n_r(self) -> int:
        return len(self.indices_r)

    @property
    def n_s(self) -> int:
        return len(self.indices_s)

    @property
    def is_productive(self) -> bool:
        """Can this shard contribute pairs? Needs both sides non-empty."""
        return bool(self.indices_r) and bool(self.indices_s)


def _scatter_indices(
    partitioner: GridPartitioner,
    entries: list[DataEntry],
    buckets: list[list[int]],
) -> None:
    """Append each entry's position to the bucket of every tile it
    overlaps.

    This is :meth:`GridPartitioner.tiles_for` with the clamped-floor
    arithmetic inlined: the scatter pass is the only serial O(n) work
    the parent does per parallel join, and most rectangles land in
    exactly one tile, so shaving the per-entry call overhead directly
    shortens the sequential section of every run. The formulas must
    stay in lock-step with ``_axis_index`` — the property suite checks
    descriptor membership against ``tiles_for`` to enforce that.
    """
    u = partitioner.universe
    xlo0, ylo0 = u.xlo, u.ylo
    step_x, step_y = partitioner.tile_w, partitioner.tile_h
    cols, rows = partitioner.cols, partitioner.rows
    cmax, rmax = cols - 1, rows - 1
    flat_x = step_x <= 0.0 or cols == 1
    flat_y = step_y <= 0.0 or rows == 1
    for i, entry in enumerate(entries):
        rect = entry[0]
        if flat_x:
            c_lo = c_hi = 0
        else:
            c_lo = int((rect.xlo - xlo0) / step_x)
            c_lo = 0 if c_lo < 0 else (cmax if c_lo > cmax else c_lo)
            c_hi = int((rect.xhi - xlo0) / step_x)
            c_hi = 0 if c_hi < 0 else (cmax if c_hi > cmax else c_hi)
        if flat_y:
            r_lo = r_hi = 0
        else:
            r_lo = int((rect.ylo - ylo0) / step_y)
            r_lo = 0 if r_lo < 0 else (rmax if r_lo > rmax else r_lo)
            r_hi = int((rect.yhi - ylo0) / step_y)
            r_hi = 0 if r_hi < 0 else (rmax if r_hi > rmax else r_hi)
        if c_lo == c_hi and r_lo == r_hi:
            buckets[r_lo * cols + c_lo].append(i)
        else:
            for row in range(r_lo, r_hi + 1):
                base = row * cols
                for col in range(c_lo, c_hi + 1):
                    buckets[base + col].append(i)


def make_shard_descriptors(
    partitioner: GridPartitioner,
    entries_r: list[DataEntry],
    entries_s: list[DataEntry],
    keep_unproductive: bool = False,
) -> list[ShardDescriptor]:
    """Replicate both inputs into per-tile index shards.

    Every rectangle lands in every tile it overlaps (so each tile's join
    is self-contained); tiles missing one side entirely cannot produce a
    pair and are dropped unless ``keep_unproductive`` — skipping them is
    the executor's main pruning win, and per-partition accounting only
    sums over shards that actually ran.
    """
    descriptors = [ShardDescriptor(tile=tile) for tile in partitioner.tiles]
    _scatter_indices(
        partitioner, entries_r, [d.indices_r for d in descriptors]
    )
    _scatter_indices(
        partitioner, entries_s, [d.indices_s for d in descriptors]
    )
    return [
        d for d in descriptors
        if keep_unproductive or d.is_productive
    ]


def shard_index_csr(
    descriptors: list[ShardDescriptor], num_tiles: int, side: str,
) -> list[int]:
    """Flatten one side of the descriptors into a CSR-style int list.

    Layout: ``num_tiles + 1`` offsets, then the concatenated row
    indices; tile ``t``'s rows live at
    ``csr[1 + num_tiles + csr[t] : 1 + num_tiles + csr[t + 1]]``.
    Tiles absent from ``descriptors`` (pruned as unproductive) are
    empty rows. One flat list so the whole index ships as a single
    shared-memory segment.
    """
    rows: list[list[int]] = [[] for _ in range(num_tiles)]
    for d in descriptors:
        rows[d.tile.index] = (
            d.indices_r if side == "r" else d.indices_s
        )
    offsets = [0] * (num_tiles + 1)
    for t, row in enumerate(rows):
        offsets[t + 1] = offsets[t] + len(row)
    flat = offsets
    for row in rows:
        flat.extend(row)
    return flat
