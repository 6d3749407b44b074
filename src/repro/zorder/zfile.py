"""Z-files: a data set's elements in z-order on contiguous pages.

Orenstein's method stores each object's quadtree elements in a
one-dimensional index (a B+-tree keyed by z-value); joining amounts to
merging two such sequences. For join-cost purposes only the *leaf level*
matters — a sorted run read front to back — so a z-file is modelled as a
contiguous run of pages holding ``(zlo, zhi, mbr, oid)`` entries in
z-order, written with one sequential sweep and scanned with another.

An entry costs 8 bytes of z-interval, a 16-byte bounding box (kept for
the exact post-merge test) and a 4-byte oid = 28 bytes, so a 512 B page
holds 17 entries and a 1 KiB page 35.

Building a z-file has two paths, picked by ``fast``. The fast path
decomposes every rectangle at once (:func:`~repro.zorder.curve
.decompose_batch`) and orders the elements with one stable
``np.lexsort``; ``fast=False`` runs the scalar reference, one
:func:`~repro.zorder.curve.decompose` call per rectangle and a list
sort. Both write the same entries in the same order on the same pages.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

import numpy as np

from ..config import SystemConfig
from ..errors import WorkloadError
from ..geometry import Rect
from ..kernels import kernels_enabled
from ..storage import Page, PageKind
from ..storage.datafile import DataEntry
from ..storage.disk import DiskSimulator
from .curve import ZElement, decompose, decompose_batch

#: Per-entry bytes: z-interval (8) + bbox (16) + oid (4).
ENTRY_BYTES = 28

#: Sorted elements turned into ZEntry objects per ``tolist`` call on the
#: fast path, which bounds the temporary Python lists.
ENTRY_CHUNK = 4096


class ZEntry(NamedTuple):
    """One element of one object, as stored in a z-file."""

    element: ZElement
    mbr: Rect
    oid: int


class _ZPageRecord:
    __slots__ = ("entries",)

    def __init__(self, entries: list[ZEntry]):
        self.entries = entries


class ZFile:
    """A z-ordered element file over one spatial data set."""

    def __init__(
        self,
        disk: DiskSimulator,
        config: SystemConfig,
        first_page_id: int,
        num_pages: int,
        num_entries: int,
        num_objects: int,
        name: str = "",
    ):
        self.disk = disk
        self.config = config
        self.first_page_id = first_page_id
        self.num_pages = num_pages
        self.num_entries = num_entries
        self.num_objects = num_objects
        self.name = name

    @staticmethod
    def page_capacity(config: SystemConfig) -> int:
        return (config.page_size - config.node_header_bytes) // ENTRY_BYTES

    @classmethod
    def build(
        cls,
        disk: DiskSimulator,
        config: SystemConfig,
        entries: Iterable[DataEntry],
        max_elements: int = 4,
        name: str = "",
        fast: bool | None = None,
    ) -> "ZFile":
        """Decompose, sort, and write a data set's elements sequentially.

        The in-memory sort is CPU work (Orenstein's method would bulk-load
        a B+-tree); the I/O charged is the single sequential write of the
        sorted run, at whatever phase is active on the metrics collector.
        Entries are ordered by ``(zlo, -zhi)``, ties in input order.
        ``fast=None`` reads ``REPRO_KERNELS`` once.
        """
        if fast is None:
            fast = kernels_enabled()
        if fast:
            rows = list(entries)
            z_entries = _sorted_entries_batch(rows, max_elements)
            num_objects = len(rows)
        else:
            z_entries = []
            num_objects = 0
            for rect, oid in entries:
                num_objects += 1
                for element in decompose(rect, max_elements=max_elements):
                    z_entries.append(ZEntry(element, rect, oid))
            z_entries.sort(key=lambda e: (e.element.zlo, -e.element.zhi))

        capacity = cls.page_capacity(config)
        if capacity < 1:
            raise WorkloadError("page too small for z-file entries")
        num_pages = (len(z_entries) + capacity - 1) // capacity
        if num_pages == 0:
            return cls(disk, config, disk.allocate(1), 0, 0, num_objects,
                       name=name)
        first_id = disk.allocate(num_pages)
        pages = [
            Page(
                first_id + i, PageKind.DATA,
                _ZPageRecord(z_entries[i * capacity:(i + 1) * capacity]),
            )
            for i in range(num_pages)
        ]
        disk.write_run(pages)
        return cls(disk, config, first_id, num_pages, len(z_entries),
                   num_objects, name=name)

    def scan(self) -> Iterator[ZEntry]:
        """Stream the elements in z-order (one sequential sweep)."""
        if self.num_pages == 0:
            return
        for page in self.disk.read_run(self.first_page_id, self.num_pages):
            yield from page.payload.entries

    @property
    def redundancy(self) -> float:
        """Average elements per object — the [Ore89] trade-off knob."""
        if self.num_objects == 0:
            return 0.0
        return self.num_entries / self.num_objects

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"ZFile({label} objects={self.num_objects}, "
            f"entries={self.num_entries}, pages={self.num_pages})"
        )


def _sorted_entries_batch(
    rows: list[DataEntry], max_elements: int
) -> list[ZEntry]:
    """The scalar path's sorted entry list, from one batch decomposition.

    The scalar path appends each object's elements (sorted by ``zlo``)
    in input order and then sorts stably by ``(zlo, -zhi)``, so ties
    between objects stay in input order: one stable ``np.lexsort`` on
    ``(zlo, -zhi, input position)`` is the same order. Rectangles and
    oids stay the input's Python objects; only coordinates and z-values
    pass through numpy.
    """
    cover = decompose_batch([rect for rect, _ in rows], max_elements)
    order = np.lexsort((cover.owner, -cover.zhi, cover.zlo))
    z_entries: list[ZEntry] = []
    add = z_entries.append
    for start in range(0, order.size, ENTRY_CHUNK):
        take = order[start:start + ENTRY_CHUNK]
        for zlo, zhi, i in zip(cover.zlo[take].tolist(),
                               cover.zhi[take].tolist(),
                               cover.owner[take].tolist()):
            rect, oid = rows[i]
            add(ZEntry(ZElement(zlo, zhi), rect, oid))
    return z_entries
