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

The file's entries are one run of columns (:class:`ZRun`): numpy
``zlo``, ``zhi`` and the four bounding-box coordinates, plus a list of
the Python-int oids. A page holds a :class:`ZSlice` of that run, its
``(run, start, stop)`` rows, so a page is a constant number of objects
the garbage collector tracks, where a list of :class:`ZEntry` rows was
two per element; :attr:`ZSlice.entries` still gives the rows.

Building a z-file has two paths, picked by ``fast``. The fast path
decomposes every rectangle at once (:func:`~repro.zorder.curve
.decompose_batch`) and orders the elements with one stable argsort of
the merge key (:func:`merge_key`); ``fast=False`` runs the scalar
reference, one :func:`~repro.zorder.curve.decompose` call per rectangle
and a list sort, and converts the sorted list to columns. Both write the
same entries in the same order on the same pages. The fast path also
takes the objects as columns (:class:`ObjectColumns`), such as the leaf
entries of a tree's columnar snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

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


class ZEntry(NamedTuple):
    """One element of one object, as stored in a z-file."""

    element: ZElement
    mbr: Rect
    oid: int


@dataclass(slots=True, eq=False)
class ZRun:
    """Z-file entries in z-order, as columns: one page's, or a file's.

    ``zlo``/``zhi`` are int64 and ``xlo``/``ylo``/``xhi``/``yhi``
    float64 numpy columns; ``oids`` is a list of Python ints, so an oid
    beyond int64 keeps its value. Row ``i`` is the entry
    ``ZEntry(ZElement(zlo[i], zhi[i]), Rect(xlo[i], ..., yhi[i]),
    oids[i])``.
    """

    zlo: np.ndarray
    zhi: np.ndarray
    xlo: np.ndarray
    ylo: np.ndarray
    xhi: np.ndarray
    yhi: np.ndarray
    oids: list[int]

    @classmethod
    def of_entries(cls, entries: Sequence[ZEntry]) -> "ZRun":
        """The columns of a list of entries, row for row."""
        return cls(
            np.array([e.element.zlo for e in entries], dtype=np.int64),
            np.array([e.element.zhi for e in entries], dtype=np.int64),
            np.array([e.mbr.xlo for e in entries], dtype=np.float64),
            np.array([e.mbr.ylo for e in entries], dtype=np.float64),
            np.array([e.mbr.xhi for e in entries], dtype=np.float64),
            np.array([e.mbr.yhi for e in entries], dtype=np.float64),
            [e.oid for e in entries],
        )

    @classmethod
    def concat(cls, runs: Sequence["ZRun"]) -> "ZRun":
        """The rows of ``runs``, one run after the other."""
        if not runs:
            return cls.of_entries([])
        oids: list[int] = []
        for run in runs:
            oids.extend(run.oids)
        return cls(
            *(np.concatenate([getattr(run, name) for run in runs])
              for name in ("zlo", "zhi", "xlo", "ylo", "xhi", "yhi")),
            oids,
        )

    def __len__(self) -> int:
        return len(self.oids)

    def __getitem__(self, rows: slice) -> "ZRun":
        return ZRun(self.zlo[rows], self.zhi[rows], self.xlo[rows],
                    self.ylo[rows], self.xhi[rows], self.yhi[rows],
                    self.oids[rows])

    @property
    def entries(self) -> list[ZEntry]:
        """The rows as :class:`ZEntry` values (built on each call)."""
        return [
            ZEntry(ZElement(zlo, zhi), Rect(xlo, ylo, xhi, yhi), oid)
            for zlo, zhi, xlo, ylo, xhi, yhi, oid in zip(
                self.zlo.tolist(), self.zhi.tolist(), self.xlo.tolist(),
                self.ylo.tolist(), self.xhi.tolist(), self.yhi.tolist(),
                self.oids,
            )
        ]


class ZSlice(NamedTuple):
    """One z-file page's payload: rows ``start:stop`` of the file's run."""

    run: ZRun
    start: int
    stop: int

    def columns(self) -> ZRun:
        """The page's rows as a run of their own (numpy views)."""
        return self.run[self.start:self.stop]

    @property
    def entries(self) -> list[ZEntry]:
        """The rows as :class:`ZEntry` values (built on each call)."""
        return self.columns().entries


class ObjectColumns(NamedTuple):
    """Data objects as columns: row ``i`` of the ``(n, 4)`` float64
    ``corners`` is the ``(xlo, ylo, xhi, yhi)`` of object ``oids[i]``;
    ``oids`` is an int64 array."""

    corners: np.ndarray
    oids: np.ndarray

    def rows(self) -> list[DataEntry]:
        """The objects as ``(rect, oid)`` rows."""
        return [(Rect(*row), oid) for row, oid in
                zip(self.corners.tolist(), self.oids.tolist())]


def merge_key(zlo: np.ndarray, zhi: np.ndarray) -> np.ndarray:
    """The merge order ``(zlo, -zhi)`` as one uint64 per row (z-values
    have 32 bits)."""
    key = zlo.astype(np.uint64) << np.uint64(32)
    key |= np.uint64(0xFFFFFFFF) - zhi.astype(np.uint64)
    return key


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
        run: ZRun | None = None,
    ):
        self.disk = disk
        self.config = config
        self.first_page_id = first_page_id
        self.num_pages = num_pages
        self.num_entries = num_entries
        self.num_objects = num_objects
        self.name = name
        #: The run the pages slice, so a read of them needs no concat.
        self._run = run

    @staticmethod
    def page_capacity(config: SystemConfig) -> int:
        return (config.page_size - config.node_header_bytes) // ENTRY_BYTES

    @classmethod
    def build(
        cls,
        disk: DiskSimulator,
        config: SystemConfig,
        entries: Iterable[DataEntry] | ObjectColumns,
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
            rects: Any
            oids: Any
            if isinstance(entries, ObjectColumns):
                rects, oids = entries
            else:
                rows = list(entries)
                rects = [rect for rect, _ in rows]
                oids = [oid for _, oid in rows]
            cover = decompose_batch(rects, max_elements)
            num_objects = cover.size
            # The scalar path appends each object's elements (sorted by
            # zlo) in input order, then sorts stably by (zlo, -zhi), so
            # ties between objects keep input order. The cover's rows
            # are grouped by object in input order, so one stable
            # argsort of the merge key is the same order.
            order = np.argsort(merge_key(cover.zlo, cover.zhi),
                               kind="stable")
            owner = cover.owner[order]
            corners = cover.corners
            if isinstance(oids, np.ndarray):
                run_oids = oids[owner].tolist()
            else:
                run_oids = list(map(oids.__getitem__, owner.tolist()))
            run = ZRun(
                cover.zlo[order], cover.zhi[order],
                corners[:, 0][owner], corners[:, 1][owner],
                corners[:, 2][owner], corners[:, 3][owner],
                run_oids,
            )
        else:
            if isinstance(entries, ObjectColumns):
                entries = entries.rows()
            z_entries = []
            num_objects = 0
            for rect, oid in entries:
                num_objects += 1
                for element in decompose(rect, max_elements=max_elements):
                    z_entries.append(ZEntry(element, rect, oid))
            z_entries.sort(key=lambda e: (e.element.zlo, -e.element.zhi))
            run = ZRun.of_entries(z_entries)

        capacity = cls.page_capacity(config)
        if capacity < 1:
            raise WorkloadError("page too small for z-file entries")
        num_entries = len(run)
        num_pages = (num_entries + capacity - 1) // capacity
        if num_pages == 0:
            return cls(disk, config, disk.allocate(1), 0, 0, num_objects,
                       name=name)
        first_id = disk.allocate(num_pages)
        pages = [
            Page(first_id + i, PageKind.DATA,
                 ZSlice(run, start, min(start + capacity, num_entries)))
            for i, start in enumerate(range(0, num_entries, capacity))
        ]
        disk.write_run(pages)
        return cls(disk, config, first_id, num_pages, num_entries,
                   num_objects, name=name, run=run)

    def scan(self) -> Iterator[ZEntry]:
        """Stream the elements in z-order (one sequential sweep)."""
        if self.num_pages == 0:
            return
        for page in self.disk.read_run(self.first_page_id, self.num_pages):
            yield from page.payload.entries

    def read_columns(self) -> ZRun:
        """The whole file as one run of columns (one sequential sweep,
        charged exactly as :meth:`scan`).

        Every page is read; when each holds a slice of the file's own
        run, that run is the answer as it stands, otherwise the pages'
        rows are concatenated.
        """
        if self.num_pages == 0:
            return ZRun.of_entries([])
        pages = self.disk.read_run(self.first_page_id, self.num_pages)
        run = self._run
        if run is not None and all(page.payload.run is run for page in pages):
            return run
        return ZRun.concat([page.payload.columns() for page in pages])

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
