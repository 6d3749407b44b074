"""Publishing join inputs into shared memory, once per dataset.

The persistent worker pool's whole premium is that a dataset's
rectangles cross the process boundary **once**, not once per join per
tile. The parent *publishes* a dataset — per side, its coordinates as
one float64 ``(4, n)`` segment and its oids as one int64 segment — and
thereafter ships only
:class:`~repro.partition.shard.ShardDescriptor`-derived tile jobs (a
tile index plus a dataset key). Workers *attach* to the
published segments read-only and reconstruct any tile's entry list
locally from the shared CSR shard index.

Ownership is strictly parent-side: :class:`PublishedDataset` owns every
segment and is the only place ``unlink`` happens; workers hold
:class:`AttachedDataset` views that only ever ``close``. The parent's
:class:`DatasetCache` keeps published datasets warm across joins on the
same inputs — identity is the source objects themselves (weakly
referenced), staleness is detected through cheap stamps (entry counts
and the R-tree's ``mutations`` counter), and eviction both unlinks the
segments and notifies registered listeners (worker pools) so attached
processes drop their views before the memory goes away.
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..analysis.witness import witnessed_lock
from ..errors import ParallelError, StaleDatasetError
from ..geometry import Rect
from ..partition import GridPartitioner, joint_universe
from ..partition.shard import (
    ShardDescriptor,
    make_shard_descriptors,
    shard_index_csr,
)
from ..storage.datafile import DataEntry
from .shm import SegmentDescriptor, SharedRectArray, SharedSegment

__all__ = [
    "AttachedDataset",
    "DatasetCache",
    "DatasetDescriptor",
    "GridIndexDescriptor",
    "PublishedDataset",
    "add_invalidation_listener",
    "remove_invalidation_listener",
]

#: Monotonic source of dataset keys; never reused within a process, so a
#: worker can treat (key, version) as a universally fresh identity.
_KEY_COUNTER = itertools.count()

#: Pools register here to learn that a published dataset is going away
#: (cache eviction or staleness) *before* its segments are unlinked.
_INVALIDATION_LISTENERS: list[Callable[[str], None]] = []


def add_invalidation_listener(listener: Callable[[str], None]) -> None:
    if listener not in _INVALIDATION_LISTENERS:
        _INVALIDATION_LISTENERS.append(listener)


def remove_invalidation_listener(listener: Callable[[str], None]) -> None:
    if listener in _INVALIDATION_LISTENERS:
        _INVALIDATION_LISTENERS.remove(listener)


def _notify_invalidated(key: str) -> None:
    for listener in list(_INVALIDATION_LISTENERS):
        listener(key)


@dataclass(frozen=True)
class DatasetDescriptor:
    """Picklable handle naming every segment of one published dataset."""

    key: str
    version: int
    n_r: int
    n_s: int
    rects_r: SegmentDescriptor
    oids_r: SegmentDescriptor
    rects_s: SegmentDescriptor
    oids_s: SegmentDescriptor


@dataclass(frozen=True)
class GridIndexDescriptor:
    """One grid shape's shared CSR shard index over a dataset.

    ``csr_r``/``csr_s`` name flat int64 segments in
    :func:`~repro.partition.shard.shard_index_csr` layout; tile ``t``'s
    rows for a side sit at
    ``csr[1 + num_tiles + csr[t] : 1 + num_tiles + csr[t + 1]]``.
    """

    rows: int
    cols: int
    universe: tuple[float, float, float, float]
    num_tiles: int
    csr_r: SegmentDescriptor
    csr_s: SegmentDescriptor


class PublishedDataset:
    """Parent-side owner of one dataset's shared segments.

    Holds the original entry lists too: the in-process (guard-fallback)
    path slices its per-tile entry lists from them by descriptor with
    zero re-extraction, and they are the ground truth the shared
    columns were copied from.
    """

    def __init__(
        self,
        key: str,
        version: int,
        entries_r: list[DataEntry],
        entries_s: list[DataEntry],
    ) -> None:
        self.key = key
        self.version = version
        self.entries_r = entries_r
        self.entries_s = entries_s
        self.universe = joint_universe(entries_r, entries_s)
        self.rects_r = SharedRectArray.create(entries_r)
        self.rects_s = SharedRectArray.create(entries_s)
        try:
            self.oids_r = SharedSegment.create(
                [oid for _r, oid in entries_r], np.int64)
            self.oids_s = SharedSegment.create(
                [oid for _r, oid in entries_s], np.int64)
        except ParallelError:
            self.unlink()
            raise
        # (rows, cols) -> (partitioner, descriptors, csr_r, csr_s, grid
        # descriptor); grids are published lazily, first join per shape.
        self._grids: dict[tuple[int, int], tuple[Any, ...]] = {}
        self._unlinked = False

    @property
    def descriptor(self) -> DatasetDescriptor:
        return DatasetDescriptor(
            key=self.key,
            version=self.version,
            n_r=len(self.entries_r),
            n_s=len(self.entries_s),
            rects_r=self.rects_r.descriptor,
            oids_r=self.oids_r.descriptor,
            rects_s=self.rects_s.descriptor,
            oids_s=self.oids_s.descriptor,
        )

    def grid(
        self, partitions: int
    ) -> tuple[
        GridPartitioner, list[ShardDescriptor], GridIndexDescriptor
    ]:
        """The (cached) shard descriptors and CSR index for a tile count.

        The grid shape is a pure function of the (fixed) universe and
        the requested tile count, so caching by the resolved
        ``(rows, cols)`` makes repeat joins skip the scatter pass — the
        last O(n) serial work on the warm path.
        """
        if self.universe is None:
            raise ParallelError("cannot grid an empty dataset")
        partitioner = GridPartitioner.for_tile_count(self.universe, partitions)
        shape = (partitioner.rows, partitioner.cols)
        cached = self._grids.get(shape)
        if cached is None:
            descriptors = make_shard_descriptors(
                partitioner, self.entries_r, self.entries_s
            )
            num_tiles = len(partitioner.tiles)
            csr_r = SharedSegment.create(
                shard_index_csr(descriptors, num_tiles, "r"), np.int64
            )
            csr_s = SharedSegment.create(
                shard_index_csr(descriptors, num_tiles, "s"), np.int64
            )
            grid_descriptor = GridIndexDescriptor(
                rows=partitioner.rows,
                cols=partitioner.cols,
                universe=partitioner.universe.as_tuple(),
                num_tiles=num_tiles,
                csr_r=csr_r.descriptor,
                csr_s=csr_s.descriptor,
            )
            cached = (partitioner, descriptors, csr_r, csr_s, grid_descriptor)
            self._grids[shape] = cached
        return cached[0], cached[1], cached[4]

    def unlink(self) -> None:
        """Destroy every segment this dataset published (idempotent)."""
        if getattr(self, "_unlinked", False):
            return
        self._unlinked = True
        for shared in (
            getattr(self, "rects_r", None),
            getattr(self, "rects_s", None),
            getattr(self, "oids_r", None),
            getattr(self, "oids_s", None),
        ):
            if shared is not None:
                shared.unlink()
        for _p, _d, csr_r, csr_s, _gd in getattr(self, "_grids", {}).values():
            csr_r.unlink()
            csr_s.unlink()
        self._grids = {}

    def __repr__(self) -> str:
        return (
            f"PublishedDataset(key={self.key!r}, version={self.version}, "
            f"n_r={len(self.entries_r)}, n_s={len(self.entries_s)}, "
            f"grids={len(self._grids)})"
        )


class AttachedDataset:
    """Worker-side read-only view of a published dataset.

    Attached columns are never written (enforced by the read-only
    views, linted by RPR008); grid CSR indexes attach lazily per shape
    and are cached for the dataset's lifetime in this process.
    """

    def __init__(self, descriptor: DatasetDescriptor) -> None:
        self.key = descriptor.key
        self.version = descriptor.version
        try:
            self.rects_r = SharedRectArray.attach(descriptor.rects_r)
            self.oids_r = SharedSegment.attach(descriptor.oids_r)
            self.rects_s = SharedRectArray.attach(descriptor.rects_s)
            self.oids_s = SharedSegment.attach(descriptor.oids_s)
        except FileNotFoundError as exc:
            self.close()
            raise StaleDatasetError(
                f"dataset {descriptor.key!r} v{descriptor.version} segment "
                f"vanished before attach: {exc}"
            ) from exc
        self._csr: dict[
            tuple[int, int], tuple[SharedSegment, SharedSegment]
        ] = {}

    def _csr_for(
        self, grid: GridIndexDescriptor
    ) -> tuple[SharedSegment, SharedSegment]:
        shape = (grid.rows, grid.cols)
        cached = self._csr.get(shape)
        if cached is None:
            try:
                cached = (
                    SharedSegment.attach(grid.csr_r),
                    SharedSegment.attach(grid.csr_s),
                )
            except FileNotFoundError as exc:
                raise StaleDatasetError(
                    f"grid index {shape} of dataset {self.key!r} vanished "
                    f"before attach: {exc}"
                ) from exc
            self._csr[shape] = cached
        return cached

    def tile_entries(
        self, grid: GridIndexDescriptor, tile: int
    ) -> tuple[list[DataEntry], list[DataEntry]]:
        """Reconstruct one tile's ``(entries_r, entries_s)``.

        Row order equals the parent's scatter order, so a substrate
        built from these lists is bit-identical to one the in-process
        route builds by slicing the same
        :class:`~repro.partition.ShardDescriptor`.
        """
        csr_r, csr_s = self._csr_for(grid)
        return (
            self._side_entries(csr_r, grid.num_tiles, tile,
                               self.rects_r, self.oids_r),
            self._side_entries(csr_s, grid.num_tiles, tile,
                               self.rects_s, self.oids_s),
        )

    @staticmethod
    def _side_entries(
        csr: SharedSegment, num_tiles: int, tile: int,
        rects: SharedRectArray, oids: SharedSegment,
    ) -> list[DataEntry]:
        flat = csr.values
        base = num_tiles + 1
        lo = base + int(flat[tile])
        hi = base + int(flat[tile + 1])
        xlo, ylo, xhi, yhi = rects.xlo, rects.ylo, rects.xhi, rects.yhi
        oid_col = oids.values
        out: list[DataEntry] = []
        for k in range(lo, hi):
            i = int(flat[k])
            out.append((
                Rect(float(xlo[i]), float(ylo[i]),
                     float(xhi[i]), float(yhi[i])),
                int(oid_col[i]),
            ))
        return out

    def close(self) -> None:
        """Release every mapping this view holds (idempotent)."""
        for csr_r, csr_s in getattr(self, "_csr", {}).values():
            csr_r.close()
            csr_s.close()
        self._csr = {}
        for name in ("rects_r", "oids_r", "rects_s", "oids_s"):
            shared = getattr(self, name, None)
            if shared is not None:
                shared.close()
                setattr(self, name, None)


class DatasetCache:
    """Keeps published datasets warm across joins on the same inputs.

    Keyed by the *identity* of the source objects (``data_s``,
    ``tree_r``, optional ``data_r``), guarded against id reuse with
    weak references and against in-place edits with stamps: the entry
    counts plus the R-tree's ``mutations`` counter. A miss on a known
    key (source died, stamps moved) evicts — unlink plus listener
    notification — before the caller republishes.

    Structurally thread-safe: lookup/publish/clear serialize on a lock
    (the service plans joins from several executor threads). Keeping a
    dataset alive for the duration of a join is the capacity's job —
    size it to at least the number of concurrently-joining datasets.
    """

    def __init__(self, capacity: int = 4) -> None:
        if capacity < 1:
            raise ParallelError("dataset cache capacity must be >= 1")
        self.capacity = capacity
        # insertion-ordered: first key is the least recently used.
        self._entries: dict[tuple[int, ...], dict[str, Any]] = {}
        self._versions = itertools.count(1)
        self._lock = witnessed_lock("dataset", threading.RLock())

    # ----------------------------------------------------------------- #

    @staticmethod
    def _identity(data_s: Any, tree_r: Any, data_r: Any) -> tuple[int, ...]:
        return (id(data_s), id(tree_r), id(data_r) if data_r is not None else 0)

    @staticmethod
    def _stamps(data_s: Any, tree_r: Any, data_r: Any) -> tuple[Any, ...]:
        return (
            len(data_s),
            len(tree_r),
            getattr(tree_r, "mutations", None),
            len(data_r) if data_r is not None else -1,
        )

    @staticmethod
    def _weakrefs(
        data_s: Any, tree_r: Any, data_r: Any
    ) -> list[weakref.ref] | None:
        try:
            refs = [weakref.ref(data_s), weakref.ref(tree_r)]
            if data_r is not None:
                refs.append(weakref.ref(data_r))
            return refs
        except TypeError:  # pragma: no cover - slotted source types
            return None

    # ----------------------------------------------------------------- #

    def lookup(
        self, data_s: Any, tree_r: Any, data_r: Any = None
    ) -> PublishedDataset | None:
        """The warm published dataset for these sources, or ``None``.

        Runs **before** entry extraction: validation needs only the
        cheap stamps, which is precisely what lets a warm join skip the
        O(n) extraction and scatter passes entirely.
        """
        with self._lock:
            key = self._identity(data_s, tree_r, data_r)
            entry = self._entries.get(key)
            if entry is None:
                return None
            refs = entry["refs"]
            alive = refs is not None and all(r() is not None for r in refs)
            sources_match = (
                alive and refs[0]() is data_s and refs[1]() is tree_r
            )
            if (
                not sources_match
                or entry["stamps"] != self._stamps(data_s, tree_r, data_r)
            ):
                self._evict(key)
                return None
            # Refresh recency.
            self._entries[key] = self._entries.pop(key)
            return entry["dataset"]

    def publish(
        self,
        data_s: Any,
        tree_r: Any,
        data_r: Any,
        entries_r: list[DataEntry],
        entries_s: list[DataEntry],
    ) -> PublishedDataset:
        """Publish (or republish) the dataset for these sources."""
        with self._lock:
            key = self._identity(data_s, tree_r, data_r)
            stale = self._entries.get(key)
            version = next(self._versions)
            logical = (
                stale["dataset"].key if stale is not None
                else f"ds{next(_KEY_COUNTER)}-{os.getpid()}"
            )
            if stale is not None:
                self._evict(key)
            while len(self._entries) >= self.capacity:
                self._evict(next(iter(self._entries)))
            dataset = PublishedDataset(logical, version, entries_r, entries_s)
            self._entries[key] = {
                "refs": self._weakrefs(data_s, tree_r, data_r),
                "stamps": self._stamps(data_s, tree_r, data_r),
                "dataset": dataset,
            }
            return dataset

    def _evict(self, key: tuple[int, ...]) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        dataset: PublishedDataset = entry["dataset"]
        # Listeners (pools) must drop worker attachments before the
        # segments go away, or a live view could fault mid-join.
        _notify_invalidated(dataset.key)
        dataset.unlink()

    def clear(self) -> None:
        with self._lock:
            for key in list(self._entries):
                self._evict(key)

    def __len__(self) -> int:
        return len(self._entries)
