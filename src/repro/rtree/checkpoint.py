"""Construction checkpointing for join-time R-tree builds.

Join-time construction (algorithm RTJ) inserts the whole inner data set
one object at a time; under a fault plan a simulated crash anywhere in
that loop would otherwise forfeit all work done so far. This module
snapshots the under-construction tree every ``checkpoint_every`` inserts
using the byte-level dump format of :mod:`repro.rtree.persist`:

* :class:`RTreeCheckpointer` serialises the tree with
  :func:`~repro.rtree.persist.dump_tree` and writes the blob to a
  contiguous run of ``META`` pages — charged like any other I/O (one
  random access plus sequential accesses), because durability is not
  free.
* After a crash (buffer discarded, disk intact) the driver calls
  :meth:`RTreeCheckpointer.load_latest` to reconstitute the snapshot
  through :func:`~repro.rtree.persist.load_tree` — a charged sequential
  read of the blob pages — and resumes inserting from the first entry
  the snapshot had not yet absorbed.

Snapshots quantize coordinates to ``float32`` (the dump format's stored
precision), so a resumed build of wider-than-float32 data is rounded;
experiment data on the 1/1024 grid round-trips exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..config import SystemConfig
from ..geometry import Rect
from ..metrics import MetricsCollector
from ..storage import BufferPool, Page, PageKind
from ..storage.disk import DiskSimulator
from ..storage.faults import retry_read
from .persist import dump_tree, load_tree
from .rtree import RTree
from .split import SplitFunction, quadratic_split


@dataclass(frozen=True)
class BuildSnapshot:
    """Locator of one durable construction snapshot."""

    first_page_id: int
    num_pages: int
    entries_done: int


class RTreeCheckpointer:
    """Periodic durable snapshots of an under-construction R-tree.

    Only the latest snapshot is tracked: recovery never rolls back past
    the most recent checkpoint, and superseded blob pages are simply
    abandoned on the simulated disk (a real system would recycle the
    extent; the cost model only cares about accesses, not occupancy).
    """

    def __init__(self, disk: DiskSimulator, config: SystemConfig,
                 every: int):
        if every < 1:
            raise ValueError("checkpoint interval must be at least 1")
        self.disk = disk
        self.config = config
        self.every = every
        self._latest: BuildSnapshot | None = None
        self._since = 0

    def maybe_checkpoint(self, tree: RTree, entries_done: int) -> None:
        """Take a snapshot when ``every`` inserts have passed since the last."""
        self._since += 1
        if self._since >= self.every:
            self.checkpoint(tree, entries_done)

    def checkpoint(self, tree: RTree, entries_done: int) -> None:
        """Serialise ``tree`` and write it durably as one contiguous run.

        The snapshot record is updated only after the write completes, so
        a crash *during* the checkpoint write leaves the previous
        snapshot in force.
        """
        blob = dump_tree(tree, allow_quantize=True)
        page_size = self.config.page_size
        num_pages = (len(blob) + page_size - 1) // page_size or 1
        first_id = self.disk.allocate(num_pages)
        pages = [
            Page(first_id + i, PageKind.META,
                 blob[i * page_size:(i + 1) * page_size])
            for i in range(num_pages)
        ]
        self.disk.write_run(pages)
        self.disk.metrics.record_checkpoint()
        self._latest = BuildSnapshot(first_id, num_pages, entries_done)
        self._since = 0

    def latest(self) -> BuildSnapshot | None:
        return self._latest

    def load_latest(
        self,
        buffer: BufferPool,
        metrics: MetricsCollector | None = None,
        name: str = "",
        fast: bool | None = None,
    ) -> tuple[RTree, int] | None:
        """Reconstitute the latest snapshot; ``None`` when there is none.

        The blob pages are read back sequentially with per-page transient
        retries (each page's transient cap sits below the retry budget,
        so the load always survives flaky reads); corruption of any blob
        page (or of the dump body itself) raises
        :class:`~repro.errors.CorruptPageError` through
        :func:`~repro.rtree.persist.load_tree`.
        """
        snap = self._latest
        if snap is None:
            return None
        pages = [
            retry_read(
                # Snapshot blobs are reloaded straight off disk: the
                # buffer may not have survived the crash, and replay
                # reads must not disturb its LRU state.
                # repro-lint: disable=RPR001 -- deliberate buffer bypass
                lambda pid=page_id: self.disk.read(pid), self.disk.metrics
            )
            for page_id in range(
                snap.first_page_id, snap.first_page_id + snap.num_pages
            )
        ]
        blob = b"".join(p.payload for p in pages)
        tree = load_tree(buffer, self.config, blob,
                         metrics=metrics, name=name, fast=fast)
        return tree, snap.entries_done


def build_with_checkpoints(
    buffer: BufferPool,
    config: SystemConfig,
    entries: Iterable[tuple[Rect, int]],
    metrics: MetricsCollector | None = None,
    *,
    checkpointer: RTreeCheckpointer | None = None,
    resume: tuple[RTree, int] | None = None,
    split: SplitFunction = quadratic_split,
    name: str = "",
    fast: bool | None = None,
) -> RTree:
    """:meth:`RTree.build` with periodic snapshots and resumability.

    ``resume`` is a ``(tree, entries_done)`` pair from
    :meth:`RTreeCheckpointer.load_latest`; the first ``entries_done``
    input entries are skipped because the snapshot already holds them.
    With no checkpointer and no resume this is exactly the plain
    one-at-a-time build the paper charges RTJ with.
    """
    all_entries = list(entries)
    if resume is not None:
        tree, done = resume
    else:
        tree = RTree(buffer, config, metrics=metrics, split=split, name=name,
                     fast=fast)
        done = 0
    for i in range(done, len(all_entries)):
        rect, oid = all_entries[i]
        tree.insert(rect, oid)
        if checkpointer is not None:
            checkpointer.maybe_checkpoint(tree, i + 1)
    return tree
