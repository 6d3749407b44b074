"""Intermediate linked lists for seeded-tree construction (Section 3.1).

Building a tree larger than the buffer by direct insertion causes a
random disk access per buffer miss. The paper's remedy: during the
growing phase, data inserted through a slot is first appended to a linked
list of data pages under that slot. When the buffer fills, all lists
longer than a small constant are written out together — a *batch* — with
sequential I/O, and their slots start fresh lists. After the last
insertion, the grown subtrees are built slot by slot from the lists
(reading each flushed segment back sequentially), so each subtree is far
smaller than the buffer and construction-time buffer misses all but
disappear.

:class:`LinkedListManager` owns the lists and their page budget. List
pages live outside the :class:`~repro.storage.BufferPool` (they never
interleave with tree-node traffic), but they respect the same page
budget: the manager holds at most ``page_budget`` resident pages, where
the budget is the buffer capacity minus the pinned seed pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..config import SystemConfig
from ..errors import StorageError
from ..storage import Page, PageKind
from ..storage.datafile import DataEntry, DataPageRecord
from ..storage.disk import DiskSimulator
from ..storage.faults import retry_read


@dataclass(frozen=True, slots=True)
class ListSegment:
    """One slot's contiguous pages within a flushed batch."""

    slot_index: int
    first_page_id: int
    num_pages: int


@dataclass(frozen=True, slots=True)
class Batch:
    """A set of linked lists written to disk together (Section 3.1).

    The whole batch occupies one contiguous disk run, so writing it — and
    later reading it back during subtree construction — costs one random
    access plus sequential accesses for the remaining pages.
    """

    first_page_id: int
    num_pages: int
    segments: tuple[ListSegment, ...]


@dataclass(slots=True)
class SlotList:
    """The linked list accumulated under one slot."""

    pages: list[list[DataEntry]] = field(default_factory=list)
    total_entries: int = 0

    @property
    def resident_pages(self) -> int:
        return len(self.pages)


class LinkedListManager:
    """Per-slot linked lists with batched sequential flushing."""

    def __init__(
        self,
        disk: DiskSimulator,
        config: SystemConfig,
        num_slots: int,
        page_budget: int,
    ):
        if page_budget < 1:
            raise StorageError("linked lists need a budget of at least 1 page")
        self.disk = disk
        self.config = config
        self.page_budget = page_budget
        self.flush_threshold = config.list_flush_threshold
        self.slots = [SlotList() for _ in range(num_slots)]
        self.batches: list[Batch] = []
        self.resident_pages = 0
        self.batches_flushed = 0
        self.pages_flushed = 0

    # ----------------------------------------------------------------- #
    # Insertion
    # ----------------------------------------------------------------- #

    def append(self, slot_index: int, entry: DataEntry) -> None:
        """Add one data object to the list under ``slot_index``."""
        slot = self.slots[slot_index]
        capacity = self.config.data_page_capacity
        if not slot.pages or len(slot.pages[-1]) >= capacity:
            if self.resident_pages >= self.page_budget:
                self._flush_batch()
            slot.pages.append([])
            self.resident_pages += 1
        slot.pages[-1].append(entry)
        slot.total_entries += 1

    def _flush_batch(
        self, victims: list[tuple[int, "SlotList"]] | None = None
    ) -> None:
        """Write out all lists longer than the threshold as one batch.

        The whole batch occupies one contiguous disk run, so it costs one
        random access plus sequential accesses for the rest — this is the
        paper's replacement of random I/O with sequential I/O. Lists at or
        below the threshold stay resident; if that frees nothing (many
        tiny lists), every non-empty list is flushed instead. An explicit
        ``victims`` list overrides the threshold selection (checkpoints
        flush everything).
        """
        if victims is None:
            victims = [
                (i, s) for i, s in enumerate(self.slots)
                if s.resident_pages > self.flush_threshold
            ]
            if not victims:
                victims = [
                    (i, s) for i, s in enumerate(self.slots)
                    if s.resident_pages > 0
                ]
        if not victims:
            raise StorageError("buffer full but no list pages to flush")

        total = sum(s.resident_pages for _, s in victims)
        first_id = self.disk.allocate(total)
        pages: list[Page] = []
        segments: list[ListSegment] = []
        next_id = first_id
        for slot_index, slot in victims:
            seg_first = next_id
            count = slot.resident_pages
            for i, entries in enumerate(slot.pages):
                chain_next = next_id + 1 if i + 1 < count else -1
                pages.append(
                    Page(next_id, PageKind.LIST,
                         DataPageRecord(entries, chain_next))
                )
                next_id += 1
            segments.append(ListSegment(slot_index, seg_first, count))
            slot.pages = []
        self.disk.write_run(pages)
        self.batches.append(Batch(first_id, total, tuple(segments)))
        self.resident_pages -= total
        self.batches_flushed += 1
        self.pages_flushed += total

    # ----------------------------------------------------------------- #
    # Checkpoint / crash-recovery support
    # ----------------------------------------------------------------- #

    def flush_all(self) -> None:
        """Force every resident list page out as one batch.

        Construction checkpoints call this so that *all* appended entries
        are durable — after it returns, the batch records alone describe
        every entry ever appended, which is what makes a salvage record
        (see :mod:`repro.seeded.recovery`) complete. A no-op when nothing
        is resident.
        """
        victims = [
            (i, s) for i, s in enumerate(self.slots) if s.resident_pages > 0
        ]
        if victims:
            self._flush_batch(victims)

    def adopt_batches(self, batches: Iterable[Batch]) -> None:
        """Install batches flushed by a previous (crashed) incarnation.

        The batch pages are already durable on the shared disk; adopting
        them costs no I/O now — they are read back (charged) by the usual
        :meth:`regroup_and_drain` sweep during clean-up.
        """
        adopted = list(batches)
        self.batches.extend(adopted)
        self.batches_flushed += len(adopted)
        self.pages_flushed += sum(b.num_pages for b in adopted)

    # ----------------------------------------------------------------- #
    # Rebuild-time access
    # ----------------------------------------------------------------- #

    def regroup_and_drain(self) -> Iterator[tuple[int, list[DataEntry]]]:
        """Yield every slot's entries exactly once, in slot order.

        When nothing was ever flushed, the resident pages are handed over
        for free. Otherwise a *regroup pass* re-clusters the flushed data
        by slot with sequential I/O only — the external-partitioning
        counterpart of Section 3.1's batching:

        1. read every batch back (each is one contiguous run: one
           sequential sweep per batch);
        2. write the data out once more, packed and ordered by slot, as a
           single contiguous run (one sequential sweep);
        3. read that run back sequentially while the grown subtrees are
           built slot by slot.

        Steps 2-3 cost two sequential sweeps of the flushed data and in
        exchange every grown subtree is built exactly once — without the
        regroup, a slot whose list spanned several batches would have its
        half-built subtree evicted and randomly re-read between batches,
        which is precisely the miss pattern linked lists exist to avoid.
        """
        per_slot: dict[int, list[DataEntry]] = {}

        # Step 1: sequential batch replays, each page retried on
        # transient faults (identical charge when fault-free).
        for batch in self.batches:
            pages = [
                retry_read(
                    # Section 3.1 replays flushed list runs sequentially;
                    # caching them would evict live tree pages and
                    # double-count the reads.
                    # repro-lint: disable=RPR001 -- deliberate buffer bypass
                    lambda pid=page_id: self.disk.read(pid),
                    self.disk.metrics,
                )
                for page_id in range(
                    batch.first_page_id,
                    batch.first_page_id + batch.num_pages,
                )
            ]
            by_id = {p.page_id: p for p in pages}
            for segment in batch.segments:
                bucket = per_slot.setdefault(segment.slot_index, [])
                for pid in range(
                    segment.first_page_id,
                    segment.first_page_id + segment.num_pages,
                ):
                    bucket.extend(by_id[pid].payload.entries)
        had_batches = bool(self.batches)
        self.batches = []

        # Resident pages join the buckets for free.
        for slot_index, slot in enumerate(self.slots):
            if slot.pages:
                bucket = per_slot.setdefault(slot_index, [])
                for page_entries in slot.pages:
                    bucket.extend(page_entries)
                self.resident_pages -= slot.resident_pages
                slot.pages = []

        ordered = sorted(per_slot.items())

        if had_batches:
            # Steps 2-3: one packed regrouped run, written and read back
            # sequentially. (The pack also squeezes out the slack of the
            # partially filled flushed pages.)
            capacity = self.config.data_page_capacity
            flat: list[DataEntry] = []
            for _slot_index, entries in ordered:
                flat.extend(entries)
            num_pages = (len(flat) + capacity - 1) // capacity or 1
            first_id = self.disk.allocate(num_pages)
            pages = [
                Page(
                    first_id + i, PageKind.LIST,
                    DataPageRecord(flat[i * capacity:(i + 1) * capacity], -1),
                )
                for i in range(num_pages)
            ]
            self.disk.write_run(pages)
            for page_id in range(first_id, first_id + num_pages):
                retry_read(
                    # The regrouped run is read back sequentially once,
                    # outside the buffer, so the sweep does not evict the
                    # grown subtrees it feeds.
                    # repro-lint: disable=RPR001 -- deliberate buffer bypass
                    lambda pid=page_id: self.disk.read(pid),
                    self.disk.metrics,
                )

        yield from ordered

    def entries_in_slot(self, slot_index: int) -> int:
        return self.slots[slot_index].total_entries

    @property
    def total_entries(self) -> int:
        return sum(s.total_entries for s in self.slots)
