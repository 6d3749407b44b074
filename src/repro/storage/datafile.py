"""Sequential data files.

The paper's input data sets are files of (16-byte bounding box, 4-byte
object id) entries. Join algorithms read them front to back — a purely
sequential scan that bypasses the dedicated tree buffer. :class:`DataFile`
models such a file as a contiguous run of pages on the simulated disk;
:meth:`DataFile.scan` charges one sequential sweep per full read.

The same page record (:class:`DataPageRecord`) doubles as the payload of
the intermediate linked-list pages of Section 3.1, which share the layout.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..config import SystemConfig
from ..errors import WorkloadError
from ..geometry import Rect
from .disk import DiskSimulator
from .faults import retry_read
from .pager import Page, PageKind

#: One data object: its minimum bounding rectangle and object identifier.
DataEntry = tuple[Rect, int]


class DataPageRecord:
    """Payload of a data or linked-list page: entries plus a next pointer."""

    __slots__ = ("entries", "next_page_id")

    def __init__(self, entries: list[DataEntry], next_page_id: int = -1):
        self.entries = entries
        self.next_page_id = next_page_id

    def __len__(self) -> int:
        return len(self.entries)


class DataFile:
    """A spatial data set stored as contiguous (bbox, oid) pages.

    Create one with :meth:`DataFile.create`; the write is charged to the
    metrics phase active at creation time (experiments create input files
    during the un-charged SETUP phase).
    """

    def __init__(
        self,
        disk: DiskSimulator,
        config: SystemConfig,
        first_page_id: int,
        num_pages: int,
        num_objects: int,
        name: str = "",
    ):
        self.disk = disk
        self.config = config
        self.first_page_id = first_page_id
        self.num_pages = num_pages
        self.num_objects = num_objects
        self.name = name

    # ----------------------------------------------------------------- #
    # Construction
    # ----------------------------------------------------------------- #

    @classmethod
    def create(
        cls,
        disk: DiskSimulator,
        config: SystemConfig,
        entries: Iterable[DataEntry],
        name: str = "",
    ) -> "DataFile":
        """Write ``entries`` to disk as one contiguous sequential run."""
        all_entries = list(entries)
        capacity = config.data_page_capacity
        num_pages = config.data_pages_for(len(all_entries))
        if num_pages == 0:
            # An empty data set still gets a (zero-page) file object so
            # joins against empty inputs work uniformly.
            return cls(disk, config, disk.allocate(1), 0, 0, name)
        first_id = disk.allocate(num_pages)
        pages = []
        for i in range(num_pages):
            chunk = all_entries[i * capacity:(i + 1) * capacity]
            next_id = first_id + i + 1 if i + 1 < num_pages else -1
            pages.append(
                Page(first_id + i, PageKind.DATA, DataPageRecord(chunk, next_id))
            )
        disk.write_run(pages)
        return cls(disk, config, first_id, num_pages, len(all_entries), name)

    # ----------------------------------------------------------------- #
    # Access
    # ----------------------------------------------------------------- #

    def _read_run_retrying(self) -> list[Page]:
        """The file's pages, retrying each page on transient faults.

        Retrying per page (rather than replaying the whole run) keeps a
        long scan recoverable: the injector's per-page transient cap sits
        below the retry budget, so each page is guaranteed to come back.
        The fault-free charge is identical to a run read — the disk
        classifies contiguous accesses as sequential positionally — and a
        retried page honestly re-charges its replay seek as random.
        Corruption propagates unretried.
        """
        return [
            retry_read(
                lambda pid=page_id: self.disk.read(pid), self.disk.metrics,
                deadline=self.disk.deadline,
            )
            for page_id in range(
                self.first_page_id, self.first_page_id + self.num_pages
            )
        ]

    def scan(self) -> Iterator[DataEntry]:
        """Yield every entry, charging one sequential sweep of the file."""
        if self.num_pages == 0:
            return
        for page in self._read_run_retrying():
            record = page.payload
            if not isinstance(record, DataPageRecord):
                raise WorkloadError(
                    f"page {page.page_id} is not a data page"
                )
            yield from record.entries

    def scan_pages(self) -> Iterator[list[DataEntry]]:
        """Yield entries page by page (same sequential charge as scan)."""
        if self.num_pages == 0:
            return
        for page in self._read_run_retrying():
            yield list(page.payload.entries)

    def read_all_unaccounted(self) -> list[DataEntry]:
        """All entries without charging I/O. Testing/verification only."""
        out: list[DataEntry] = []
        for page_id in range(self.first_page_id, self.first_page_id + self.num_pages):
            page = self.disk.peek(page_id)
            if page is None:
                raise WorkloadError(f"data page {page_id} missing from disk")
            out.extend(page.payload.entries)
        return out

    def __len__(self) -> int:
        return self.num_objects

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"DataFile({label} objects={self.num_objects}, "
            f"pages={self.num_pages}, first={self.first_page_id})"
        )
