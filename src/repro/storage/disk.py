"""The simulated disk.

The paper's experiments report disk cost as access *counts*, distinguishing
random from sequential accesses (a sequential access costs 1/30 of a random
one). :class:`DiskSimulator` reproduces that accounting:

* Every :meth:`read`/:meth:`write` is classified automatically — an access
  to the page immediately following the previously accessed page is
  sequential, anything else is random. This models a disk arm that keeps
  reading without a seek.
* :meth:`read_run`/:meth:`write_run` transfer a contiguous range of pages
  as one sweep: the first access pays the seek (random), the rest are
  sequential. The linked-list construction of Section 3.1 uses these for
  its batch flushes and re-reads.
* :meth:`free` drops page images for good. Page ids come from a monotone
  counter and are never reused, so freeing cannot change how a later
  access is classified; a freed id can be neither read nor written
  again.

Accesses are reported to the :class:`~repro.metrics.MetricsCollector`,
which attributes them to the current phase (setup / construct / match).

An optional :class:`~repro.storage.faults.FaultInjector` hooks every
accounted access *after* it is charged — a failed access still spins the
disk — and may raise typed errors or tear writes per its fault plan.
Without an injector (or with it disarmed) the accounting is untouched.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import DeadlineExceededError, PageNotFoundError, StorageError
from ..metrics import MetricsCollector
from .faults import FaultInjector
from .pager import Page, PageKind


class DiskSimulator:
    """In-memory page store with random/sequential access accounting."""

    def __init__(
        self,
        metrics: MetricsCollector | None = None,
        injector: FaultInjector | None = None,
    ):
        self.metrics = metrics or MetricsCollector()
        self.injector = injector
        if injector is not None and injector.metrics is None:
            injector.metrics = self.metrics
        self._pages: dict[int, Page] = {}
        self._next_id = 0
        # One byte per page id up to the highest freed one: non-zero
        # once the id was freed, so a stale access can say so.
        self._freed = bytearray()
        self._last_accessed: int | None = None
        #: Cooperative request cancellation (duck-typed; see
        #: :class:`repro.service.Deadline`). When set, every accounted
        #: access first checks it and raises
        #: :class:`~repro.errors.DeadlineExceededError` once expired — a
        #: cancelled request stops issuing I/O instead of running to
        #: completion. ``None`` (the default) costs one attribute test
        #: per access and changes nothing else.
        self.deadline: object | None = None

    def check_deadline(self) -> None:
        """Raise if the installed request deadline has expired.

        Called before charging each access (the request is cancelled, so
        the access never happens — no phantom I/O lands in the
        counters), and by the engine at phase boundaries so CPU-bound
        stretches with a warm buffer stay cancellable too.
        """
        deadline = self.deadline
        if deadline is not None and deadline.expired:  # type: ignore[attr-defined]
            raise DeadlineExceededError(
                "request deadline expired; cancelling at the next disk access"
            )

    # ----------------------------------------------------------------- #
    # Allocation
    # ----------------------------------------------------------------- #

    def allocate(self, count: int = 1) -> int:
        """Reserve ``count`` contiguous page ids; return the first.

        Contiguity is what later makes a :meth:`write_run` over the range
        sequential, mirroring an extent-based file system.
        """
        if count < 1:
            raise StorageError("allocate() needs a positive page count")
        first = self._next_id
        self._next_id += count
        return first

    @property
    def allocated_pages(self) -> int:
        """Number of page ids handed out so far."""
        return self._next_id

    @property
    def written_pages(self) -> int:
        """Number of distinct pages that currently hold data."""
        return len(self._pages)

    def free(self, page_ids: Iterable[int]) -> None:
        """Drop the images of ``page_ids`` for good; charges no I/O.

        Ids stay allocated (the counter never goes back), so the
        random/sequential classification of every later access is what
        it would have been without the free. Freeing an id twice, or an
        id that was allocated but never written, is a no-op. Code
        outside the storage layer frees through
        :meth:`BufferPool.free <repro.storage.buffer.BufferPool.free>`,
        which drops a resident frame first.
        """
        ids = list(page_ids)
        if not ids:
            return
        lo, hi = min(ids), max(ids)
        if lo < 0 or hi >= self._next_id:
            bad = lo if lo < 0 else hi
            raise StorageError(
                f"page id {bad} was not allocated on this disk"
            )
        pages = self._pages
        freed = self._freed
        if hi >= len(freed):
            freed.extend(bytes(hi + 1 - len(freed)))
        for page_id in ids:
            pages.pop(page_id, None)
            freed[page_id] = 1

    def is_freed(self, page_id: int) -> bool:
        """Whether ``page_id`` was freed (unaccounted)."""
        freed = self._freed
        return 0 <= page_id < len(freed) and freed[page_id] != 0

    def _missing(self, page_id: int) -> PageNotFoundError:
        why = "was freed" if self.is_freed(page_id) else "was never written"
        return PageNotFoundError(f"page {page_id} {why}")

    def _check_writable(self, page_id: int) -> None:
        if page_id < 0 or page_id >= self._next_id:
            raise StorageError(
                f"page id {page_id} was not allocated on this disk"
            )
        if self.is_freed(page_id):
            raise StorageError(f"page {page_id} was freed; ids are not reused")

    # ----------------------------------------------------------------- #
    # Single-page I/O (auto-classified)
    # ----------------------------------------------------------------- #

    def _classify(self, page_id: int) -> bool:
        """Return True when accessing ``page_id`` now is sequential."""
        sequential = (
            self._last_accessed is not None
            and page_id == self._last_accessed + 1
        )
        self._last_accessed = page_id
        return sequential

    def read(self, page_id: int) -> Page:
        """Read one page, charging a random or sequential access."""
        self.check_deadline()
        try:
            page = self._pages[page_id]
        except KeyError:
            raise self._missing(page_id) from None
        self.metrics.record_read(sequential=self._classify(page_id))
        if self.injector is not None:
            self.injector.on_read(page_id)
        return page

    def write(self, page: Page) -> None:
        """Write one page, charging a random or sequential access."""
        self.check_deadline()
        self._check_writable(page.page_id)
        self.metrics.record_write(sequential=self._classify(page.page_id))
        if self.injector is not None:
            # A crash here loses the in-flight write (the store below
            # never runs); a torn write marks the page and stores anyway.
            self.injector.on_write(page)
        self._pages[page.page_id] = page

    # ----------------------------------------------------------------- #
    # Run I/O (explicitly sequential after the first access)
    # ----------------------------------------------------------------- #

    def write_run(self, pages: Sequence[Page]) -> None:
        """Write contiguous pages as one sweep (1 random + n-1 sequential)."""
        if not pages:
            return
        self.check_deadline()
        for i, page in enumerate(pages):
            if i and page.page_id != pages[i - 1].page_id + 1:
                raise StorageError("write_run() requires contiguous page ids")
        for i, page in enumerate(pages):
            self._check_writable(page.page_id)
            self.metrics.record_write(sequential=self._classify(page.page_id))
            if self.injector is not None:
                self.injector.on_write(page)
            self._pages[page.page_id] = page

    def read_run(self, first_id: int, count: int) -> list[Page]:
        """Read ``count`` contiguous pages starting at ``first_id``.

        Under fault injection a mid-run fault aborts the sweep after the
        pages already transferred were charged; a retry re-issues (and
        re-charges) the whole run, as a real sequential replay would.
        """
        out = []
        self.check_deadline()
        for page_id in range(first_id, first_id + count):
            try:
                page = self._pages[page_id]
            except KeyError:
                raise self._missing(page_id) from None
            self.metrics.record_read(sequential=self._classify(page_id))
            if self.injector is not None:
                self.injector.on_read(page_id)
            out.append(page)
        return out

    # ----------------------------------------------------------------- #
    # Unaccounted access (tests, experiment plumbing)
    # ----------------------------------------------------------------- #

    def peek(self, page_id: int) -> Page | None:
        """Look at a page without charging any I/O. Testing/debug only."""
        return self._pages.get(page_id)

    def exists(self, page_id: int) -> bool:
        return page_id in self._pages

    def install(self, pages: Iterable[Page]) -> None:
        """Place pages on disk without charging I/O.

        The experiment runner uses this to make a pre-computed structure
        (the given R-tree ``T_R``) exist on disk "for free", matching the
        paper's assumption that ``T_R`` was built before the join.
        """
        for page in pages:
            self._check_writable(page.page_id)
            self._pages[page.page_id] = page

    def reset_arm(self) -> None:
        """Forget the last-accessed position (forces the next access random)."""
        self._last_accessed = None

    def pages_of_kind(self, kind: PageKind) -> list[Page]:
        """All stored pages of one kind, in page-id order. Testing/debug."""
        return [
            self._pages[pid] for pid in sorted(self._pages)
            if self._pages[pid].kind is kind
        ]
