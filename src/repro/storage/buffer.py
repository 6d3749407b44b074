"""The dedicated buffer pool.

The paper assumes "a dedicated buffer of 512 pages" shared by tree
construction and tree matching, with these behaviours (Section 4):

* pages holding newly created tree nodes are dirty and must be written to
  disk before their frames can be re-used;
* the buffer is *not* purged between construction and matching, so matching
  starts with a warm cache;
* dirty pages evicted during matching cause disk writes that show up in the
  match-phase ``wr`` column (but are attributed to construction when the
  paper splits costs per phase).

:class:`BufferPool` implements an LRU cache with pin counts over a
:class:`~repro.storage.disk.DiskSimulator`. All accounting falls out of the
disk's own classification: a miss triggers ``disk.read``, an eviction of a
dirty page triggers ``disk.write``.

Pages are freed through :meth:`BufferPool.free`: the frame goes without
write-back, then the disk image. A join frees the pages it allocated
when it ends, and a retained index's pages are queued by a finalizer on
:attr:`BufferPool.pending_free` and freed at the pool's next safe point
(:meth:`BufferPool.free_pending`); see DESIGN.md, "Page lifetime".
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from ..errors import (
    BufferFullError,
    DeadlineExceededError,
    PinError,
    StorageError,
    TransientIOError,
)
from .disk import DiskSimulator
from .faults import DEFAULT_RETRY_POLICY, RetryPolicy, remaining_retry_budget
from .pager import Page, PageKind


@dataclass(slots=True)
class BufferStats:
    """Hit/miss/eviction statistics (not part of the paper's cost model)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Frame:
    __slots__ = ("page", "dirty", "pin_count", "referenced")

    def __init__(self, page: Page, dirty: bool):
        self.page = page
        self.dirty = dirty
        self.pin_count = 0
        self.referenced = False


class BufferPool:
    """Fixed-capacity page cache with pinning and write-back.

    Replacement policy is pluggable — ``"lru"`` (the default, and what
    the paper's buffer manager is assumed to be), ``"fifo"``, or
    ``"clock"`` (second chance). The experiments all run LRU; the
    alternatives exist for the buffer-policy ablation benchmark.
    """

    POLICIES = ("lru", "fifo", "clock")

    def __init__(self, capacity: int, disk: DiskSimulator,
                 policy: str = "lru", retry: RetryPolicy | None = None):
        if capacity < 1:
            raise StorageError("buffer capacity must be at least 1 page")
        if policy not in self.POLICIES:
            raise StorageError(
                f"unknown replacement policy {policy!r}; "
                f"choose from {self.POLICIES}"
            )
        self.capacity = capacity
        self.disk = disk
        self.policy = policy
        self.retry = retry or DEFAULT_RETRY_POLICY
        self.stats = BufferStats()
        self._is_lru = policy == "lru"
        self._is_clock = policy == "clock"
        # Eviction order: least recently used first (LRU), insertion
        # order (FIFO), or clock-hand order with reference bits (CLOCK).
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()
        # Pinned frames parked out of the eviction scan (LRU/FIFO only).
        # A victim scan that meets a pinned frame at the head moves it
        # here instead of re-skipping it on every subsequent eviction —
        # with p long-pinned pages at the LRU head the old scan was
        # O(p) per eviction. Invariants: every parked frame is pinned,
        # and all parked frames are older (in eviction order) than every
        # frame left in ``_frames``; unpinning a parked frame to zero
        # merges the park back at the front, restoring the exact
        # original order, so victim choice is unchanged frame for frame.
        self._parked: "OrderedDict[int, _Frame]" = OrderedDict()
        #: Batches of page ids waiting to be freed. A finalizer may run
        #: in the middle of any pool operation (a cyclic collection) or
        #: on another thread, so it only appends here — one atomic
        #: ``deque.append`` — and the owner frees the batches at a safe
        #: point through :meth:`free_pending`.
        self.pending_free: deque = deque()

    # ----------------------------------------------------------------- #
    # Core operations
    # ----------------------------------------------------------------- #

    def fetch(self, page_id: int, pin: bool = False) -> Page:
        """Return the page, reading it from disk on a miss."""
        frames = self._frames
        frame = frames.get(page_id)
        if frame is not None:
            # Fast hit path: one dict probe, one move_to_end. This is the
            # single hottest call in every join, so the policy test is a
            # precomputed bool rather than a string compare.
            self.stats.hits += 1
            if self._is_lru:
                frames.move_to_end(page_id)
            elif self._is_clock:
                frame.referenced = True
            if pin:
                frame.pin_count += 1
            return frame.page
        frame = self._parked.get(page_id)
        if frame is not None:
            self.stats.hits += 1
            if self._is_lru:
                # The hit makes it the most recent frame; re-join the
                # scan order at the tail (exactly where move_to_end
                # would have put it). FIFO never reorders on a hit, so
                # a FIFO frame stays parked.
                del self._parked[page_id]
                frames[page_id] = frame
        else:
            self.stats.misses += 1
            page = self._read_retrying(page_id)
            frame = self._admit(page, dirty=False)
        if pin:
            frame.pin_count += 1
        return frame.page

    def fetch_run(self, page_ids: list, weights: list, cpu: Any) -> None:
        """Replay a sequence of unpinned fetches with per-page CPU charges.

        Semantically identical to::

            for page_id, w in zip(page_ids, weights):
                self.fetch(page_id)
                if cpu is not None:
                    cpu.bbox_tests += w

        but with the per-call overhead amortised, which is what makes
        batch traversal replay (:mod:`repro.join.batch`) faster than the
        scalar loop it reproduces. Hit/charge bookkeeping is buffered in
        locals and flushed *before* every slow-path fetch — the only
        point that can raise — so a storage fault observes exactly the
        counters the per-call loop would have accumulated. Only the LRU
        policy takes the tight loop; other policies fall back to the
        per-call path (same behavior, none of the speedup).
        """
        if not self._is_lru:
            for page_id, w in zip(page_ids, weights):
                self.fetch(page_id)
                if cpu is not None:
                    cpu.bbox_tests += w
            return
        frames = self._frames
        get = frames.get
        move = frames.move_to_end
        stats = self.stats
        hits = 0
        charged = 0
        try:
            for page_id, w in zip(page_ids, weights):
                frame = get(page_id)
                if frame is not None:
                    hits += 1
                    move(page_id)
                else:
                    # Parked hit or miss: flush the buffered counters so
                    # the full fetch (and any fault inside it) sees the
                    # same state as the scalar loop, then take the
                    # ordinary path.
                    stats.hits += hits
                    hits = 0
                    if cpu is not None:
                        cpu.bbox_tests += charged
                        charged = 0
                    self.fetch(page_id)
                charged += w
        finally:
            stats.hits += hits
            if cpu is not None:
                cpu.bbox_tests += charged

    def replay_ops(
        self,
        ops: Any,
        start: int,
        delta: int,
        payloads: list,
        metrics: Any,
    ) -> None:
        """Execute a construction effect log against the pool.

        ``ops`` is an :class:`~repro.seeded.replay.EffectLog` (its
        docstring lists the op codes), written by the log-first builder
        (:mod:`repro.seeded.builder`); this is its only decoder. Page
        ids at or past ``start`` were allocated by the logged build and
        are shifted by ``delta`` — the allocator is monotone, so a
        faithful re-issue of the logged allocations lands every created
        page exactly ``delta`` past its logged id (zero on the build's
        own replay). Creations consume ``payloads`` in order (final-state
        node images with pre-shifted ids and refs).

        The replay makes the same pool calls in the same order as the
        per-object build would if run now: hits, misses, evictions,
        write-backs and the disk's sequential/random classification all
        fall out of the *current* pool state, exactly as they would for
        the scalar build. The hit paths of fetch and pinned fetch (for
        the LRU policy), dirty mark and unpin are inlined, which covers
        nearly every op; everything else takes the ordinary methods.
        Callers gate on a fault-free disk, so no op can raise
        mid-stream.
        """
        from .datafile import DataPageRecord

        frames = self._frames
        get = frames.get
        move = frames.move_to_end
        lru = self._is_lru
        fetch = self.fetch
        disk = self.disk
        side = ops.side
        hits = 0
        payload_i = 0
        it = iter(ops)
        try:
            for code, a, b in zip(it, it, it):
                if code < 7:
                    if a >= start:
                        a += delta
                    frame = get(a)
                    if code == 1:
                        # Pin lifetime mirrors the logged build's own
                        # pin/unpin ops; eligibility gates on a
                        # fault-free disk, so nothing here can raise
                        # mid-sequence.
                        if frame is not None and lru:
                            hits += 1
                            move(a)
                            frame.pin_count += 1
                        else:
                            # repro-lint: disable=RPR003 -- replayed pin, release op follows in the log
                            fetch(a, pin=True)
                    elif code == 5:
                        if frame is not None and frame.pin_count > 0:
                            frame.dirty = True
                            frame.pin_count -= 1
                        else:
                            self.mark_dirty(a)
                            self.unpin(a)
                    elif code < 4:
                        if code == 2:
                            page = self.new_page(side[b], payloads[payload_i])
                            payload_i += 1
                            if page.page_id != a:
                                # Not a StorageError: the engine's
                                # degradation path would silently
                                # downgrade the join and mask a broken
                                # replay invariant.
                                raise RuntimeError(
                                    "construction replay allocation "
                                    f"drifted: page {page.page_id} != {a}"
                                )
                        elif frame is not None and lru:
                            hits += 1
                            move(a)
                            if code == 3:
                                frame.dirty = True
                        else:
                            fetch(a)
                            if code == 3:
                                self.mark_dirty(a)
                    elif code == 4:
                        self.unpin(a)
                    else:
                        self.drop(a, write_back=bool(b))
                elif code == 7:
                    metrics.count_bbox_tests(a)
                elif code == 8:
                    for _ in side[a].scan_pages():
                        pass
                elif code == 9:
                    pages = side[b]
                    first = disk.allocate(len(pages))
                    if first != a + delta:
                        raise RuntimeError(
                            "construction replay allocation drifted: "
                            f"run {first} != {a + delta}"
                        )
                    disk.write_run([
                        Page(
                            p.page_id + delta, p.kind,
                            DataPageRecord(
                                p.payload.entries,
                                p.payload.next_page_id + delta
                                if p.payload.next_page_id != -1 else -1,
                            ),
                        )
                        for p in pages
                    ])
                elif code == 10:
                    first = a + delta
                    for i in range(b):
                        # Linked-list sweeps bypass the buffer by design
                        # (Section 3.1), so their replay must too.
                        disk.read(first + i)
                else:  # pragma: no cover - the builders emit only 0..10
                    raise RuntimeError(f"unknown replay op {code}")
        finally:
            self.stats.hits += hits

    def _read_retrying(self, page_id: int) -> Page:
        """Disk read with bounded exponential backoff on transient faults.

        Each retry re-issues (and re-charges) the disk access; the retry
        count and virtual backoff land in the fault counters. Corruption
        is persistent and is never retried. Without fault injection the
        first attempt always succeeds and this is just ``disk.read``.

        The loop is deadline-aware: backoff is capped by the remaining
        deadline installed on the disk (if any), and once the cumulative
        backoff would outlive the request the loop gives up with a typed
        :class:`~repro.errors.DeadlineExceededError` instead of spending
        retry budget a cancelled request can never use.
        """
        policy = self.retry
        rng = policy.jitter_rng(page_id)
        attempt = 0
        spent = 0.0
        while True:
            try:
                page = self.disk.read(page_id)
            except TransientIOError as exc:
                attempt += 1
                if attempt >= policy.max_attempts:
                    raise
                budget = remaining_retry_budget(self.disk.deadline, spent)
                if budget <= 0.0:
                    raise DeadlineExceededError(
                        f"retry of page {page_id} abandoned after "
                        f"{attempt} attempt(s): request deadline exhausted"
                    ) from exc
                delay = min(policy.delay_for(attempt - 1, rng), budget)
                spent += delay
                self.disk.metrics.record_retry(delay)
                continue
            if attempt:
                self.disk.metrics.record_page_recovered()
            return page

    def new_page(self, kind: PageKind, payload: Any, pin: bool = False) -> Page:
        """Create a page in the buffer (no I/O yet; it is born dirty)."""
        page_id = self.disk.allocate()
        page = Page(page_id, kind, payload)
        frame = self._admit(page, dirty=True)
        if pin:
            frame.pin_count += 1
        return page

    def adopt(self, page: Page, dirty: bool = True, pin: bool = False) -> None:
        """Place an externally created page into the buffer.

        Used by the seeding phase, which builds seed nodes in memory from
        ``T_R``'s pages, and by linked-list code that assembles pages
        before registering them.
        """
        if page.page_id in self._frames or page.page_id in self._parked:
            raise StorageError(f"page {page.page_id} is already buffered")
        frame = self._admit(page, dirty=dirty)
        if pin:
            frame.pin_count += 1

    def _frame_of(self, page_id: int) -> _Frame | None:
        """Resident frame lookup across the scan order and the park."""
        frame = self._frames.get(page_id)
        if frame is None:
            frame = self._parked.get(page_id)
        return frame

    def mark_dirty(self, page_id: int) -> None:
        frame = self._frame_of(page_id)
        if frame is None:
            raise StorageError(f"page {page_id} is not resident")
        frame.dirty = True

    # ----------------------------------------------------------------- #
    # Pinning
    # ----------------------------------------------------------------- #

    def pin(self, page_id: int) -> None:
        frame = self._frame_of(page_id)
        if frame is None:
            raise StorageError(f"cannot pin non-resident page {page_id}")
        frame.pin_count += 1

    def unpin(self, page_id: int) -> None:
        frame = self._frames.get(page_id)
        if frame is None:
            frame = self._parked.get(page_id)
            if frame is None:
                raise PinError(f"cannot unpin non-resident page {page_id}")
            if frame.pin_count <= 0:
                raise PinError(f"page {page_id} is not pinned")
            frame.pin_count -= 1
            if frame.pin_count == 0:
                # The frame is evictable again; restore the exact
                # pre-park eviction order so the next victim choice
                # matches what the unparked pool would have picked.
                self._unpark_all()
            return
        if frame.pin_count <= 0:
            raise PinError(f"page {page_id} is not pinned")
        frame.pin_count -= 1

    def pin_count(self, page_id: int) -> int:
        frame = self._frame_of(page_id)
        return frame.pin_count if frame is not None else 0

    # ----------------------------------------------------------------- #
    # Explicit write-back / discard
    # ----------------------------------------------------------------- #

    def flush_page(self, page_id: int) -> None:
        """Write one dirty page back to disk (it stays resident, clean)."""
        frame = self._frame_of(page_id)
        if frame is None:
            raise StorageError(f"page {page_id} is not resident")
        if frame.dirty:
            self.disk.write(frame.page)
            frame.dirty = False

    def flush_all(self) -> None:
        """Write back every dirty resident page (pages stay resident).

        Parked frames are written first: they are the oldest frames, so
        this is the same page order an unparked pool would flush in (the
        order matters — the disk classifies sequential vs. random I/O).
        """
        for frame in self._parked.values():
            if frame.dirty:
                self.disk.write(frame.page)
                frame.dirty = False
        for frame in self._frames.values():
            if frame.dirty:
                self.disk.write(frame.page)
                frame.dirty = False

    def drop(self, page_id: int, write_back: bool = False) -> None:
        """Remove a page from the buffer without the usual eviction write.

        The linked-list batch flush (Section 3.1) persists whole lists with
        one sequential ``write_run`` and then *drops* the frames — paying
        the eviction write here as well would double-charge the I/O.
        """
        store = self._frames
        frame = store.get(page_id)
        if frame is None:
            store = self._parked
            frame = store.get(page_id)
            if frame is None:
                return
        if frame.pin_count > 0:
            raise PinError(f"cannot drop pinned page {page_id}")
        if write_back and frame.dirty:
            self.disk.write(frame.page)
        del store[page_id]

    def free(self, page_ids: Iterable[int]) -> None:
        """Release pages for good: frames without write-back, then images.

        Freeing is not I/O in the paper's model, so no counter moves; a
        later operation simply no longer evicts or writes back the dead
        pages. A pinned page is still in use and raises
        :class:`~repro.errors.PinError` before anything is freed.
        Freeing a non-resident page drops its image only, and freeing
        an id twice is a no-op (ids are never reused).
        """
        ids = list(page_ids)
        frames = self._frames
        for page_id in ids:
            frame = frames.get(page_id)
            if frame is None:
                # Parked frames are pinned by invariant.
                frame = self._parked.get(page_id)
            if frame is not None and frame.pin_count > 0:
                raise PinError(f"cannot free pinned page {page_id}")
        for page_id in ids:
            frames.pop(page_id, None)
        self.disk.free(ids)

    def free_pending(self) -> None:
        """Free every batch queued on :attr:`pending_free`.

        Call only at a safe point: no pool operation in flight on this
        pool, and (for a shared pool) under the lock that serialises its
        users.
        """
        pending = self.pending_free
        while pending:
            self.free(pending[0])
            pending.popleft()

    def crash_discard(self) -> None:
        """Drop every frame without any write-back (simulated power loss).

        Dirty pages that were never flushed are gone — exactly what a
        crash point means. Pin counts are void: the pinning code paths
        died with the crash. Recovery drivers call this before resuming
        from a checkpoint so nothing stale survives into the new attempt.
        """
        self._frames.clear()
        self._parked.clear()

    def purge(self) -> None:
        """Empty the buffer, writing dirty pages back first.

        Experiments call this between the setup phase (building ``T_R``)
        and the join so the join starts with a cold cache, exactly like
        the paper's protocol.
        """
        self.flush_all()
        if self._parked or any(
            f.pin_count for f in self._frames.values()
        ):
            # Parked frames are pinned by invariant.
            raise PinError("cannot purge: some pages are pinned")
        self._frames.clear()

    # ----------------------------------------------------------------- #
    # Internals
    # ----------------------------------------------------------------- #

    def _admit(self, page: Page, dirty: bool) -> _Frame:
        while len(self._frames) + len(self._parked) >= self.capacity:
            self._evict_one()
        frame = _Frame(page, dirty)
        self._frames[page.page_id] = frame
        return frame

    def _evict_one(self) -> None:
        victim = self._pick_victim()
        if victim is None:
            # _pick_victim unparked everything before giving up, so the
            # count below covers every resident page.
            raise BufferFullError(
                f"all {len(self._frames)} buffered pages are pinned"
            )
        frame = self._frames[victim]
        if frame.dirty:
            self.disk.write(frame.page)
            self.stats.dirty_writebacks += 1
        self.stats.evictions += 1
        del self._frames[victim]

    def _unpark_all(self) -> None:
        """Merge the park back in front of the scan order.

        Parked frames are, by invariant, all older than every frame in
        ``_frames`` and keep their relative order in the park, so
        "parked first, then the rest" *is* the original eviction order.
        """
        if self._parked:
            self._parked.update(self._frames)
            self._frames = self._parked
            self._parked = OrderedDict()

    def _pick_victim(self) -> int | None:
        """First evictable frame under the configured policy."""
        if not self._is_clock:
            # LRU/FIFO: the OrderedDict is already in eviction order —
            # access recency for LRU (move_to_end on hit), admission
            # order for FIFO (never reordered). Pinned frames met at the
            # head are parked so the next scan starts past them instead
            # of re-skipping the same pinned prefix every eviction.
            frames = self._frames
            while frames:
                page_id, frame = next(iter(frames.items()))
                if frame.pin_count == 0:
                    return page_id
                del frames[page_id]
                self._parked[page_id] = frame
            self._unpark_all()
            return None
        # CLOCK: sweep, giving referenced frames a second chance by
        # rotating them behind the hand; two full sweeps guarantee a
        # victim if any frame is unpinned. (Parking would break the
        # rotating hand, so clock keeps the plain sweep.)
        for _ in range(2 * len(self._frames)):
            page_id, frame = next(iter(self._frames.items()))
            if frame.pin_count > 0:
                self._frames.move_to_end(page_id)
                continue
            if frame.referenced:
                frame.referenced = False
                self._frames.move_to_end(page_id)
                continue
            return page_id
        return None

    # ----------------------------------------------------------------- #
    # Inspection
    # ----------------------------------------------------------------- #

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._frames or page_id in self._parked

    def __len__(self) -> int:
        return len(self._frames) + len(self._parked)

    @property
    def free_frames(self) -> int:
        return self.capacity - len(self)

    def resident_ids(self) -> Iterator[int]:
        """Resident page ids in LRU order (least recent first).

        Parked frames come first: they are the oldest frames by the park
        invariant, so the combined iteration is the plain LRU order.
        """
        yield from self._parked.keys()
        yield from self._frames.keys()

    def is_dirty(self, page_id: int) -> bool:
        frame = self._frame_of(page_id)
        return bool(frame and frame.dirty)

    def peek(self, page_id: int) -> Page | None:
        """Resident page without touching LRU order or statistics.

        For tests and tree-introspection helpers that must not perturb
        the cost accounting.
        """
        frame = self._frame_of(page_id)
        return frame.page if frame is not None else None

    def audit_frames(self) -> list[tuple[int, int, int, bool]]:
        """``(frame key, page id, pin count, dirty)`` per resident frame.

        In eviction order (parked-oldest first); reads nothing through
        the accounted path and perturbs neither statistics nor
        replacement state — the runtime sanitizer inspects the pool
        through this without changing any cost counter.
        """
        out = [
            (key, frame.page.page_id, frame.pin_count, frame.dirty)
            for key, frame in self._parked.items()
        ]
        out.extend(
            (key, frame.page.page_id, frame.pin_count, frame.dirty)
            for key, frame in self._frames.items()
        )
        return out

    def total_pinned(self) -> int:
        """Sum of all pin counts (0 means no operation holds a pin)."""
        return sum(
            frame.pin_count for frame in self._parked.values()
        ) + sum(frame.pin_count for frame in self._frames.values())
