"""Page lifetime at the storage layer: ``DiskSimulator.free`` and
``BufferPool.free``.

Freeing drops a page for good — its frame without write-back, then its
image — charges nothing, and never moves the allocator, so the
random/sequential classification of every later access is unchanged.
"""

import threading

import pytest

from repro.errors import PageNotFoundError, PinError, StorageError
from repro.metrics import MetricsCollector, Phase
from repro.storage import BufferPool, DiskSimulator, Page, PageKind


def make_stack(capacity=4):
    metrics = MetricsCollector()
    disk = DiskSimulator(metrics)
    return BufferPool(capacity, disk), disk, metrics


def on_disk(disk, payload):
    p = Page(disk.allocate(), PageKind.DATA, payload)
    disk.write(p)
    return p


def totals(metrics):
    return {phase: metrics.io_for(phase).total_accesses for phase in Phase}


class TestDiskFree:
    def test_free_drops_the_image_and_keeps_the_counter(self):
        _, disk, metrics = make_stack()
        p = on_disk(disk, "a")
        before = totals(metrics)
        disk.free([p.page_id])
        assert not disk.exists(p.page_id)
        assert disk.is_freed(p.page_id)
        assert disk.written_pages == 0
        assert disk.allocated_pages == 1
        assert totals(metrics) == before

    def test_read_of_a_freed_page_says_so(self):
        _, disk, _ = make_stack()
        p = on_disk(disk, "a")
        disk.free([p.page_id])
        with pytest.raises(PageNotFoundError, match="freed"):
            disk.read(p.page_id)
        with pytest.raises(PageNotFoundError, match="freed"):
            disk.read_run(p.page_id, 1)
        never = disk.allocate()
        with pytest.raises(PageNotFoundError, match="never written"):
            disk.read(never)

    def test_freed_ids_are_not_written_again(self):
        _, disk, _ = make_stack()
        p = on_disk(disk, "a")
        disk.free([p.page_id])
        with pytest.raises(StorageError, match="freed"):
            disk.write(p)
        with pytest.raises(StorageError, match="freed"):
            disk.write_run([p])
        with pytest.raises(StorageError, match="freed"):
            disk.install([p])

    def test_unallocated_ids_are_refused_before_anything_is_freed(self):
        _, disk, _ = make_stack()
        p = on_disk(disk, "a")
        with pytest.raises(StorageError, match="not allocated"):
            disk.free([p.page_id, 99])
        assert disk.exists(p.page_id) and not disk.is_freed(p.page_id)

    def test_classification_is_unchanged_by_a_free(self):
        _, disk, metrics = make_stack()
        pages = [on_disk(disk, i) for i in range(3)]
        disk.reset_arm()
        with metrics.phase(Phase.MATCH):
            disk.read(pages[0].page_id)
            disk.free([pages[1].page_id])
            disk.read(pages[2].page_id)   # not next to page 0: random
            disk.write(Page(disk.allocate(), PageKind.DATA, "d"))
        io = metrics.io_for(Phase.MATCH)
        # The write lands right after page 2, exactly as without the free.
        assert (io.random_reads, io.sequential_reads) == (2, 0)
        assert (io.random_writes, io.sequential_writes) == (0, 1)
        assert disk.allocated_pages == 4


class TestBufferFree:
    def test_clean_resident_page(self):
        buf, disk, metrics = make_stack()
        p = on_disk(disk, "a")
        buf.fetch(p.page_id)
        before = (totals(metrics), buf.stats.evictions,
                  buf.stats.dirty_writebacks)
        buf.free([p.page_id])
        assert p.page_id not in buf and not disk.exists(p.page_id)
        assert (totals(metrics), buf.stats.evictions,
                buf.stats.dirty_writebacks) == before

    def test_dirty_resident_page_is_not_written_back(self):
        buf, disk, metrics = make_stack()
        page = buf.new_page(PageKind.TREE_NODE, "node")
        assert buf.is_dirty(page.page_id)
        buf.free([page.page_id])
        assert page.page_id not in buf
        assert not disk.exists(page.page_id)
        assert sum(totals(metrics).values()) == 0
        assert buf.stats.dirty_writebacks == 0

    def test_non_resident_page(self):
        buf, disk, _ = make_stack()
        p = on_disk(disk, "a")
        assert p.page_id not in buf
        buf.free([p.page_id])
        assert not disk.exists(p.page_id)

    def test_read_after_free_raises_and_second_free_is_a_noop(self):
        buf, disk, metrics = make_stack()
        p = on_disk(disk, "a")
        buf.fetch(p.page_id)
        buf.free([p.page_id])
        with pytest.raises(PageNotFoundError, match="freed"):
            buf.fetch(p.page_id)
        before = (totals(metrics), disk.written_pages, len(buf))
        buf.free([p.page_id])
        assert (totals(metrics), disk.written_pages, len(buf)) == before

    def test_pinned_page_raises_and_frees_nothing(self):
        buf, disk, _ = make_stack()
        a = on_disk(disk, "a")
        b = on_disk(disk, "b")
        buf.fetch(a.page_id)
        buf.fetch(b.page_id, pin=True)
        with pytest.raises(PinError):
            buf.free([a.page_id, b.page_id])
        assert a.page_id in buf and disk.exists(a.page_id)
        buf.unpin(b.page_id)
        buf.free([a.page_id, b.page_id])
        assert len(buf) == 0

    def test_parked_pinned_page_raises(self):
        buf, disk, _ = make_stack(capacity=2)
        pinned = buf.new_page(PageKind.TREE_NODE, "p", pin=True)
        buf.new_page(PageKind.TREE_NODE, "x")
        buf.new_page(PageKind.TREE_NODE, "y")   # parks the pinned head
        with pytest.raises(PinError):
            buf.free([pinned.page_id])

    def test_freed_frames_are_not_evicted_later(self):
        """The only observable change: a later operation no longer
        evicts (and writes back) the dead pages."""
        buf, disk, _ = make_stack(capacity=3)
        dead = [buf.new_page(PageKind.TREE_NODE, i) for i in range(3)]
        buf.free([p.page_id for p in dead])
        for i in range(3):
            buf.new_page(PageKind.TREE_NODE, i)
        assert buf.stats.evictions == 0
        assert buf.stats.dirty_writebacks == 0

    def test_lru_order_of_the_survivors_is_kept(self):
        buf, disk, _ = make_stack(capacity=4)
        pages = [buf.new_page(PageKind.TREE_NODE, i) for i in range(4)]
        buf.fetch(pages[0].page_id)
        buf.free([pages[2].page_id])
        ids = [p.page_id for p in pages]
        assert list(buf.resident_ids()) == [ids[1], ids[3], ids[0]]


class TestPendingFree:
    def test_queued_batches_wait_for_the_safe_point(self):
        buf, disk, _ = make_stack()
        pages = [buf.new_page(PageKind.TREE_NODE, i) for i in range(3)]
        buf.pending_free.append([pages[0].page_id, pages[1].page_id])
        assert len(buf) == 3
        buf.free_pending()
        assert list(buf.resident_ids()) == [pages[2].page_id]
        assert not buf.pending_free

    def test_a_batch_that_cannot_be_freed_stays_queued(self):
        buf, disk, _ = make_stack()
        page = buf.new_page(PageKind.TREE_NODE, "n", pin=True)
        buf.pending_free.append([page.page_id])
        with pytest.raises(PinError):
            buf.free_pending()
        assert list(buf.pending_free) == [[page.page_id]]
        buf.unpin(page.page_id)
        buf.free_pending()
        assert page.page_id not in buf

    def test_appends_from_other_threads_only_queue(self):
        buf, disk, _ = make_stack()
        pages = [buf.new_page(PageKind.TREE_NODE, i) for i in range(4)]
        frames = buf.audit_frames()
        threads = [
            threading.Thread(target=buf.pending_free.append,
                             args=([p.page_id],))
            for p in pages
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert buf.audit_frames() == frames
        buf.free_pending()
        assert len(buf) == 0
