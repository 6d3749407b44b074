"""Page lifetime: a join owns the pages it allocates.

Page ids come from the disk's monotone counter, and one buffer runs one
join at a time — the service holds the session lock, and a pool worker
runs one tile at a time. So the ids allocated between a join's start
and its end are exactly the join's pages: the index it hands back and
all of its scratch (2STJ's ``D_R(2stj)`` file and ``T_B``, ZJOIN's
``Z_R``, linked-list batches, checkpoints, abandoned recovery attempts,
a degraded STJ's abandoned construction). No allocation site needs to
know.

When the outermost :meth:`~repro.join.engine.JoinPipeline.execute`
ends, :func:`end_join` frees every page of that range the result's
index does not hold, and puts a finalizer on the index that queues the
rest on the buffer's :attr:`~repro.storage.BufferPool.pending_free`
once the caller drops its last handle. The list it queues is kept on
the index (``_held_pages``), and the one allocation site of a tree's
later growth (:func:`repro.rtree.insertion.new_node`: retained
inserts and deletes, ``RTree.insert`` and ``RTree.delete``) appends to
it, so a kept index that grows still takes all its pages with it. The
buffer frees the queue at its next safe point. A caller that is done
with an index before it is collected (the join service) calls
:func:`release_index`.
"""

from __future__ import annotations

import weakref
from typing import Any

import numpy as np

from ..storage import BufferPool
from ..zorder.zfile import ZFile
from .batch import snapshot_record

__all__ = [
    "end_join", "free_scratch", "index_pages", "join_buffer",
    "release_index",
]


def join_buffer(ctx: Any) -> BufferPool | None:
    """The pool a join allocates through: the context's, else ``T_R``'s
    (BFJ's context carries no buffer of its own)."""
    if ctx.buffer is not None:
        return ctx.buffer
    return getattr(ctx.tree_r, "buffer", None)


def index_pages(index: Any) -> Any:
    """The page ids ``index`` holds.

    A tree's pages are the nodes :meth:`iter_nodes` reaches; when the
    tree's current snapshot is memoised (the batch match just used it),
    its ``page`` column is the same set without a walk. A :class:`ZFile`
    holds its page run. Anything else holds no pages.
    """
    if isinstance(index, ZFile):
        return range(index.first_page_id,
                     index.first_page_id + index.num_pages)
    if not (hasattr(index, "iter_nodes") and hasattr(index, "root_id")):
        return ()
    record = snapshot_record(index)
    if (record is not None and record.snapshot is not None
            and record.stamp == (index.mutations, index.root_id)):
        return record.snapshot.page
    return [node.page_id for node in index.iter_nodes()]


def free_scratch(buffer: BufferPool, start: int, index: Any) -> list[int]:
    """Free the pages allocated since ``start`` that ``index`` does not
    hold; return the ones it holds (pages it holds from before ``start``
    are someone else's and are left out)."""
    end = buffer.disk.allocated_pages
    if end == start:
        return []
    keep = np.asarray(index_pages(index), dtype=np.int64) - start
    keep = keep[(keep >= 0) & (keep < end - start)]
    scratch = np.ones(end - start, dtype=bool)
    scratch[keep] = False
    buffer.free((np.flatnonzero(scratch) + start).tolist())
    return (keep + start).tolist()


def end_join(buffer: BufferPool, start: int, index: Any) -> None:
    """Free the join's scratch and hand the index's pages to a finalizer.

    ``start`` is the allocator position when the join began. The
    index's pages in the range, and those it allocates later, stay
    until the index is collected (or :func:`release_index` is called).
    """
    keep = free_scratch(buffer, start, index)
    if keep:
        release = weakref.finalize(index, buffer.pending_free.append, keep)
        release.atexit = False
        index._release_pages = release
        index._held_pages = keep


def release_index(index: Any) -> None:
    """Queue a join's index pages now, instead of when it is collected.

    The caller must not touch ``index`` afterwards; the pages are freed
    at the buffer's next safe point. Any other object is ignored.
    """
    release = getattr(index, "_release_pages", None)
    if release is not None:
        release()
