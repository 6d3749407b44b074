"""Record/replay cache for seeded-tree construction.

Seeded-tree construction is the sequential Amdahl residue of STJ: a
scalar Guttman insertion loop whose per-object Python work (descend,
choose, split) dwarfs the accounted effects it produces. For a resident
workspace that joins the same inputs repeatedly — the join service's
steady state, and the benchmark's shape — the whole build is a pure
function of ``(T_R, D_S, policy knobs)``, so the second build need not
re-run the algorithm at all: it replays the first build's *effect log*.

The recording captures every accounted operation the build performs, in
global order, via the ``_recorder`` hooks on :class:`BufferPool`,
:class:`DiskSimulator` and :class:`MetricsCollector`: buffer fetches
(with pin discipline), page creations, dirty marks, unpins, drops,
bbox-test charges, the data-file scan, and the linked-list batch I/O
that bypasses the buffer by design. The hooks append to one
:class:`EffectLog`, a flat list of integers (three per op), so
recording allocates no object per op for the garbage collector to
track. Replay
re-issues exactly that sequence against the live pool
(:meth:`BufferPool.replay_ops`), so
hits, misses, evictions, write-backs and the disk's sequential/random
classification all come out of the *current* state — precisely what a
scalar re-build would observe — while the per-object Python work is
skipped entirely.

Page ids shift uniformly between builds: the disk allocator is a
monotone counter and the build's allocation sequence is deterministic,
so every page the recorded build created lands exactly ``delta`` ids
later on replay (``replay_ops`` asserts this invariant at every
creation). The finished tree is materialised from final-state node
images with their internal refs shifted by the same ``delta``; leaf
refs are object ids and never shift. The recording also keeps the
recorded tree's columnar snapshot, and the replayed tree is handed that
snapshot moved by ``delta`` (:func:`~repro.kernels.node_store.shift_pages`),
so its batch match does not re-pack it.

Recordings live in the seeding tree's
:class:`~repro.join.warm_cache.WarmCache` under the replay key, next to
the batch plans, and go with it when that tree's version stamp moves.

Eligibility is conservative: the cache only engages when the join runs
the fast path (not under ``REPRO_KERNELS=0``) and when the run is plain —
no recovery policy, no trace, no sanitizer, no fault injector, no
deadline. Everything else takes the scalar build unchanged.
"""

from __future__ import annotations

from typing import Any, Callable

from ..join.batch import carry_column_tree, column_tree_of
from ..join.warm_cache import warm_cache_of
from ..kernels.node_store import shift_pages
from ..rtree.node import Entry, Node
from ..storage.datafile import DataFile
from .tree import SeededTree, TreePhase, _Slot

__all__ = ["BuildRecording", "EffectLog", "cached_construct"]


class EffectLog(list):
    """A construction effect log: three integers ``code, a, b`` per
    accounted op, in global order, in one flat list.

    The vocabulary, with ``pid`` a page id:

    * ``(0, pid, 0)`` unpinned fetch, ``(1, pid, 0)`` pinned fetch;
    * ``(2, pid, k)`` page creation, of page kind ``side[k]``;
    * ``(3, pid, 0)`` mark dirty, ``(4, pid, 0)`` unpin;
    * ``(5, pid, w)`` drop, writing back iff ``w``;
    * ``(6, n, 0)`` a charge of ``n`` bbox tests;
    * ``(7, 0, 0)`` a scan of the data file;
    * ``(8, pid, k)`` a direct run write of the pages ``side[k]``
      starting at ``pid``, ``(9, pid, n)`` a direct run read of ``n``.

    An operand that is not an integer goes to the ``side`` table and
    the op holds its index; ``created`` lists the created page ids in
    order. The garbage collector's cost is tracked objects times full
    collections; ints are not tracked, so the log is one tracked object
    where a list of op tuples kept one alive per op. (A plain list, not
    an ``array``: ``list.extend`` of a 3-tuple costs about a fifth of
    ``array.extend``'s generic path.) :meth:`BufferPool.replay_ops` is
    its only decoder.
    """

    __slots__ = ("side", "created")

    def __init__(self) -> None:
        super().__init__()
        self.side: list = []
        self.created: list[int] = []

    def ref(self, obj: Any) -> int:
        """Keep ``obj`` in the side table; return its index."""
        self.side.append(obj)
        return len(self.side) - 1

    def create(self, page_id: int, kind: Any) -> None:
        """Log the creation of page ``page_id``, of page kind ``kind``."""
        self.extend((2, page_id, self.ref(kind)))
        self.created.append(page_id)


class BuildRecording:
    """One build's effect log, the final tree image and its snapshot."""

    __slots__ = (
        "key", "data_s", "split", "buffer", "ops", "alloc_start",
        "alloc_count", "created", "root_id", "count", "filtered",
        "slots", "list_batches", "list_pages_flushed", "tree_kwargs",
        "snapshot",
    )


def _eligible(ctx: Any) -> bool:
    if not ctx.mode.fast:
        return False
    if ctx.recovery is not None or ctx.trace is not None or ctx.mode.sanitize:
        return False
    if ctx.tree_r is None or not isinstance(ctx.data_s, DataFile):
        return False
    disk = ctx.buffer.disk
    return disk.injector is None and disk.deadline is None


def _key_of(ctx: Any) -> tuple:
    kw = ctx.options["tree_kwargs"]
    tree_r = ctx.tree_r
    data_s = ctx.data_s
    return (
        tree_r.mutations, tree_r.root_id,
        data_s.first_page_id, data_s.num_pages, data_s.num_objects,
        tuple(sorted((k, v) for k, v in kw.items() if k != "split")),
    )


def cached_construct(
    ctx: Any, build: Callable[[Any], None]
) -> None:
    """Build the seeded tree, replaying a prior identical build if any.

    ``build`` is the scalar construct body; it must leave the finished
    tree in ``ctx.state["index"]``. The recording is kept in the warm
    cache of ``ctx.tree_r`` (the persistent side of the join), keyed on
    the seeding tree's version stamp, the data file's identity and
    shape, and every policy knob; a hit also checks that the recording
    was made over this very data file, split function and buffer. Any
    difference falls back to a fresh scalar build, which is then
    recorded in its place.
    """
    if not _eligible(ctx):
        build(ctx)
        return
    cache = warm_cache_of(ctx.tree_r)
    key = _key_of(ctx)
    rec = cache.lookup("construct", key)
    if (
        rec is not None
        and rec.data_s is ctx.data_s
        and rec.split is ctx.options["tree_kwargs"]["split"]
        and rec.buffer is ctx.buffer
    ):
        cache.note("construct", "hits")
        ctx.state["index"] = _replay(rec, ctx)
        return
    cache.note("construct", "misses")
    rec = _record(ctx, build, key)
    if rec is not None:
        cache.store("construct", key, rec)


def _record(ctx: Any, build: Callable[[Any], None], key: tuple):
    """Run the scalar build with the effect hooks armed."""
    buffer = ctx.buffer
    disk = buffer.disk
    metrics = ctx.metrics
    ops = EffectLog()
    alloc_start = disk._next_id
    buffer._recorder = ops
    disk._recorder = ops
    metrics._recorder = ops
    try:
        build(ctx)
    finally:
        buffer._recorder = None
        disk._recorder = None
        metrics._recorder = None
    tree_s = ctx.state["index"]
    if not isinstance(tree_s, SeededTree) or tree_s.phase is not TreePhase.READY:
        return None

    # Final-state images of every page the build created, in creation
    # order, as columns: (page id, level, mbrs, refs, shadows, touched).
    # A created page may have been pruned (dropped, never written): it
    # has no image (level 0, no entries) and replay admits an empty
    # shell — nothing ever reads a dead page, only its eviction write
    # (if any) is accounted, and that is content-independent.
    created = []
    for old_id in ops.created:
        page = buffer.peek(old_id) or disk.peek(old_id)
        if page is None:
            created.append((old_id, 0, (), (), (), ()))
        else:
            node = page.payload
            es = node.entries
            created.append((
                old_id, node.level, tuple(e.mbr for e in es),
                tuple(e.ref for e in es), tuple(e.shadow for e in es),
                tuple(e.touched for e in es),
            ))

    rec = BuildRecording()
    rec.key = key
    rec.data_s = ctx.data_s
    rec.split = ctx.options["tree_kwargs"]["split"]
    rec.buffer = buffer
    rec.ops = ops
    rec.alloc_start = alloc_start
    rec.alloc_count = disk._next_id - alloc_start
    rec.created = tuple(created)
    rec.root_id = tree_s.root_id
    rec.count = tree_s._count
    rec.filtered = tree_s._filtered
    rec.list_batches = tree_s._list_batches
    rec.list_pages_flushed = tree_s._list_pages_flushed
    rec.slots = tuple(
        (s.index, s.root_id, s.count, s.root_level, s.true_mbr)
        for s in tree_s._slots
    )
    rec.tree_kwargs = dict(ctx.options["tree_kwargs"])
    # The match phase packs this same snapshot next (the tree is
    # finished and the fast path is on), so taking it here costs nothing.
    rec.snapshot = column_tree_of(tree_s)
    return rec


def _replay(rec: BuildRecording, ctx: Any) -> SeededTree:
    """Re-issue the effect log and materialise the finished tree."""
    buffer = ctx.buffer
    disk = buffer.disk
    start = rec.alloc_start
    delta = disk._next_id - start

    # Node images in creation order, refs pre-shifted. Rect objects are
    # shared with the recording (they are never mutated in place — every
    # box update replaces the reference), so materialisation is one
    # Entry per surviving row.
    payloads: list[Node] = []
    for old_id, level, mbrs, refs, shadows, touched in rec.created:
        if level > 0:
            refs = [ref + delta if ref >= start else ref for ref in refs]
        entries = []
        for mbr, ref, shadow, t in zip(mbrs, refs, shadows, touched):
            e = Entry(mbr, ref, shadow=shadow)
            e.touched = t
            entries.append(e)
        node = Node(level, entries)
        node.page_id = old_id + delta
        payloads.append(node)

    buffer.replay_ops(rec.ops, start, delta, payloads, ctx.metrics,
                      rec.data_s)

    tree = SeededTree(buffer, ctx.config, ctx.metrics, fast=ctx.mode.fast,
                      **rec.tree_kwargs)
    tree.phase = TreePhase.READY
    root_id = rec.root_id
    tree.root_id = root_id + delta if root_id >= start else root_id
    # One construction epoch, same as a scalar build's cleanup() stamp.
    tree.mutations = 1
    tree._count = rec.count
    tree._filtered = rec.filtered
    tree._list_batches = rec.list_batches
    tree._list_pages_flushed = rec.list_pages_flushed
    tree._slots = [
        _Slot(
            index=index,
            root_id=root + delta if root >= start else root,
            count=count,
            root_level=root_level,
            true_mbr=true_mbr,
        )
        for index, root, count, root_level, true_mbr in rec.slots
    ]
    snapshot = rec.snapshot
    if snapshot is not None:
        snapshot = shift_pages(snapshot, start, delta,
                               (tree.mutations, tree.root_id))
    carry_column_tree(tree, snapshot)
    return tree
