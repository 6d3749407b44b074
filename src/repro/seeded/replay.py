"""Record/replay cache for seeded-tree construction.

Seeded-tree construction is the sequential Amdahl residue of STJ: a
scalar Guttman insertion loop whose per-object Python work (descend,
choose, split) dwarfs the accounted effects it produces. For a resident
workspace that joins the same inputs repeatedly — the join service's
steady state, and the benchmark's shape — the whole build is a pure
function of ``(T_R, D_S, policy knobs)``, so the second build need not
re-run the algorithm at all: it replays the first build's *effect log*.

The log is written by the log-first builder (:mod:`repro.seeded.builder`),
which computes a cold build off the buffer and drives the pool with
its log once; the same log, kept with the build's final node images and
its columnar snapshot, is the recording. It holds every accounted
operation the build performs, in global order: buffer fetches (with pin
discipline), page creations, dirty marks, unpins, drops, the bbox-test
charge, the data-file scan, and the linked-list batch I/O that bypasses
the buffer by design. :class:`EffectLog` keeps it as a flat list of
integers (three per op), so a recording allocates no object per op for
the garbage collector to track. Replay re-issues exactly that sequence
against the live pool (:meth:`BufferPool.replay_ops`), so hits, misses,
evictions, write-backs and the disk's sequential/random classification
all come out of the *current* state — precisely what a scalar re-build
would observe — while the per-object Python work is skipped entirely.

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

Eligibility (:func:`log_first`) is conservative: the builder and the
cache only engage when the join runs the fast path (not under
``REPRO_KERNELS=0``) and when the run is plain — no recovery policy, no
trace, no fault injector, no deadline. Everything else takes the
per-object build unchanged. The sanitizer does not stand them down: it
checks at phase boundaries only, so it observes a log-first build, a
replay and their carried snapshots exactly as it observes a per-object
build.
"""

from __future__ import annotations

from typing import Any, Callable

from ..join.batch import carry_column_tree
from ..join.warm_cache import warm_cache_of
from ..kernels.node_store import shift_pages
from ..rtree.node import Entry, Node
from ..storage.datafile import DataFile
from .tree import SeededTree, TreePhase, _Slot

__all__ = [
    "BuildRecording", "EffectLog", "cached_construct", "log_first",
    "plain_disk",
]


class EffectLog(list):
    """A construction effect log: three integers ``code, a, b`` per
    accounted op, in global order, in one flat list.

    The vocabulary, with ``pid`` a page id:

    * ``(0, pid, 0)`` unpinned fetch, ``(1, pid, 0)`` pinned fetch;
    * ``(2, pid, k)`` page creation, of page kind ``side[k]``;
    * ``(3, pid, 0)`` unpinned fetch, then mark dirty;
    * ``(4, pid, 0)`` unpin, ``(5, pid, 0)`` mark dirty, then unpin;
    * ``(6, pid, w)`` drop, writing back iff ``w``;
    * ``(7, n, 0)`` a charge of ``n`` bbox tests;
    * ``(8, k, 0)`` a scan of the data file ``side[k]``;
    * ``(9, pid, k)`` a direct run write of the pages ``side[k]``
      starting at ``pid``, ``(10, pid, n)`` a direct run read of ``n``.

    The two combined ops are the builds' commonest pairs: a seed node
    fetched and updated by the descent, and a pinned node marked dirty
    before its unpin (while pinned it can be neither evicted nor
    dropped, so the mark takes effect at the unpin either way).

    An operand that is not an integer goes to the ``side`` table and
    the op holds its index. The garbage collector's cost is tracked
    objects times full collections; ints are not tracked, so the log is
    one tracked object where a list of op tuples kept one alive per op.
    (A plain list, not an ``array``: ``list.extend`` of a 3-tuple costs
    about a fifth of ``array.extend``'s generic path.)
    :meth:`BufferPool.replay_ops` is its only decoder.
    """

    __slots__ = ("side",)

    def __init__(self) -> None:
        super().__init__()
        self.side: list = []

    def ref(self, obj: Any) -> int:
        """Keep ``obj`` in the side table; return its index."""
        self.side.append(obj)
        return len(self.side) - 1


class BuildRecording:
    """One seeded build's effect log, final tree image and snapshot.

    ``created`` holds one image per page the build created, in creation
    order: ``(page id, level, mbrs, refs, touched)``, with ``touched``
    ``None`` when no entry of the page was touched by an update. A page
    the build pruned has an image without entries.
    """

    __slots__ = (
        "key", "data_s", "split", "buffer", "ops", "alloc_start",
        "created", "root_id", "seed_levels", "count", "filtered",
        "slots", "list_batches", "list_pages_flushed", "tree_kwargs",
        "snapshot",
    )


def log_first(ctx: Any) -> bool:
    """Whether this join's construction may run off the buffer.

    True on the fast path of a plain run over a data file, with the
    seeding tree in the join's buffer: no recovery, trace, fault
    injector or deadline, because each of those observes or interrupts
    the build between accounted operations. The sanitizer checks only
    at phase boundaries, so a sanitized join may build log-first.
    """
    if not ctx.mode.fast:
        return False
    if ctx.recovery is not None or ctx.trace is not None:
        return False
    if ctx.tree_r is None or not isinstance(ctx.data_s, DataFile):
        return False
    if ctx.tree_r.buffer is not ctx.buffer:
        return False
    return plain_disk(ctx.buffer.disk)


def plain_disk(disk: Any) -> bool:
    """Whether nothing on ``disk`` can fail or stop a build between its
    accounted operations: no fault injector and no deadline."""
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
    ctx: Any, build: Callable[[Any], "BuildRecording | None"]
) -> None:
    """Build the seeded tree, replaying a prior identical build if any.

    ``build`` is the construct body; it must leave the finished tree in
    ``ctx.state["index"]`` and return the log-first builder's recording
    (``None`` when it ran the per-object loop). The recording is kept in
    the warm cache of ``ctx.tree_r`` (the persistent side of the join),
    keyed on the seeding tree's version stamp, the data file's identity
    and shape, and every policy knob; a hit also checks that the
    recording was made over this very data file, split function and
    buffer. Any difference runs ``build`` again, and its recording
    takes the old one's place.
    """
    if not log_first(ctx):
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
    rec = build(ctx)
    if rec is not None:
        rec.key = key
        rec.data_s = ctx.data_s
        rec.split = ctx.options["tree_kwargs"]["split"]
        rec.buffer = ctx.buffer
        cache.store("construct", key, rec)


def _replay(rec: BuildRecording, ctx: Any) -> SeededTree:
    """A warm hit: re-issue the recorded log on fresh pages."""
    return replay_recording(rec, ctx.buffer, ctx.config, ctx.metrics,
                            ctx.mode.fast)


def node_images(created: Any, start: int, delta: int) -> list[Node]:
    """Page payloads from final-state images, ids moved ``delta`` on.

    Rect objects are shared with the images (they are never mutated in
    place — every box update replaces the reference), so
    materialisation is one Entry per surviving row.
    """
    payloads: list[Node] = []
    for page_id, level, mbrs, refs, touched in created:
        if delta and level > 0:
            refs = [ref + delta if ref >= start else ref for ref in refs]
        entries = list(map(Entry, mbrs, refs))
        if touched is not None:
            for e, t in zip(entries, touched):
                e.touched = t
        node = Node(level, entries)
        node.page_id = page_id + delta
        payloads.append(node)
    return payloads


def replay_recording(
    rec: BuildRecording, buffer: Any, config: Any, metrics: Any, fast: bool,
) -> SeededTree:
    """Drive ``buffer`` with the recorded log; return the finished tree.

    The tree lands ``delta`` pages past the recorded one, where
    ``delta`` is how far the allocator has moved since (zero for the
    builder's own first replay).
    """
    start = rec.alloc_start
    delta = buffer.disk.allocated_pages - start
    buffer.replay_ops(rec.ops, start, delta,
                      node_images(rec.created, start, delta), metrics)

    def moved(page_id: int) -> int:
        return page_id + delta if page_id >= start else page_id

    tree = SeededTree(buffer, config, metrics, fast=fast, **rec.tree_kwargs)
    tree.seed_levels = rec.seed_levels
    tree.phase = TreePhase.READY
    tree.root_id = moved(rec.root_id)
    # One construction epoch, same as a scalar build's cleanup() stamp.
    tree.mutations = 1
    tree._count = rec.count
    tree._filtered = rec.filtered
    tree._list_batches = rec.list_batches
    tree._list_pages_flushed = rec.list_pages_flushed
    tree._slots = [
        _Slot(index=index, root_id=moved(root), count=count,
              root_level=root_level, true_mbr=true_mbr)
        for index, root, count, root_level, true_mbr in rec.slots
    ]
    snapshot = rec.snapshot
    if snapshot is not None and delta:
        snapshot = shift_pages(snapshot, start, delta,
                               (tree.mutations, tree.root_id))
    carry_column_tree(tree, snapshot)
    return tree
