"""Accounted replay of batch traversal plans.

The pure plan builders in :mod:`repro.kernels.node_store` turn a
columnar tree snapshot into flat traversal programs — which pages the
scalar algorithms would fetch, what they would charge, what they would
emit. This module is the *impure* half: it owns the snapshots (read
through unaccounted peeks, cached on the tree under its ``mutations``
version stamp, and reassembled from the previous one when the stamp
moves, re-reading only the nodes edited since), keeps the lowered plans
in the persistent tree's :class:`~repro.join.warm_cache.WarmCache`, and
replays the plans through the real buffer so the cost model observes
the exact scalar behavior:

* the same ``fetch``/``pin``/``unpin`` calls in the same order (LRU
  state, hit/miss split, eviction and fault positions all preserved);
* the same ``CpuCounters`` increments at the same positions relative
  to accounted reads (a fault mid-traversal leaves counters exactly
  where the scalar run would);
* the same pairs in the same emission order.

The snapshots pack leaf object ids as int64. A tree whose oids do not
fit has no snapshot (:func:`column_tree_of` caches ``None`` for that
tree version), and a probe batch whose oids do not fit has no plan key;
the batch functions then return ``None`` before any accounted operation
and their callers run the scalar reference for that join.

What the replay *skips* is the per-node Python work between accounted
operations — Rect allocation, per-entry predicate loops, per-node
dispatch — which is precisely the control-flow overhead the Amdahl gap
consists of. Dispatch lives with the callers
(:mod:`repro.join.matching`, :mod:`repro.join.bfj`): the batch path is
the default, and ``REPRO_KERNELS=0`` restores the scalar reference
unchanged.
"""

from __future__ import annotations

import zlib
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Any, NamedTuple

import numpy as np

from ..kernels.node_store import (
    ColumnTree,
    assemble,
    build_match_plans,
    build_window_plans,
    lower_window_plan,
)
from ..metrics import MetricsCollector
from ..rtree.node import next_edit_tick
from .result import JoinPair
from .warm_cache import warm_cache_of

__all__ = [
    "SnapshotRecord",
    "carry_column_tree",
    "column_tree_of",
    "match_trees_batch",
    "snapshot_record",
    "window_join_batch",
]

_CORNERS = attrgetter("xlo", "ylo", "xhi", "yhi")


# --------------------------------------------------------------------- #
# Snapshot ownership and invalidation
# --------------------------------------------------------------------- #

class SnapshotRecord(NamedTuple):
    """A tree's memoised snapshot (``tree._column_tree``) and its making.

    ``tick`` is an edit tick taken before the snapshot read the tree
    (:func:`~repro.rtree.node.next_edit_tick`): a node with a smaller
    tick has not changed since. It lives here, not on the
    :class:`ColumnTree`, which match plans and recordings share.
    ``reread`` counts the nodes read from their entries, of ``nodes``;
    a carried snapshot read none and has ``carried`` set.
    """

    stamp: tuple
    snapshot: ColumnTree | None
    tick: int
    reread: int
    nodes: int
    carried: bool = False


def snapshot_record(tree: Any) -> SnapshotRecord | None:
    """The tree's memoised snapshot record, whatever its stamp."""
    return getattr(tree, "_column_tree", None)


def column_tree_of(tree: Any) -> ColumnTree | None:
    """The columnar snapshot of ``tree``, reassembled when its version moves.

    The version stamp is ``(tree.mutations, tree.root_id)``: every
    mutating lane bumps ``mutations`` (R-tree insert/delete, retained
    seeded-tree insert/delete — the dynamic-update maintenance path —
    and seeded construction's cleanup), and root replacement
    covers the root-split/collapse edge. Reading goes through the
    unaccounted peek path (`iter_nodes`), so a snapshot never perturbs
    the cost model.

    A new snapshot is assembled from the previous one
    (:func:`~repro.kernels.node_store.assemble`): a node whose page the
    previous snapshot holds and whose edit tick is older than that
    snapshot's keeps its rows; every other node is read from its
    entries. Every edit of a node's entries takes a new tick
    (``Node.invalidate_caches``/``patch_entry_mbr``), so the result
    equals a fresh pack. Without a previous snapshot every node is read.

    ``None`` means some leaf ref (object id) does not fit the
    snapshot's int64 ref column. That answer is cached under the same
    stamp, so the fast path stands down for this tree version at the
    cost of one stamp comparison per join.
    """
    key = (tree.mutations, tree.root_id)
    cached = getattr(tree, "_column_tree", None)
    if cached is not None and cached.stamp == key:
        return cached.snapshot
    tick = next_edit_tick()
    base = None
    base_tick = 0
    rows: dict[int, int] = {}
    if cached is not None and cached.snapshot is not None:
        base, base_tick = cached.snapshot, cached.tick
        rows = dict(zip(base.page.tolist(), range(base.n_nodes)))
    src: list[int] = []
    pages: list[int] = []
    levels: list[int] = []
    nent: list[int] = []
    refs: list[int] = []
    xlo: list[float] = []
    ylo: list[float] = []
    xhi: list[float] = []
    yhi: list[float] = []
    for node in tree.iter_nodes():
        page = node.page_id
        pages.append(page)
        levels.append(node.level)
        if node.tick < base_tick and page in rows:
            src.append(rows[page])
            continue
        src.append(-1)
        entries = node.entries
        nent.append(len(entries))
        refs.extend([e.ref for e in entries])
        mbrs = [e.mbr for e in entries]
        xlo.extend([m.xlo for m in mbrs])
        ylo.extend([m.ylo for m in mbrs])
        xhi.extend([m.xhi for m in mbrs])
        yhi.extend([m.yhi for m in mbrs])
    try:
        snapshot = assemble(base, src, pages, levels,
                            (nent, refs, xlo, ylo, xhi, yhi), stamp=key)
    except OverflowError:
        snapshot = None
    tree._column_tree = SnapshotRecord(key, snapshot, tick, len(nent),
                                       len(pages))
    return snapshot


def carry_column_tree(tree: Any, snapshot: ColumnTree | None) -> None:
    """Give ``tree`` a snapshot derived without reading its nodes.

    For a caller that knows ``snapshot`` equals what
    :func:`column_tree_of` would build at the tree's current stamp —
    the log-first builder, which packs its own columns, and
    construction replay, whose tree is the recorded one moved to fresh
    pages (:func:`~repro.kernels.node_store.shift_pages`). The carried
    snapshot is the base the tree's next snapshot is assembled from.
    """
    nodes = 0 if snapshot is None else snapshot.n_nodes
    tree._column_tree = SnapshotRecord(
        (tree.mutations, tree.root_id), snapshot, next_edit_tick(), 0,
        nodes, carried=True,
    )


# --------------------------------------------------------------------- #
# Batched tree matching (STJ / RTJ / 2STJ match phase)
# --------------------------------------------------------------------- #

class _PreparedMatch:
    """A MatchPlan lowered to plain Python lists for the replay loop.

    ``peer`` is the ``tree_a`` snapshot the page column ``pa`` is
    lowered against; ``tree_b`` is the cache's owner, whose snapshot
    cannot change while the entry lives.
    """

    __slots__ = ("peer", "anode", "pa", "pb", "xy", "cs", "ce",
                 "es", "ee", "emits")

    def __init__(self, ct_a: ColumnTree, ct_b: ColumnTree):
        plan = build_match_plans(ct_a, ct_b)
        self.anode = plan.p_anode
        self.pb = ct_b.page[plan.p_bnode].tolist()
        self.xy = plan.xy.tolist()
        self.cs = plan.child_start.tolist()
        self.ce = plan.child_end.tolist()
        self.es = plan.emit_start.tolist()
        self.ee = plan.emit_end.tolist()
        self.emits = list(zip(plan.emit_a.tolist(), plan.emit_b.tolist()))
        self.rebind(ct_a)

    def rebind(self, ct_a: ColumnTree) -> None:
        """Re-lower the peer's page ids against an equal snapshot.

        The plan proper — visit order, child wiring, XY charges, emitted
        object ids — is a pure function of the two snapshots' structure,
        but the replayed fetch sequence addresses *pages*, and a rebuilt
        tree lands on fresh page ids. Re-lowering is one gather.
        """
        self.peer = ct_a
        self.pa = ct_a.page[self.anode].tolist()


def _prepared_match_of(
    tree_b: Any, ct_a: ColumnTree, ct_b: ColumnTree
) -> _PreparedMatch:
    """The lowered plan for ``ct_a`` × ``ct_b``, from ``tree_b``'s cache.

    In STJ, RTJ and 2STJ ``tree_b`` is the persistent side (``T_R``; the
    other tree is rebuilt per join). The key is ``ct_a``'s structural
    digest, so a rebuild of identical inputs — a replayed seeded tree,
    RTJ's per-join R-tree — finds the plan. A stored plan is reused as
    is when bound to this very snapshot (a hit), re-lowered when bound
    to an equal one (a rebind), and replaced otherwise (a miss: nothing
    stored, or a digest collision).
    """
    cache = warm_cache_of(tree_b)
    key = ct_a.digest()
    prepared = cache.lookup("match", key)
    if prepared is not None and prepared.peer is ct_a:
        cache.note("match", "hits")
    elif prepared is not None and prepared.peer.same_structure(ct_a):
        prepared.rebind(ct_a)
        cache.note("match", "rebinds")
    else:
        cache.note("match", "misses")
        prepared = _PreparedMatch(ct_a, ct_b)
        cache.store("match", key, prepared)
    return prepared


def match_trees_batch(
    tree_a: Any,
    tree_b: Any,
    metrics: MetricsCollector | None = None,
) -> list[JoinPair] | None:
    """Batch-planned TM: identical answers and costs, no per-pair Python.

    Both snapshots are taken first, through unaccounted peeks; if
    either tree has no snapshot (oids beyond int64) the result is
    ``None`` and nothing has been charged. The preamble then mirrors
    the scalar :func:`~repro.join.matching.match_trees` exactly — both
    roots read unpinned, empty-tree early exit — and the pair forest is
    walked depth-first with the scalar's pin discipline: pin a, pin b,
    charge the pair's XY total, emit, descend children in sweep order,
    unpin b then a. The ``finally`` chain is the scalar ``_match``'s,
    so a storage fault unwinds the pins identically; recursion depth is
    the forest depth (bounded by the two tree heights), same as the
    scalar matcher.
    """
    ct_a = column_tree_of(tree_a)
    ct_b = column_tree_of(tree_b)
    if ct_a is None or ct_b is None:
        return None
    root_a = tree_a.read_node(tree_a.root_id)
    root_b = tree_b.read_node(tree_b.root_id)
    if not root_a.entries or not root_b.entries:
        return []
    prep = _prepared_match_of(tree_b, ct_a, ct_b)

    cpu = metrics.cpu if metrics is not None else None
    fetch_a = tree_a.buffer.fetch
    unpin_a = tree_a.buffer.unpin
    fetch_b = tree_b.buffer.fetch
    unpin_b = tree_b.buffer.unpin
    pa, pb, xy = prep.pa, prep.pb, prep.xy
    cs, ce, es, ee = prep.cs, prep.ce, prep.es, prep.ee
    emits = prep.emits

    results: list[JoinPair] = []
    extend = results.extend

    def replay(pair: int) -> None:
        page_a = pa[pair]
        fetch_a(page_a, pin=True)
        try:
            page_b = pb[pair]
            fetch_b(page_b, pin=True)
            try:
                if cpu is not None:
                    cpu.xy_tests += xy[pair]
                e0 = es[pair]
                if ee[pair] != e0:
                    extend(emits[e0:ee[pair]])
                for child in range(cs[pair], ce[pair]):
                    replay(child)
            finally:
                unpin_b(page_b)
        finally:
            unpin_a(page_a)

    replay(0)
    return results


# --------------------------------------------------------------------- #
# Batched window queries (BFJ's match phase)
# --------------------------------------------------------------------- #

class _PreparedWindow(NamedTuple):
    """A WindowPlan lowered to the scalar replay order, plus answers.

    ``pages``/``weights`` are the full accounted fetch-and-charge
    sequence across all queries, and ``pairs`` the complete emission
    list in scalar order
    (:func:`~repro.kernels.node_store.lower_window_plan`). Replay is
    then a single :meth:`BufferPool.fetch_run`. Emissions carry no accounting and a
    faulted join discards its partial pairs, so returning the
    precomputed list is observationally identical to emitting at each
    leaf visit. ``query`` is the packed batch the plan answers.
    """

    query: bytes
    pages: list
    weights: list
    pairs: list


def _packed_query(rows: list, source: Any) -> tuple[bytes, tuple] | None:
    """The query batch packed as bytes (oids, then corners) and its
    cache key, or ``None`` when an oid does not fit int64.

    ``source`` is the data file ``rows`` were scanned from, or ``None``.
    A data file is written once and never rewritten, so the first pack
    is memoised on it, and later joins on that file hand the stored
    plan the very same bytes object. The memo is neither read nor made
    while a fault injector is armed on the file's disk.
    """
    if source is not None:
        injector = source.disk.injector
        if injector is not None and injector.enabled:
            source = None
        else:
            memo = getattr(source, "_packed_query", None)
            if memo is not None:
                return memo
    nq = len(rows)
    try:
        oids = np.fromiter(map(itemgetter(1), rows), np.int64, nq)
    except OverflowError:
        return None
    corners = np.fromiter(
        chain.from_iterable(map(_CORNERS, map(itemgetter(0), rows))),
        np.float64, 4 * nq,
    )
    query = oids.tobytes() + corners.tobytes()
    packed = (query, (nq, zlib.crc32(query)))
    if source is not None:
        source._packed_query = packed
    return packed


def window_join_batch(
    rows: list, tree_r: Any, source: Any = None
) -> list[JoinPair] | None:
    """All of BFJ's window queries planned together, replayed in order.

    ``rows`` is the materialised ``(rect, oid)`` scan of ``D_S``, and
    ``source`` the data file it came from (its packed batch is memoised
    there; ``None`` packs every time). The whole query batch descends
    the columnar snapshot level-synchronously. The lowered plan is kept
    in ``tree_r``'s warm cache under a checksum of the query batch, and
    reused only when the stored batch — oids and coordinates — is
    bit-for-bit this one, so a resident service probing the same run
    against the same tree pays only the accounted replay. Returns
    ``None``, having charged nothing, when ``T_R`` has no snapshot or a
    query oid does not fit the int64 plan key.
    """
    ct = column_tree_of(tree_r)
    if ct is None:
        return None
    packed = _packed_query(rows, source)
    if packed is None:
        return None
    query, key = packed
    nq = key[0]
    cache = warm_cache_of(tree_r)
    prep = cache.lookup("window", key)
    # A memoised batch is the stored plan's own bytes object, which
    # compares equal without reading it.
    if prep is not None and prep.query == query:
        cache.note("window", "hits")
    else:
        cache.note("window", "misses")
        oids = np.frombuffer(query, np.int64, nq)
        corners = np.frombuffer(query, np.float64, 4 * nq, offset=8 * nq)
        columns = corners.reshape(nq, 4).T.copy()   # xlo, ylo, xhi, yhi
        program = lower_window_plan(ct, build_window_plans(ct, *columns))
        pairs = list(zip(oids[program.pair_query].tolist(),
                         program.pair_ref.tolist()))
        prep = _PreparedWindow(query, program.pages.tolist(),
                               program.weights.tolist(), pairs)
        cache.store("window", key, prep)

    metrics = tree_r.metrics
    cpu = metrics.cpu if metrics is not None else None
    tree_r.buffer.fetch_run(prep.pages, prep.weights, cpu)
    return list(prep.pairs)
