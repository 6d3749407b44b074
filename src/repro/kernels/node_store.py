"""Columnar node store and batch traversal plans.

A kernel can vectorize the *inside* of one node visit, but a traversal
driven node by node still pays one kernel call per node pair, one
window query at a time, and object allocation between calls. At R-tree
fanout (a few dozen entries) that per-call overhead eats the whole
kernel win: a per-node kernel tree matcher measured slower than the
scalar one.

This module avoids the per-node dispatch by restructuring traversal
around a :class:`ColumnTree` — a read-only level-order struct-of-arrays
snapshot of a built tree (entry MBR columns, CSR child offsets, leaf
object ids, page ids for accounting) — and *plan builders* that push an
entire frontier through the tree per numpy call:

* :func:`build_window_plans` — thousands of window queries descend
  together (BFJ's shape);
* :func:`build_match_plans` — level-at-a-time tree matching with a
  segmented multi-node plane sweep (:func:`sweep_pairs_segmented`)
  over concatenated frontier slices.

The plans are *pure data*: per-visit page ids, entry counts, child
links, analytically derived ``xy_tests`` charges, and emission lists,
all in the exact order the scalar reference would produce them. The
caller (``repro.join.batch``) replays a plan through the accounted
buffer — same fetch/pin/unpin sequence, same counter increments at the
same operation positions — so the cost model cannot tell the two
paths apart. This module itself stays pure (RPR007): it never touches
storage, metrics, or phases; snapshots arrive as plain per-node
records (:meth:`ColumnTree.build`) or as a previous snapshot plus the
rows of the nodes edited since (:func:`assemble`), and version-stamped
invalidation lives with the caller (the snapshot cache keys on the
owning tree's ``mutations`` stamp, which every mutating path —
inserts, deletes, seed updates, the dynamic maintenance lane —
bumps).

The plan builders are part of the default fast path; the
``REPRO_KERNELS=0`` scalar reference never reaches them.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

from ..errors import GeometryError

__all__ = [
    "ColumnTree",
    "MatchPlan",
    "WindowPlan",
    "WindowProgram",
    "assemble",
    "build_match_plans",
    "build_window_plans",
    "lower_window_plan",
    "shift_pages",
    "sweep_pairs_segmented",
    "window_replay_order",
]


def _exclusive_cumsum(counts: Any) -> Any:
    return np.cumsum(counts) - counts


def _segment_offsets(reps: Any) -> Any:
    """``[0..reps[0]-1, 0..reps[1]-1, ...]`` as one flat array."""
    total = int(reps.sum())
    starts = np.cumsum(reps) - reps
    return np.arange(total) - np.repeat(starts, reps)


# --------------------------------------------------------------------- #
# The columnar snapshot
# --------------------------------------------------------------------- #

class ColumnTree:
    """A built tree packed into level-order struct-of-arrays columns.

    Nodes are indexed ``0..n_nodes-1`` (the root is index 0); entries
    live in one flat coordinate table addressed by the CSR offsets
    ``eoff`` (node ``i`` owns entries ``eoff[i]:eoff[i+1]``, in entry
    order). ``eref`` holds the scalar entry payload — a child page id
    in internal nodes, an object id in leaves — and ``echild`` the
    child's *node index* (``-1`` in leaves). Node MBRs are min/max
    folds over the entry columns, bit-identical to the scalar
    ``union_all`` (pure min/max, no arithmetic).

    The snapshot is immutable; staleness is the owner's problem. The
    caller caches it keyed on the source tree's ``mutations`` stamp
    and, when the stamp moves, assembles the next one from it — the
    version/invalidation protocol documented in DESIGN.md §15.
    """

    __slots__ = (
        "n_nodes", "n_entries", "page", "level", "is_leaf", "nent",
        "eoff", "exlo", "eylo", "exhi", "eyhi", "eref", "echild",
        "nxlo", "nylo", "nxhi", "nyhi", "stamp", "_digest",
    )

    #: Every column, in layout order.
    COLUMNS = (
        "page", "level", "is_leaf", "nent", "eoff",
        "exlo", "eylo", "exhi", "eyhi", "eref", "echild",
        "nxlo", "nylo", "nxhi", "nyhi",
    )

    def __init__(self, *, page, level, is_leaf, nent, eoff,
                 exlo, eylo, exhi, eyhi, eref, echild,
                 nxlo, nylo, nxhi, nyhi, stamp: int = 0):
        self.page = page
        self.level = level
        self.is_leaf = is_leaf
        self.nent = nent
        self.eoff = eoff
        self.exlo = exlo
        self.eylo = eylo
        self.exhi = exhi
        self.eyhi = eyhi
        self.eref = eref
        self.echild = echild
        self.nxlo = nxlo
        self.nylo = nylo
        self.nxhi = nxhi
        self.nyhi = nyhi
        self.n_nodes = len(page)
        self.n_entries = len(eref)
        self.stamp = stamp
        self._digest = None

    def digest(self) -> tuple:
        """A structural fingerprint of the snapshot, memoised.

        Two snapshots with equal digests describe the same tree shape,
        geometry and data payloads — everything a traversal plan is a
        function of. The *page layout* is deliberately excluded: a tree
        rebuilt from the same inputs gets fresh page ids (the allocator
        is monotone), yet its plans — node visit order, child structure,
        emitted object ids — are identical. Internal ``eref`` values are
        page ids too, so the ref column contributes only its leaf rows
        (object ids); ``echild`` already captures the internal wiring as
        rebuild-invariant node indices. Callers reusing a plan across
        digest-equal snapshots must re-lower page-id arrays against the
        new snapshot's ``page`` column.
        """
        cached = self._digest
        if cached is None:
            crc = zlib.crc32  # content digest, not a seed: stable > salted
            cached = (
                self.n_nodes, self.n_entries,
                *(crc(column.tobytes()) for column in self._structure()),
            )
            self._digest = cached
        return cached

    def same_structure(self, other: "ColumnTree") -> bool:
        """Bit-for-bit equality over everything :meth:`digest` covers.

        A digest is a lookup key: its CRC32s can collide. A cache that
        finds a plan by digest confirms the hit with this comparison
        before reusing the plan.
        """
        if self.n_nodes != other.n_nodes or self.n_entries != other.n_entries:
            return False
        return all(
            a is b or a.tobytes() == b.tobytes()
            for a, b in zip(self._structure(), other._structure())
        )

    def differs_from(self, other: "ColumnTree") -> str | None:
        """The first column (or ``stamp``/``digest``) in which the two
        snapshots are not bit for bit equal, dtype included; ``None``
        when they are equal."""
        for name in self.COLUMNS:
            a, b = getattr(self, name), getattr(other, name)
            if a.dtype != b.dtype or a.tobytes() != b.tobytes():
                return name
        if self.stamp != other.stamp:
            return "stamp"
        if self.digest() != other.digest():
            return "digest"
        return None

    def _structure(self) -> tuple:
        """The columns a traversal plan is a function of: levels, CSR
        offsets, child wiring, leaf refs (object ids) and coordinates."""
        return (
            self.level, self.eoff, self.echild, self.eref[self.echild < 0],
            self.exlo, self.eylo, self.exhi, self.eyhi,
        )

    @classmethod
    def build(
        cls,
        records: Iterable[tuple[int, int, Sequence[int], Sequence[float],
                                Sequence[float], Sequence[float],
                                Sequence[float]]],
        root_page: int,
        stamp: int = 0,
    ) -> "ColumnTree":
        """Pack per-node records into columns.

        Each record is ``(page_id, level, refs, xlo, ylo, xhi, yhi)``
        with the coordinate sequences in entry order. The record for
        ``root_page`` becomes node index 0; every internal entry's ref
        must name another record's page.
        """
        recs = list(records)
        if not recs:
            raise GeometryError("cannot build a ColumnTree from no nodes")
        # Root first, remaining nodes in record order.
        recs.sort(key=lambda r: r[0] != root_page)
        if recs[0][0] != root_page:
            raise GeometryError(f"root page {root_page} not in snapshot")
        index_of = {rec[0]: i for i, rec in enumerate(recs)}
        if len(index_of) != len(recs):
            raise GeometryError("duplicate page id in snapshot")

        page = np.array([r[0] for r in recs], dtype=np.int64)
        level = np.array([r[1] for r in recs], dtype=np.int64)
        nent = np.array([len(r[2]) for r in recs], dtype=np.int64)
        eoff = np.zeros(len(recs) + 1, dtype=np.int64)
        np.cumsum(nent, out=eoff[1:])

        exlo: list[float] = []
        eylo: list[float] = []
        exhi: list[float] = []
        eyhi: list[float] = []
        eref: list[int] = []
        echild: list[int] = []
        for _, lvl, refs, xlo, ylo, xhi, yhi in recs:
            exlo.extend(xlo)
            eylo.extend(ylo)
            exhi.extend(xhi)
            eyhi.extend(yhi)
            eref.extend(refs)
            if lvl == 0:
                echild.extend([-1] * len(refs))
            else:
                echild.extend(index_of[ref] for ref in refs)

        axlo = np.array(exlo, dtype=np.float64)
        aylo = np.array(eylo, dtype=np.float64)
        axhi = np.array(exhi, dtype=np.float64)
        ayhi = np.array(eyhi, dtype=np.float64)
        return cls(
            page=page, level=level, is_leaf=(level == 0), nent=nent,
            eoff=eoff, exlo=axlo, eylo=aylo, exhi=axhi, eyhi=ayhi,
            eref=np.array(eref, dtype=np.int64),
            echild=np.array(echild, dtype=np.int64),
            **_node_boxes(nent, eoff, axlo, aylo, axhi, ayhi), stamp=stamp,
        )


def _node_boxes(nent: Any, eoff: Any, exlo: Any, eylo: Any, exhi: Any,
                eyhi: Any) -> dict:
    """Per-node MBR columns: min/max folds over each node's entry rows;
    an empty node gets the empty box (+inf lows, -inf highs)."""
    n = len(nent)
    if not len(exlo):
        return {
            "nxlo": np.full(n, np.inf), "nylo": np.full(n, np.inf),
            "nxhi": np.full(n, -np.inf), "nyhi": np.full(n, -np.inf),
        }
    nonempty = nent > 0
    starts = eoff[:-1][nonempty]
    nxlo = np.full(n, np.inf)
    nylo = np.full(n, np.inf)
    nxhi = np.full(n, -np.inf)
    nyhi = np.full(n, -np.inf)
    nxlo[nonempty] = np.minimum.reduceat(exlo, starts)
    nylo[nonempty] = np.minimum.reduceat(eylo, starts)
    nxhi[nonempty] = np.maximum.reduceat(exhi, starts)
    nyhi[nonempty] = np.maximum.reduceat(eyhi, starts)
    return {"nxlo": nxlo, "nylo": nylo, "nxhi": nxhi, "nyhi": nyhi}


def assemble(
    base: ColumnTree | None,
    src: Sequence[int],
    page: Sequence[int],
    level: Sequence[int],
    fresh: tuple,
    stamp: Any = 0,
) -> ColumnTree:
    """A snapshot that reuses ``base``'s rows for the nodes it still fits.

    The nodes arrive in snapshot order (root first), as parallel
    ``page``/``level``/``src`` sequences. ``src[i]`` is the ``base``
    node index whose entry rows node ``i`` still holds, or ``-1`` for a
    node read from its entries; ``fresh`` is ``(nent, refs, xlo, ylo,
    xhi, yhi)``, the entry counts of those nodes and their entries'
    columns, flat and in node order. With no ``base`` every ``src`` is
    ``-1``.

    Each node's rows are copied out of ``base`` or ``fresh`` in entry
    order, and ``echild`` and the node MBRs are derived from the result
    exactly as :meth:`ColumnTree.build` derives them, so the snapshot
    equals a fresh pack of the same nodes column for column (dtypes and
    digest included). ``base`` is only read: match plans and
    construction recordings share its columns. An object id that does
    not fit int64 raises ``OverflowError``, as ``build`` does.
    """
    int64 = np.int64
    src = np.asarray(src, dtype=int64)
    page = np.asarray(page, dtype=int64)
    level = np.asarray(level, dtype=int64)
    fnent, frefs, fxlo, fylo, fxhi, fyhi = fresh
    n = len(page)
    if n == 0:
        raise GeometryError("cannot build a ColumnTree from no nodes")
    reread = src < 0
    fnent = np.asarray(fnent, dtype=int64)
    fstart = _exclusive_cumsum(fnent)
    nent = np.empty(n, dtype=int64)
    start = np.empty(n, dtype=int64)
    nent[reread] = fnent
    if base is None:
        old_rows = 0
        tables = (None,) * 5
    else:
        kept = ~reread
        nent[kept] = base.nent[src[kept]]
        start[kept] = base.eoff[src[kept]]
        old_rows = base.n_entries
        tables = (base.eref, base.exlo, base.eylo, base.exhi, base.eyhi)
    start[reread] = old_rows + fstart
    eoff = np.zeros(n + 1, dtype=int64)
    np.cumsum(nent, out=eoff[1:])
    rows = np.repeat(start - eoff[:-1], nent) + np.arange(eoff[-1])

    def gather(old: Any, new: Any, dtype: Any) -> Any:
        new = np.array(new, dtype=dtype)
        return (new if old is None else np.concatenate((old, new)))[rows]

    eref = gather(tables[0], frefs, int64)
    exlo = gather(tables[1], fxlo, np.float64)
    eylo = gather(tables[2], fylo, np.float64)
    exhi = gather(tables[3], fxhi, np.float64)
    eyhi = gather(tables[4], fyhi, np.float64)

    order = np.argsort(page, kind="stable")
    by_page = page[order]
    if n > 1 and (by_page[1:] == by_page[:-1]).any():
        raise GeometryError("duplicate page id in snapshot")
    echild = np.full(len(eref), -1, dtype=int64)
    inner = np.repeat(level != 0, nent)
    targets = eref[inner]
    at = np.minimum(np.searchsorted(by_page, targets), n - 1)
    if (by_page[at] != targets).any():
        raise GeometryError("an internal entry names no node of the snapshot")
    echild[inner] = order[at]

    return ColumnTree(
        page=page, level=level, is_leaf=(level == 0), nent=nent,
        eoff=eoff, exlo=exlo, eylo=eylo, exhi=exhi, eyhi=eyhi,
        eref=eref, echild=echild,
        **_node_boxes(nent, eoff, exlo, eylo, exhi, eyhi), stamp=stamp,
    )


def shift_pages(ct: ColumnTree, start: int, delta: int,
                stamp: Any) -> ColumnTree:
    """``ct`` with every page id at or above ``start`` moved ``delta`` on.

    Page ids appear in the ``page`` column and as internal entries'
    refs; leaf refs are object ids and never move. This is the snapshot
    of a tree rebuilt identically on fresh pages (construction replay:
    the allocator is monotone, so every created page lands exactly
    ``delta`` ids later), without reading a node. Node order, CSR
    layout and child wiring are page-independent, so every other column
    and the memoised digest are shared with ``ct``.
    """
    page = np.where(ct.page >= start, ct.page + delta, ct.page)
    eref = np.where((ct.echild >= 0) & (ct.eref >= start),
                    ct.eref + delta, ct.eref)
    shifted = ColumnTree(
        page=page, level=ct.level, is_leaf=ct.is_leaf, nent=ct.nent,
        eoff=ct.eoff, exlo=ct.exlo, eylo=ct.eylo, exhi=ct.exhi,
        eyhi=ct.eyhi, eref=eref, echild=ct.echild, nxlo=ct.nxlo,
        nylo=ct.nylo, nxhi=ct.nxhi, nyhi=ct.nyhi, stamp=stamp,
    )
    shifted._digest = ct._digest
    return shifted


# --------------------------------------------------------------------- #
# Segmented plane sweep
# --------------------------------------------------------------------- #

def _seg_bisect2(
    nseg: int, seg_k: Any, keys: Any,
    seg_q1: Any, q1: Any, side1: str,
    seg_q2: Any, q2: Any, side2: str,
) -> tuple[Any, Any]:
    """Per-segment bisect positions for two query groups in one sort.

    ``keys`` need not be sorted: the result for a query is the *count*
    of same-segment keys strictly below it (``left``) or at or below it
    (``right``) — exactly the position a per-segment ``searchsorted``
    over the segment-sorted keys would return. Ties are arbitrated by a
    flag column: left-queries sort before keys, right-queries after.
    """
    nk = len(keys)
    n1 = len(q1)
    segs = np.concatenate([seg_k, seg_q1, seg_q2])
    vals = np.concatenate([keys, q1, q2])
    flags = np.empty(len(vals), dtype=np.uint8)
    flags[:nk] = 1
    flags[nk:nk + n1] = 0 if side1 == "left" else 2
    flags[nk + n1:] = 0 if side2 == "left" else 2
    order = np.lexsort((flags, vals, segs))
    is_key = order < nk
    keys_before = np.cumsum(is_key) - is_key
    cnt_k = np.bincount(seg_k, minlength=nseg)
    kstart = _exclusive_cumsum(cnt_k)
    qpos = np.nonzero(~is_key)[0]
    oidx = order[qpos]
    out = np.empty(len(vals) - nk, dtype=np.int64)
    out[oidx - nk] = keys_before[qpos] - kstart[segs[oidx]]
    return out[:n1], out[n1:]


def sweep_pairs_segmented(
    seg_a: Any, axlo: Any, aylo: Any, axhi: Any, ayhi: Any,
    seg_b: Any, bxlo: Any, bylo: Any, bxhi: Any, byhi: Any,
    nseg: int,
) -> tuple[Any, Any, Any, Any]:
    """Many independent plane sweeps in one numpy call.

    Segment ``s`` sweeps the a-rectangles with ``seg_a == s`` against
    the b-rectangles with ``seg_b == s``; within a segment the flat
    arrays are in scalar input (entry) order, and the segment ids are
    non-decreasing. Returns ``(pair_seg, pair_ai, pair_bi, xy_seg)``:
    intersecting pairs as indices into the flat inputs, ordered by
    segment and — within a segment — in the exact emission order of
    :func:`repro.geometry.sweep.sweep_pairs`, plus the per-segment
    scalar ``xy_tests`` charge, derived analytically exactly as in
    :func:`repro.kernels.batch.sweep_pairs_batch`.
    """
    cnt_a = np.bincount(seg_a, minlength=nseg)
    cnt_b = np.bincount(seg_b, minlength=nseg)
    start_a = _exclusive_cumsum(cnt_a)
    start_b = _exclusive_cumsum(cnt_b)

    # Stable per-segment sort by xlo: the segmented twin of _decorate.
    order_a = np.lexsort((axlo, seg_a))
    order_b = np.lexsort((bxlo, seg_b))
    sseg_a = seg_a[order_a]
    sa_xlo = axlo[order_a]
    sa_xhi = axhi[order_a]
    sa_ylo = aylo[order_a]
    sa_yhi = ayhi[order_a]
    sseg_b = seg_b[order_b]
    sb_xlo = bxlo[order_b]
    sb_xhi = bxhi[order_b]
    sb_ylo = bylo[order_b]
    sb_yhi = byhi[order_b]

    # Merge-front positions, local to each segment (a wins xlo ties).
    j0, jend = _seg_bisect2(
        nseg, sseg_b, sb_xlo,
        sseg_a, sa_xlo, "left", sseg_a, sa_xhi, "right",
    )
    i0, iend = _seg_bisect2(
        nseg, sseg_a, sa_xlo,
        sseg_b, sb_xlo, "right", sseg_b, sb_xhi, "right",
    )

    nb_of_a = cnt_b[sseg_a]
    a_anch = j0 < nb_of_a
    m_a = np.where(a_anch, jend - j0, 0)
    na_of_b = cnt_a[sseg_b]
    b_anch = i0 < na_of_b
    m_b = np.where(b_anch, iend - i0, 0)

    xy_seg = (
        np.bincount(sseg_a, weights=2 * m_a + (a_anch & (jend < nb_of_a)),
                    minlength=nseg)
        + np.bincount(sseg_b, weights=2 * m_b + (b_anch & (iend < na_of_b)),
                      minlength=nseg)
    ).astype(np.int64)

    empty = np.empty(0, dtype=np.int64)

    ii = np.nonzero(m_a > 0)[0]
    if ii.size:
        reps = m_a[ii]
        rows_a = np.repeat(ii, reps)
        cols_a = (
            start_b[sseg_a[rows_a]]
            + np.repeat(j0[ii], reps) + _segment_offsets(reps)
        )
        keep = (sa_ylo[rows_a] <= sb_yhi[cols_a]) \
            & (sb_ylo[cols_a] <= sa_yhi[rows_a])
        rows_a = rows_a[keep]
        cols_a = cols_a[keep]
        rank_a = (rows_a - start_a[sseg_a[rows_a]]) + j0[rows_a]
        pseg_a = sseg_a[rows_a]
    else:
        rows_a = cols_a = rank_a = pseg_a = empty

    jj = np.nonzero(m_b > 0)[0]
    if jj.size:
        reps = m_b[jj]
        cols_b = np.repeat(jj, reps)
        rows_b = (
            start_a[sseg_b[cols_b]]
            + np.repeat(i0[jj], reps) + _segment_offsets(reps)
        )
        keep = (sb_ylo[cols_b] <= sa_yhi[rows_b]) \
            & (sa_ylo[rows_b] <= sb_yhi[cols_b])
        rows_b = rows_b[keep]
        cols_b = cols_b[keep]
        rank_b = i0[cols_b] + (cols_b - start_b[sseg_b[cols_b]])
        pseg_b = sseg_b[cols_b]
    else:
        rows_b = cols_b = rank_b = pseg_b = empty

    rows = np.concatenate([rows_a, rows_b])
    if rows.size == 0:
        return empty, empty, empty, xy_seg
    cols = np.concatenate([cols_a, cols_b])
    ranks = np.concatenate([rank_a, rank_b])
    psegs = np.concatenate([pseg_a, pseg_b])
    # Within a segment ranks are distinct across anchors (number of
    # elements the merge consumed first) and each anchor's candidates
    # are already ascending; the stable lexsort preserves both.
    emit = np.lexsort((ranks, psegs))
    return (
        psegs[emit], order_a[rows[emit]], order_b[cols[emit]], xy_seg,
    )


# --------------------------------------------------------------------- #
# Batched window queries
# --------------------------------------------------------------------- #

class WindowPlan:
    """Precomputed traversal structure for a batch of window queries.

    One *visit* is one accounted node read of the scalar traversal.
    Visit ``q`` (for ``q < n_queries``) is query ``q``'s root visit;
    a visit's surviving children are the contiguous visit-id range
    ``child_start[v]:child_end[v]`` in entry order (the scalar stack
    pushes them in that order and pops them reversed), and a leaf
    visit's surviving object ids are ``hit_ref[hit_start[v]:
    hit_end[v]]``, also in entry order. Visit ids are contiguous per
    depth: depth ``d`` holds ``level_start[d]:level_start[d + 1]``, and
    the children of depth ``d``'s visits fill depth ``d + 1`` in their
    parents' order.
    """

    __slots__ = (
        "n_queries", "v_node", "v_query", "child_start", "child_end",
        "hit_start", "hit_end", "hit_ref", "level_start",
    )

    def __init__(self, n_queries, v_node, v_query, child_start, child_end,
                 hit_start, hit_end, hit_ref, level_start):
        self.n_queries = n_queries
        self.v_node = v_node
        self.v_query = v_query
        self.child_start = child_start
        self.child_end = child_end
        self.hit_start = hit_start
        self.hit_end = hit_end
        self.hit_ref = hit_ref
        self.level_start = level_start


def build_window_plans(
    ct: ColumnTree, qxlo: Any, qylo: Any, qxhi: Any, qyhi: Any
) -> WindowPlan:
    """Descend every query window through ``ct`` level-synchronously.

    The per-entry intersection filter runs once per frontier level over
    all live queries together; the resulting plan carries exactly the
    node visits (and surviving children/hits, in entry order) the
    scalar ``window_query`` stack would produce per query.
    """
    nq = len(qxlo)
    int64 = np.int64
    v_node_parts = [np.zeros(nq, dtype=int64)]
    v_query_parts = [np.arange(nq, dtype=int64)]
    cs_parts: list[Any] = []
    ce_parts: list[Any] = []
    hs_parts: list[Any] = []
    he_parts: list[Any] = []
    hit_parts: list[Any] = []

    level_start = [0]
    frontier_node = v_node_parts[0]
    frontier_query = v_query_parts[0]
    visit_base = 0
    hit_base = 0
    while True:
        nf = len(frontier_node)
        next_base = visit_base + nf
        level_start.append(next_base)
        reps = ct.nent[frontier_node]
        total = int(reps.sum())
        if total == 0:
            zeros = np.full(nf, next_base, dtype=int64)
            cs_parts.append(zeros)
            ce_parts.append(zeros)
            hz = np.full(nf, hit_base, dtype=int64)
            hs_parts.append(hz)
            he_parts.append(hz)
            break
        ent = np.repeat(ct.eoff[:-1][frontier_node], reps) \
            + _segment_offsets(reps)
        parent = np.repeat(np.arange(nf, dtype=int64), reps)
        mask = (
            (ct.exlo[ent] <= np.repeat(qxhi[frontier_query], reps))
            & (np.repeat(qxlo[frontier_query], reps) <= ct.exhi[ent])
            & (ct.eylo[ent] <= np.repeat(qyhi[frontier_query], reps))
            & (np.repeat(qylo[frontier_query], reps) <= ct.eyhi[ent])
        )
        leafp = np.repeat(ct.is_leaf[frontier_node], reps)

        hit_sel = mask & leafp
        hit_counts = np.bincount(parent[hit_sel], minlength=nf)
        hs = hit_base + _exclusive_cumsum(hit_counts)
        hs_parts.append(hs)
        he_parts.append(hs + hit_counts)
        hits = ct.eref[ent[hit_sel]]
        hit_parts.append(hits)
        hit_base += len(hits)

        child_sel = mask & ~leafp
        child_counts = np.bincount(parent[child_sel], minlength=nf)
        cs = next_base + _exclusive_cumsum(child_counts)
        cs_parts.append(cs)
        ce_parts.append(cs + child_counts)

        child_ent = ent[child_sel]
        if len(child_ent) == 0:
            break
        frontier_node = ct.echild[child_ent]
        frontier_query = frontier_query[parent[child_sel]]
        v_node_parts.append(frontier_node)
        v_query_parts.append(frontier_query)
        visit_base = next_base

    return WindowPlan(
        n_queries=nq,
        v_node=np.concatenate(v_node_parts),
        v_query=np.concatenate(v_query_parts),
        child_start=np.concatenate(cs_parts),
        child_end=np.concatenate(ce_parts),
        hit_start=np.concatenate(hs_parts) if hs_parts else
        np.empty(0, dtype=int64),
        hit_end=np.concatenate(he_parts) if he_parts else
        np.empty(0, dtype=int64),
        hit_ref=np.concatenate(hit_parts) if hit_parts else
        np.empty(0, dtype=int64),
        level_start=np.asarray(level_start, dtype=int64),
    )


class WindowProgram(NamedTuple):
    """A :class:`WindowPlan` lowered to the scalar traversal's order.

    ``pages`` and ``weights`` are the accounted node reads of the scalar
    BFJ loop, query after query, each with the bbox tests it charges
    (the node's entry count). Pair ``k`` is query ``pair_query[k]``
    meeting object ``pair_ref[k]``, in the scalar emission order.
    """

    pages: np.ndarray
    weights: np.ndarray
    pair_query: np.ndarray
    pair_ref: np.ndarray


def window_replay_order(plan: WindowPlan) -> Any:
    """The plan's visit ids in the order the scalar stacks visit them.

    Each query's scalar stack pushes a node's surviving children in
    entry order and pops the last one first, so its visits are a
    preorder in which siblings come last-first. Positions therefore
    follow from subtree sizes alone. A subtree's size is one plus its
    children's sizes; depth by depth from the bottom, the children of
    one depth's visits are one contiguous run of the next depth, so a
    single ``cumsum`` of that depth's sizes answers every child-range
    sum. Query ``q``'s root visit sits after every earlier query's
    visits, at the exclusive ``cumsum`` of the root subtree sizes. A
    child sits right after its parent and after the subtrees of its
    later siblings, which the stack pops first.
    """
    ls = plan.level_start.tolist()
    n = ls[-1]
    cs, ce = plan.child_start, plan.child_end
    size = np.ones(n, dtype=np.int64)
    runs: list[Any] = []    # per depth d >= 1: 0, then the sizes' cumsum
    for d in range(len(ls) - 2, 0, -1):
        a, b, c = ls[d - 1], ls[d], ls[d + 1]
        run = np.zeros(c - b + 1, dtype=np.int64)
        np.cumsum(size[b:c], out=run[1:])
        size[a:b] += run[ce[a:b] - b] - run[cs[a:b] - b]
        runs.append(run)
    runs.reverse()
    pos = np.empty(n, dtype=np.int64)
    pos[:ls[1]] = _exclusive_cumsum(size[:ls[1]])
    for d in range(1, len(ls) - 1):
        a, b, c = ls[d - 1], ls[d], ls[d + 1]
        run = runs[d - 1]
        parent = np.repeat(np.arange(a, b), ce[a:b] - cs[a:b])
        later = run[ce[parent] - b] - run[1:]
        pos[b:c] = pos[parent] + 1 + later
    order = np.empty(n, dtype=np.int64)
    order[pos] = np.arange(n, dtype=np.int64)
    return order


def lower_window_plan(ct: ColumnTree, plan: WindowPlan) -> WindowProgram:
    """The accounted fetch sequence and the pairs of ``plan``, in order.

    Gathers over :func:`window_replay_order`: the visited nodes' pages
    and entry counts, then every visit's hits in entry order. Only leaf
    visits hold hits, and a query's pairs come out in its visit order,
    which is the scalar emission order.
    """
    order = window_replay_order(plan)
    nodes = plan.v_node[order]
    h0 = plan.hit_start[order]
    hits = plan.hit_end[order] - h0
    ent = np.repeat(h0, hits) + _segment_offsets(hits)
    return WindowProgram(
        pages=ct.page[nodes],
        weights=ct.nent[nodes],
        pair_query=np.repeat(plan.v_query[order], hits),
        pair_ref=plan.hit_ref[ent],
    )


# --------------------------------------------------------------------- #
# Batched tree matching
# --------------------------------------------------------------------- #

class MatchPlan:
    """Precomputed TM pair forest for one matching run.

    Pair 0 is the root pair. A pair's descendants are the contiguous
    pair-id range ``child_start[p]:child_end[p]``, in the scalar
    recursion order (sweep order for internal-internal pairs, entry
    order for the unbalanced descend-one case); ``xy[p]`` is the total
    ``xy_tests`` the scalar matcher charges while visiting the pair
    (restriction plus sweep, zero for a disjoint internal pair), and a
    leaf-leaf pair's reported object-id pairs are
    ``emit_a/emit_b[emit_start[p]:emit_end[p]]`` in sweep order.
    """

    __slots__ = (
        "n_pairs", "p_anode", "p_bnode", "xy", "child_start", "child_end",
        "emit_start", "emit_end", "emit_a", "emit_b",
    )

    def __init__(self, p_anode, p_bnode, xy, child_start, child_end,
                 emit_start, emit_end, emit_a, emit_b):
        self.p_anode = p_anode
        self.p_bnode = p_bnode
        self.xy = xy
        self.child_start = child_start
        self.child_end = child_end
        self.emit_start = emit_start
        self.emit_end = emit_end
        self.emit_a = emit_a
        self.emit_b = emit_b
        self.n_pairs = len(p_anode)


def _flatten_entries(ct: ColumnTree, nodes: Any) -> tuple[Any, Any]:
    """(segment ids, flat entry indices) over the nodes' entry slices."""
    reps = ct.nent[nodes]
    seg = np.repeat(np.arange(len(nodes), dtype=np.int64), reps)
    ent = np.repeat(ct.eoff[:-1][nodes], reps) + _segment_offsets(reps)
    return seg, ent


def build_match_plans(ct_a: ColumnTree, ct_b: ColumnTree) -> MatchPlan:
    """Expand the TM pair tree of ``ct_a`` × ``ct_b`` level-at-a-time.

    Each round classifies the whole pair frontier (leaf/leaf,
    leaf/internal, internal/internal), computes intersection boxes,
    restriction filters and the multi-node segmented sweep in bulk,
    and emits the next frontier. The resulting forest — node indices,
    per-pair ``xy`` charges, ordered children, leaf emissions — drives
    the accounted replay in ``repro.join.batch``.
    """
    int64 = np.int64
    pa_parts = [np.zeros(1, dtype=int64)]
    pb_parts = [np.zeros(1, dtype=int64)]
    xy_parts: list[Any] = []
    cs_parts: list[Any] = []
    ce_parts: list[Any] = []
    es_parts: list[Any] = []
    ee_parts: list[Any] = []
    emit_a_parts: list[Any] = []
    emit_b_parts: list[Any] = []

    fa = pa_parts[0]
    fb = pb_parts[0]
    pair_base = 0
    emit_base = 0
    while True:
        nf = len(fa)
        next_base = pair_base + nf
        la = ct_a.is_leaf[fa]
        lb = ct_b.is_leaf[fb]
        xy = np.zeros(nf, dtype=int64)
        child_parent_parts: list[Any] = []
        child_a_parts: list[Any] = []
        child_b_parts: list[Any] = []
        emit_counts = np.zeros(nf, dtype=int64)

        # --- leaf × leaf: full sweep, report object-id pairs --------- #
        sel = np.nonzero(la & lb)[0]
        if sel.size:
            a_n = fa[sel]
            b_n = fb[sel]
            seg_a, ent_a = _flatten_entries(ct_a, a_n)
            seg_b, ent_b = _flatten_entries(ct_b, b_n)
            pseg, pai, pbi, xyseg = sweep_pairs_segmented(
                seg_a, ct_a.exlo[ent_a], ct_a.eylo[ent_a],
                ct_a.exhi[ent_a], ct_a.eyhi[ent_a],
                seg_b, ct_b.exlo[ent_b], ct_b.eylo[ent_b],
                ct_b.exhi[ent_b], ct_b.eyhi[ent_b],
                len(sel),
            )
            xy[sel] += xyseg
            emit_counts[sel] = np.bincount(pseg, minlength=len(sel))
            emit_a_parts.append(ct_a.eref[ent_a[pai]])
            emit_b_parts.append(ct_b.eref[ent_b[pbi]])

        # --- one leaf: hold it, filter the internal side's children -- #
        for leaf_is_a in (True, False):
            if leaf_is_a:
                sel = np.nonzero(la & ~lb)[0]
            else:
                sel = np.nonzero(~la & lb)[0]
            if not sel.size:
                continue
            a_n = fa[sel]
            b_n = fb[sel]
            if leaf_is_a:
                inner_ct, inner_nodes = ct_b, b_n
                wxlo, wylo = ct_a.nxlo[a_n], ct_a.nylo[a_n]
                wxhi, wyhi = ct_a.nxhi[a_n], ct_a.nyhi[a_n]
            else:
                inner_ct, inner_nodes = ct_a, a_n
                wxlo, wylo = ct_b.nxlo[b_n], ct_b.nylo[b_n]
                wxhi, wyhi = ct_b.nxhi[b_n], ct_b.nyhi[b_n]
            xy[sel] += 2 * inner_ct.nent[inner_nodes]
            seg, ent = _flatten_entries(inner_ct, inner_nodes)
            mask = (
                (inner_ct.exlo[ent] <= wxhi[seg])
                & (wxlo[seg] <= inner_ct.exhi[ent])
                & (inner_ct.eylo[ent] <= wyhi[seg])
                & (wylo[seg] <= inner_ct.eyhi[ent])
            )
            seg = seg[mask]
            kids = inner_ct.echild[ent[mask]]
            child_parent_parts.append(sel[seg])
            if leaf_is_a:
                child_a_parts.append(a_n[seg])
                child_b_parts.append(kids)
            else:
                child_a_parts.append(kids)
                child_b_parts.append(b_n[seg])

        # --- internal × internal: box, restrict, segmented sweep ----- #
        sel = np.nonzero(~la & ~lb)[0]
        if sel.size:
            a_n = fa[sel]
            b_n = fb[sel]
            bx0 = np.maximum(ct_a.nxlo[a_n], ct_b.nxlo[b_n])
            by0 = np.maximum(ct_a.nylo[a_n], ct_b.nylo[b_n])
            bx1 = np.minimum(ct_a.nxhi[a_n], ct_b.nxhi[b_n])
            by1 = np.minimum(ct_a.nyhi[a_n], ct_b.nyhi[b_n])
            ok = (bx0 <= bx1) & (by0 <= by1)
            osel = sel[ok]
            if osel.size:
                a_n = a_n[ok]
                b_n = b_n[ok]
                bx0, by0 = bx0[ok], by0[ok]
                bx1, by1 = bx1[ok], by1[ok]
                # The restriction charge: two XY tests per child on both
                # sides, before the emptiness short-circuit.
                xy[osel] += 2 * (ct_a.nent[a_n] + ct_b.nent[b_n])
                seg_a, ent_a = _flatten_entries(ct_a, a_n)
                mask_a = (
                    (ct_a.exlo[ent_a] <= bx1[seg_a])
                    & (bx0[seg_a] <= ct_a.exhi[ent_a])
                    & (ct_a.eylo[ent_a] <= by1[seg_a])
                    & (by0[seg_a] <= ct_a.eyhi[ent_a])
                )
                seg_a, ent_a = seg_a[mask_a], ent_a[mask_a]
                seg_b, ent_b = _flatten_entries(ct_b, b_n)
                mask_b = (
                    (ct_b.exlo[ent_b] <= bx1[seg_b])
                    & (bx0[seg_b] <= ct_b.exhi[ent_b])
                    & (ct_b.eylo[ent_b] <= by1[seg_b])
                    & (by0[seg_b] <= ct_b.eyhi[ent_b])
                )
                seg_b, ent_b = seg_b[mask_b], ent_b[mask_b]
                pseg, pai, pbi, xyseg = sweep_pairs_segmented(
                    seg_a, ct_a.exlo[ent_a], ct_a.eylo[ent_a],
                    ct_a.exhi[ent_a], ct_a.eyhi[ent_a],
                    seg_b, ct_b.exlo[ent_b], ct_b.eylo[ent_b],
                    ct_b.exhi[ent_b], ct_b.eyhi[ent_b],
                    len(osel),
                )
                xy[osel] += xyseg
                child_parent_parts.append(osel[pseg])
                child_a_parts.append(ct_a.echild[ent_a[pai]])
                child_b_parts.append(ct_b.echild[ent_b[pbi]])

        xy_parts.append(xy)
        es = emit_base + _exclusive_cumsum(emit_counts)
        es_parts.append(es)
        ee_parts.append(es + emit_counts)
        emit_base += int(emit_counts.sum())

        if child_parent_parts:
            parents = np.concatenate(child_parent_parts)
            kids_a = np.concatenate(child_a_parts)
            kids_b = np.concatenate(child_b_parts)
            # Group children by parent; each parent's children come from
            # exactly one class block, already internally ordered, and
            # the stable sort keeps them so.
            grouping = np.argsort(parents, kind="stable")
            parents = parents[grouping]
            kids_a = kids_a[grouping]
            kids_b = kids_b[grouping]
            child_counts = np.bincount(parents, minlength=nf)
        else:
            kids_a = kids_b = np.empty(0, dtype=int64)
            child_counts = np.zeros(nf, dtype=int64)
        cs = next_base + _exclusive_cumsum(child_counts)
        cs_parts.append(cs)
        ce_parts.append(cs + child_counts)

        if len(kids_a) == 0:
            break
        fa = kids_a
        fb = kids_b
        pa_parts.append(fa)
        pb_parts.append(fb)
        pair_base = next_base

    empty = np.empty(0, dtype=int64)
    return MatchPlan(
        p_anode=np.concatenate(pa_parts),
        p_bnode=np.concatenate(pb_parts),
        xy=np.concatenate(xy_parts),
        child_start=np.concatenate(cs_parts),
        child_end=np.concatenate(ce_parts),
        emit_start=np.concatenate(es_parts),
        emit_end=np.concatenate(ee_parts),
        emit_a=np.concatenate(emit_a_parts) if emit_a_parts else empty,
        emit_b=np.concatenate(emit_b_parts) if emit_b_parts else empty,
    )
