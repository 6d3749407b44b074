"""Batch geometry kernels over :class:`~repro.kernels.rect_array.RectArray`.

Every kernel here has a scalar twin in :mod:`repro.geometry` or in the
tree code, and the contract is *bit identity*: the same floats, the
same winners under the same tie-breaks, pairs in the same order, and —
for the sweep — the same ``xy_tests`` increment, derived analytically
instead of counted one comparison at a time.

The library calls three of them: :func:`quadratic_split_indices` (the
quadratic split of the per-object trees and of the log-first builder),
:func:`intersect_indices` (NAIVE) and :func:`clipped_area_total` (the
workload generator). :func:`mbr_of`, :func:`least_enlargement_index`,
:func:`min_center_distance_index`, :func:`all_points` and
:func:`sweep_pairs_batch` have no caller in ``src``; perfbench's traced
probe list (``perfbench/probes.py``) resolves them by name, so they
retire with that list.

The kernels run on numpy columns. They restrict themselves to
elementwise IEEE-754 operations that mirror the scalar expression trees
exactly (``minimum``/``maximum``, elementwise ``*``/``-``, comparisons,
``searchsorted``), so no float can differ in even the last ulp;
reductions that would reassociate additions (``ndarray.sum`` pairwise
summation) are never used where the scalar path summed sequentially.
The quadratic split runs on one node's entries instead (at most a few
dozen): it takes the node's coordinate lists as they are and uses
numpy only for PickSeeds' pair matrix, once the node is large enough
to pay for it.

Analytic sweep accounting
-------------------------
The scalar sweep charges, per anchor, one x-test for every inner-scan
comparison *including* the failing break test (but not when the scan
runs off the end of the list) plus one y-test per candidate that
survives the x-test. With both sides sorted by ``xlo`` (stable, ties
between sides resolved a-first), binary search gives the same totals
without scanning: an a-anchor at sorted position ``i`` faces
``j0 = bisect_left(b_xlo, a_xlo[i])`` already-consumed b's, is anchored
iff ``j0 < nb``, scans ``m = bisect_right(b_xlo, a_xhi[i]) - j0``
candidates, and pays ``2*m`` tests plus one more iff the scan stopped
on a live element (``j0 + m < nb``). The b-anchor case is symmetric
with ``bisect_right`` for the consumed count (a wins ties). Emission
order is reconstructed exactly: anchor order is the merge order, i.e.
ascending ``i + j0(i)`` / ``i0(j) + j`` (the number of elements
consumed before the anchor — distinct across all anchors), with each
anchor's candidates ascending.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..errors import GeometryError
from ..geometry.rect import Rect
from .rect_array import RectArray

__all__ = [
    "all_points",
    "clipped_area_total",
    "intersect_indices",
    "least_enlargement_index",
    "mbr_of",
    "min_center_distance_index",
    "quadratic_split_indices",
    "sweep_pairs_batch",
]


# --------------------------------------------------------------------- #
# Intersection filter
# --------------------------------------------------------------------- #

def intersect_indices(arr: RectArray, rect: Rect) -> Any:
    """Indices of rectangles in ``arr`` intersecting ``rect``, ascending.

    Same closed-rectangle predicate as :meth:`Rect.intersects`; the
    ascending index order matches a scalar scan over the entry list.
    """
    mask = (
        (arr.xlo <= rect.xhi)
        & (rect.xlo <= arr.xhi)
        & (arr.ylo <= rect.yhi)
        & (rect.ylo <= arr.yhi)
    )
    return np.nonzero(mask)[0]


# --------------------------------------------------------------------- #
# MBR of a slice
# --------------------------------------------------------------------- #

def mbr_of(arr: RectArray) -> Rect:
    """Smallest rectangle enclosing every rectangle in ``arr``.

    Pure min/max over the columns — no arithmetic — so the result is
    bit-identical to :func:`repro.geometry.rect.union_all`.
    """
    if arr.n == 0:
        raise GeometryError("mbr_of() of an empty RectArray")
    return Rect(
        float(arr.xlo.min()), float(arr.ylo.min()),
        float(arr.xhi.max()), float(arr.yhi.max()),
    )


# --------------------------------------------------------------------- #
# Guttman least-enlargement scan
# --------------------------------------------------------------------- #

def least_enlargement_index(arr: RectArray, rect: Rect) -> int | None:
    """Index of the rectangle needing least enlargement to cover ``rect``.

    Reproduces the scalar ``choose_subtree`` loop exactly: the winner is
    the first index attaining the minimal enlargement and, among those,
    the minimal current area (first occurrence again on area ties).

    Returns ``None`` — caller falls back to its scalar loop — when an
    enlargement is NaN (coordinate overflow): the scalar loops skip or
    keep a NaN row depending on how they start, which no minimum over
    the column reproduces.
    """
    if arr.n == 0:
        raise GeometryError("least_enlargement_index() of an empty RectArray")
    width = arr.xhi - arr.xlo
    height = arr.yhi - arr.ylo
    area = width * height
    uxlo = np.minimum(arr.xlo, rect.xlo)
    uylo = np.minimum(arr.ylo, rect.ylo)
    uxhi = np.maximum(arr.xhi, rect.xhi)
    uyhi = np.maximum(arr.yhi, rect.yhi)
    enl = (uxhi - uxlo) * (uyhi - uylo) - area
    least = enl.min()
    if least != least:      # min() propagates NaN
        return None
    cand = np.nonzero(enl == least)[0]
    return int(cand[np.argmin(area[cand])])


# --------------------------------------------------------------------- #
# Center-distance scan (seeded growing phase, point seeds)
# --------------------------------------------------------------------- #

def min_center_distance_index(arr: RectArray, rect: Rect) -> int | None:
    """First index minimising squared center distance to ``rect``.

    Mirrors ``min(entries, key=lambda e: e.mbr.center_distance_sq(rect))``
    — ``min`` keeps the first of equal keys, as does ``argmin``.

    Returns ``None`` — caller falls back to its scalar loop — when a
    distance is NaN (coordinate overflow): ``argmin`` picks the first
    NaN, while the scalar loop keeps a NaN first row and skips every
    later one, so no minimum over the column reproduces it.
    """
    if arr.n == 0:
        raise GeometryError("min_center_distance_index() of an empty RectArray")
    rsx = rect.xlo + rect.xhi
    rsy = rect.ylo + rect.yhi
    dx = (arr.xlo + arr.xhi) - rsx
    dy = (arr.ylo + arr.yhi) - rsy
    dist = (dx * dx + dy * dy) / 4.0
    best = int(np.argmin(dist))
    if dist[best] != dist[best]:    # argmin stops at the first NaN
        return None
    return best


def all_points(arr: RectArray) -> bool:
    """Whether every rectangle is degenerate (a single point)."""
    return bool(np.all((arr.xlo == arr.xhi) & (arr.ylo == arr.yhi)))


# --------------------------------------------------------------------- #
# Plane sweep
# --------------------------------------------------------------------- #

def sweep_pairs_batch(
    arr_a: RectArray,
    arr_b: RectArray,
    counters: Any | None = None,
) -> list[tuple[int, int]]:
    """All intersecting ``(i, j)`` index pairs, in scalar-sweep order.

    The returned pairs index into ``arr_a``/``arr_b`` and appear in the
    exact order :func:`repro.geometry.sweep.sweep_pairs` would emit the
    corresponding elements; ``counters.xy_tests`` (when given) receives
    the exact scalar increment, computed analytically.
    """
    if arr_a.n == 0 or arr_b.n == 0:
        return []
    na, nb = arr_a.n, arr_b.n
    order_a = np.argsort(arr_a.xlo, kind="stable")
    order_b = np.argsort(arr_b.xlo, kind="stable")
    axlo = arr_a.xlo[order_a]
    axhi = arr_a.xhi[order_a]
    aylo = arr_a.ylo[order_a]
    ayhi = arr_a.yhi[order_a]
    bxlo = arr_b.xlo[order_b]
    bxhi = arr_b.xhi[order_b]
    bylo = arr_b.ylo[order_b]
    byhi = arr_b.yhi[order_b]

    # Merge-front positions. An a at sorted position i reaches the front
    # after the j0[i] b's with strictly smaller xlo (a wins ties); it is
    # an anchor iff any b remains. Its scan covers the m_a[i] b's with
    # xlo <= a.xhi, paying one extra x-test iff it stopped on a live
    # element rather than running off the end.
    j0 = np.searchsorted(bxlo, axlo, side="left")
    jend = np.searchsorted(bxlo, axhi, side="right")
    a_anch = j0 < nb
    m_a = np.where(a_anch, jend - j0, 0)

    i0 = np.searchsorted(axlo, bxlo, side="right")
    iend = np.searchsorted(axlo, bxhi, side="right")
    b_anch = i0 < na
    m_b = np.where(b_anch, iend - i0, 0)

    if counters is not None:
        xy = (
            2 * int(m_a.sum())
            + int(np.count_nonzero(a_anch & (jend < nb)))
            + 2 * int(m_b.sum())
            + int(np.count_nonzero(b_anch & (iend < na)))
        )
        counters.xy_tests += xy

    empty = np.empty(0, dtype=np.intp)

    ii = np.nonzero(m_a > 0)[0]
    if ii.size:
        reps = m_a[ii]
        rows_a = np.repeat(ii, reps)
        cols_a = np.repeat(j0[ii], reps) + _segment_offsets(reps)
        keep = (aylo[rows_a] <= byhi[cols_a]) & (bylo[cols_a] <= ayhi[rows_a])
        rows_a = rows_a[keep]
        cols_a = cols_a[keep]
        rank_a = rows_a + j0[rows_a]
    else:
        rows_a = cols_a = rank_a = empty

    jj = np.nonzero(m_b > 0)[0]
    if jj.size:
        reps = m_b[jj]
        cols_b = np.repeat(jj, reps)
        rows_b = np.repeat(i0[jj], reps) + _segment_offsets(reps)
        keep = (bylo[cols_b] <= ayhi[rows_b]) & (aylo[rows_b] <= byhi[cols_b])
        rows_b = rows_b[keep]
        cols_b = cols_b[keep]
        rank_b = i0[cols_b] + cols_b
    else:
        rows_b = cols_b = rank_b = empty

    rows = np.concatenate([rows_a, rows_b])
    if rows.size == 0:
        return []
    cols = np.concatenate([cols_a, cols_b])
    ranks = np.concatenate([rank_a, rank_b])
    # Ranks are distinct across anchors (each equals the number of
    # elements the merge consumed before that anchor); within an anchor
    # the candidate blocks are already ascending, and the stable sort
    # keeps them so.
    emit = np.argsort(ranks, kind="stable")
    out_a = order_a[rows[emit]]
    out_b = order_b[cols[emit]]
    return list(zip(out_a.tolist(), out_b.tolist()))


def _segment_offsets(reps: Any) -> Any:
    """``[0..reps[0]-1, 0..reps[1]-1, ...]`` as one flat array."""
    total = int(reps.sum())
    starts = np.cumsum(reps) - reps
    return np.arange(total) - np.repeat(starts, reps)


# --------------------------------------------------------------------- #
# Guttman quadratic split
# --------------------------------------------------------------------- #

#: PickSeeds examines n*(n-1)/2 pairs; below this n the pair matrix is
#: too small for numpy to beat the inline loop.
_SEEDS_NUMPY_MIN = 16

#: Upper-triangle index pairs per ``n``, cached across splits: a build
#: inserts thousands of entries at one fixed fanout, and ``triu_indices``
#: (which materialises an n×n mask) dominates the numpy PickSeeds cost.
_TRIU_CACHE: dict = {}


def quadratic_split_indices(
    xlo: list[float],
    ylo: list[float],
    xhi: list[float],
    yhi: list[float],
    min_fill: int,
) -> tuple[list[int], list[int]] | None:
    """Guttman quadratic split of one node's entries as two index groups.

    The entries are given as four coordinate lists, one row per entry.
    Bit-identical twin of the scalar ``rtree.split.quadratic_split``:
    the same seeds (first pair maximising the wasted area, in the
    scalar's row-major scan order), the same PickNext choices and group
    assignments under the same tie-break chain, the same early
    absorption into an under-filled group. PickSeeds is the O(n²) part
    and runs on numpy when the node is big enough to pay; the PickNext
    loop runs on the lists with the scalar expression trees inlined.

    Returns ``None`` — caller falls back to the scalar path — when the
    pair matrix contains NaN (coordinate overflow), where numpy's
    argmax and the scalar strict-``>`` scan disagree.
    """
    n = len(xlo)
    if n < 2:
        return None
    areas = [(xhi[k] - xlo[k]) * (yhi[k] - ylo[k]) for k in range(n)]

    # --- PickSeeds: maximise d = area(union) - area(e1) - area(e2) ----- #
    if n >= _SEEDS_NUMPY_MIN:
        axlo = np.asarray(xlo)
        aylo = np.asarray(ylo)
        axhi = np.asarray(xhi)
        ayhi = np.asarray(yhi)
        aar = np.asarray(areas)
        pair_idx = _TRIU_CACHE.get(n)
        if pair_idx is None:
            pair_idx = np.triu_indices(n, k=1)  # row-major: scalar order
            _TRIU_CACHE[n] = pair_idx
        iu, ju = pair_idx
        d = (
            (np.maximum(axhi[iu], axhi[ju]) - np.minimum(axlo[iu], axlo[ju]))
            * (np.maximum(ayhi[iu], ayhi[ju]) - np.minimum(aylo[iu], aylo[ju]))
            - aar[iu]
            - aar[ju]
        )
        if bool(np.isnan(d).any()):
            return None
        if not bool((d > -np.inf).any()):
            # Every pair wasted -inf area (overflowed input); the scalar
            # scan never updates its seeds here, so delegate to it.
            return None
        k = int(np.argmax(d))  # first maximum == scalar strict-> scan
        seed_a, seed_b = int(iu[k]), int(ju[k])
    else:
        seed_a = seed_b = -1
        worst = float("-inf")
        for i in range(n):
            ix0, iy0, ix1, iy1 = xlo[i], ylo[i], xhi[i], yhi[i]
            ai = areas[i]
            for j in range(i + 1, n):
                uxlo = ix0 if ix0 <= xlo[j] else xlo[j]
                uylo = iy0 if iy0 <= ylo[j] else ylo[j]
                uxhi = ix1 if ix1 >= xhi[j] else xhi[j]
                uyhi = iy1 if iy1 >= yhi[j] else yhi[j]
                d = (uxhi - uxlo) * (uyhi - uylo) - ai - areas[j]
                if d > worst:
                    worst = d
                    seed_a, seed_b = i, j
        if seed_a < 0:
            return None

    group_a = [seed_a]
    group_b = [seed_b]
    ax0, ay0, ax1, ay1 = xlo[seed_a], ylo[seed_a], xhi[seed_a], yhi[seed_a]
    bx0, by0, bx1, by1 = xlo[seed_b], ylo[seed_b], xhi[seed_b], yhi[seed_b]
    # Rows prefetched as tuples: the PickNext loop rescans the remaining
    # set every round, and tuple unpacking beats four indexed column
    # loads per candidate.
    remaining = [
        (k, xlo[k], ylo[k], xhi[k], yhi[k])
        for k in range(n)
        if k != seed_a and k != seed_b
    ]

    # --- PickNext loop ------------------------------------------------- #
    while remaining:
        if len(group_a) + len(remaining) == min_fill:
            group_a.extend(row[0] for row in remaining)
            break
        if len(group_b) + len(remaining) == min_fill:
            group_b.extend(row[0] for row in remaining)
            break

        area_a = (ax1 - ax0) * (ay1 - ay0)
        area_b = (bx1 - bx0) * (by1 - by0)
        best_pos = -1
        best_pref = -1.0
        best_d1 = best_d2 = 0.0
        for pos, (k, kx0, ky0, kx1, ky1) in enumerate(remaining):
            uxlo = ax0 if ax0 <= kx0 else kx0
            uylo = ay0 if ay0 <= ky0 else ky0
            uxhi = ax1 if ax1 >= kx1 else kx1
            uyhi = ay1 if ay1 >= ky1 else ky1
            d1 = (uxhi - uxlo) * (uyhi - uylo) - area_a
            uxlo = bx0 if bx0 <= kx0 else kx0
            uylo = by0 if by0 <= ky0 else ky0
            uxhi = bx1 if bx1 >= kx1 else kx1
            uyhi = by1 if by1 >= ky1 else ky1
            d2 = (uxhi - uxlo) * (uyhi - uylo) - area_b
            pref = abs(d1 - d2)
            if pref > best_pref:
                best_pref = pref
                best_pos = pos
                best_d1, best_d2 = d1, d2
        chosen, cx0, cy0, cx1, cy1 = remaining.pop(best_pos)

        if best_d1 < best_d2:
            to_a = True
        elif best_d2 < best_d1:
            to_a = False
        elif area_a < area_b:
            to_a = True
        elif area_b < area_a:
            to_a = False
        else:
            to_a = len(group_a) <= len(group_b)
        if to_a:
            group_a.append(chosen)
            ax0 = ax0 if ax0 <= cx0 else cx0
            ay0 = ay0 if ay0 <= cy0 else cy0
            ax1 = ax1 if ax1 >= cx1 else cx1
            ay1 = ay1 if ay1 >= cy1 else cy1
        else:
            group_b.append(chosen)
            bx0 = bx0 if bx0 <= cx0 else cx0
            by0 = by0 if by0 <= cy0 else cy0
            bx1 = bx1 if bx1 >= cx1 else cx1
            by1 = by1 if by1 >= cy1 else cy1
    return group_a, group_b


# --------------------------------------------------------------------- #
# Workload generator: clipped cluster-area sum
# --------------------------------------------------------------------- #

def clipped_area_total(
    cx: Sequence[float],
    cy: Sequence[float],
    w: Sequence[float],
    h: Sequence[float],
    scale: float,
    window: Rect,
) -> float | None:
    """Total area of the scaled, window-clipped cluster rectangles.

    Reproduces, per cluster, the scalar chain ``Rect.from_center(cx, cy,
    w*scale, h*scale).clipped_to(window).area()`` and returns the
    sequential left-to-right sum of the areas — or ``None`` if any
    cluster falls entirely outside the window, or if the scalar chain
    would raise for one (a negative scaled size, or a corner that is
    NaN, as ``inf - inf`` gives); the caller then runs the scalar chain.
    The clip takes ``Rect.intersection``'s own comparisons, and the
    areas are added one by one, left to right, as the scalar chain adds
    them (``sum()`` compensates its rounding from Python 3.12 on).
    """
    width = np.asarray(w, dtype=np.float64) * scale
    height = np.asarray(h, dtype=np.float64) * scale
    if bool(np.any((width < 0) | (height < 0))):
        return None
    hw = width / 2.0
    hh = height / 2.0
    cxa = np.asarray(cx, dtype=np.float64)
    cya = np.asarray(cy, dtype=np.float64)
    xlo, ylo, xhi, yhi = cxa - hw, cya - hh, cxa + hw, cya + hh
    if bool(np.any(np.isnan(xlo) | np.isnan(ylo) | np.isnan(xhi)
                   | np.isnan(yhi))):
        return None
    ixlo = np.where(xlo >= window.xlo, xlo, window.xlo)
    iylo = np.where(ylo >= window.ylo, ylo, window.ylo)
    ixhi = np.where(xhi <= window.xhi, xhi, window.xhi)
    iyhi = np.where(yhi <= window.yhi, yhi, window.yhi)
    if bool(np.any((ixlo > ixhi) | (iylo > iyhi))):
        return None
    total = 0.0
    for area in ((ixhi - ixlo) * (iyhi - iylo)).tolist():
        total += area
    return total
