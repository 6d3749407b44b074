"""The Z (Morton) curve and quadtree-element decomposition.

Space is quantised to a ``2^RESOLUTION x 2^RESOLUTION`` grid; a point's
*z-value* interleaves the bits of its cell coordinates. A quadtree cell
at depth ``d`` covers a contiguous z-interval of length ``4^(RES-d)``,
so cells nest exactly like their intervals — two elements overlap if
and only if one's interval contains the other's. That containment
structure is what makes the merge join of Orenstein's method work.

Rectangles are decomposed conservatively into at most ``max_elements``
cells that together cover the rectangle (cells may overhang it — the
join applies an exact bounding-box test afterwards). More elements mean
a tighter cover but more index entries: the redundancy trade-off studied
in [Ore89], exposed here as a parameter and explored by an ablation
benchmark.

The decomposition rule has two implementations here. :func:`decompose`
refines one rectangle with a Python loop; it is the scalar reference.
:func:`decompose_batch` runs the same refinement for many rectangles at
once, one quadtree generation per pass over numpy columns, and returns
element for element the same covers (:func:`_refine_block` says why
that is exact).
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Any, NamedTuple, Sequence

import numpy as np

from ..errors import GeometryError
from ..geometry import Rect

#: Bits per axis; the curve addresses a 65536 x 65536 grid.
RESOLUTION = 16

#: Total z-address bits.
_Z_BITS = 2 * RESOLUTION

#: The map area the curve addresses (the paper's unit square).
MAP = Rect(0.0, 0.0, 1.0, 1.0)

#: Rectangles refined together by one step loop of
#: :func:`decompose_batch`: enough to amortise numpy dispatch, few enough
#: to keep the working set small.
BATCH_BLOCK = 4096

_CORNERS = attrgetter("xlo", "ylo", "xhi", "yhi")


def _spread(v: int) -> int:
    """Spread the low 16 bits of ``v`` to the even bit positions.

    Pure bit arithmetic, so it (and :func:`interleave`) also maps an
    int64 numpy column elementwise, leaving the input untouched.
    """
    v = v & 0xFFFF
    v = (v | (v << 8)) & 0x00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F
    v = (v | (v << 2)) & 0x33333333
    v = (v | (v << 1)) & 0x55555555
    return v


def interleave(x: int, y: int) -> int:
    """Morton code of grid cell ``(x, y)`` (x in even bits)."""
    return _spread(x) | (_spread(y) << 1)


def _quantize(coord: float, lo: float, extent: float) -> int:
    """Map a coordinate into the grid, clamped to the map."""
    cell = int((coord - lo) / extent * (1 << RESOLUTION))
    return min(max(cell, 0), (1 << RESOLUTION) - 1)


def z_point(x: float, y: float, map_area: Rect = MAP) -> int:
    """Z-value of a point of the map."""
    if map_area.width <= 0 or map_area.height <= 0:
        raise GeometryError("map area must have positive extent")
    gx = _quantize(x, map_area.xlo, map_area.width)
    gy = _quantize(y, map_area.ylo, map_area.height)
    return interleave(gx, gy)


class ZElement(NamedTuple):
    """One quadtree cell as a closed z-interval.

    ``zlo`` is the z-value of the cell's first grid point, ``zhi`` of
    its last; a cell at depth ``d`` spans ``4^(RESOLUTION-d)`` values.
    Cells nest: ``a`` overlaps ``b`` iff one interval contains the
    other.
    """

    zlo: int
    zhi: int

    def contains(self, other: "ZElement") -> bool:
        return self.zlo <= other.zlo and other.zhi <= self.zhi

    def overlaps(self, other: "ZElement") -> bool:
        return self.contains(other) or other.contains(self)

    @property
    def depth(self) -> int:
        """Quadtree depth of the cell (0 = whole map)."""
        span = self.zhi - self.zlo + 1
        return RESOLUTION - (span.bit_length() - 1) // 2


class _Cell(NamedTuple):
    x: int          # grid x of the cell origin, in full-resolution units
    y: int
    depth: int

    def rect(self, map_area: Rect) -> Rect:
        size = 1 << (RESOLUTION - self.depth)
        scale_x = map_area.width / (1 << RESOLUTION)
        scale_y = map_area.height / (1 << RESOLUTION)
        return Rect(
            map_area.xlo + self.x * scale_x,
            map_area.ylo + self.y * scale_y,
            map_area.xlo + (self.x + size) * scale_x,
            map_area.ylo + (self.y + size) * scale_y,
        )

    def element(self) -> ZElement:
        zlo = interleave(self.x, self.y)
        span = 1 << (2 * (RESOLUTION - self.depth))
        return ZElement(zlo, zlo + span - 1)

    def children(self):
        half = 1 << (RESOLUTION - self.depth - 1)
        d = self.depth + 1
        yield _Cell(self.x, self.y, d)
        yield _Cell(self.x + half, self.y, d)
        yield _Cell(self.x, self.y + half, d)
        yield _Cell(self.x + half, self.y + half, d)


def decompose(
    rect: Rect,
    max_elements: int = 4,
    map_area: Rect = MAP,
) -> list[ZElement]:
    """Cover ``rect`` with at most ``max_elements`` quadtree cells.

    Budgeted refinement: starting from the root cell, repeatedly split
    the largest cell that only partially overlaps the rectangle, as long
    as splitting keeps the total cell count within budget. Cells
    entirely inside the rectangle are never split. The result is sorted
    by ``zlo`` and covers the (map-clipped) rectangle completely.

    The rectangle is dilated by one grid unit before decomposition:
    rectangles are *closed* (touching counts as overlapping, the R-tree
    convention used throughout), but grid cells tile the map disjointly,
    so two merely-touching rectangles could otherwise land in disjoint
    z-intervals and the merge would miss their candidate pair. The exact
    bounding-box test after the merge removes the extra candidates the
    dilation admits.
    """
    if max_elements < 1:
        raise GeometryError("max_elements must be at least 1")
    eps_x = map_area.width / (1 << RESOLUTION)
    eps_y = map_area.height / (1 << RESOLUTION)
    dilated = Rect(
        rect.xlo - eps_x, rect.ylo - eps_y,
        rect.xhi + eps_x, rect.yhi + eps_y,
    )
    clipped = dilated.intersection(map_area)
    if clipped is None:
        return []

    root = _Cell(0, 0, 0)
    done: list[_Cell] = []      # cells fully inside the rectangle
    partial: list[_Cell] = []
    if clipped.contains(root.rect(map_area)):
        done.append(root)
    else:
        partial.append(root)

    while partial:
        # Refine the shallowest partial cell first (largest overhang).
        partial.sort(key=lambda c: c.depth)
        cell = partial[0]
        if cell.depth >= RESOLUTION:
            break
        survivors = [
            child for child in cell.children()
            if child.rect(map_area).intersects(clipped)
        ]
        if len(done) + len(partial) - 1 + len(survivors) > max_elements:
            break
        partial.pop(0)
        for child in survivors:
            if clipped.contains(child.rect(map_area)):
                done.append(child)
            else:
                partial.append(child)

    elements = [c.element() for c in done + partial]
    elements.sort()
    return elements


# --------------------------------------------------------------------- #
# Batch decomposition
# --------------------------------------------------------------------- #

class ZCover(NamedTuple):
    """The element covers of a batch of rectangles, as flat columns.

    Row ``i`` is the element ``(zlo[i], zhi[i])`` of input rectangle
    ``owner[i]``. Rows are grouped by owner in input order and sorted by
    ``zlo`` within one owner, so each rectangle's rows are the list
    :func:`decompose` returns for it. A rectangle that misses the map
    owns no rows; ``size`` is the number of input rectangles, and row
    ``k`` of the ``(size, 4)`` float64 ``corners`` is input rectangle
    ``k``'s ``(xlo, ylo, xhi, yhi)``.
    """

    owner: np.ndarray
    zlo: np.ndarray
    zhi: np.ndarray
    size: int
    corners: np.ndarray

    def lists(self) -> list[list[ZElement]]:
        """One element list per input rectangle, as :func:`decompose`."""
        out: list[list[ZElement]] = [[] for _ in range(self.size)]
        for i, zlo, zhi in zip(self.owner.tolist(), self.zlo.tolist(),
                               self.zhi.tolist()):
            out[i].append(ZElement(zlo, zhi))
        return out


def decompose_batch(
    rects: Sequence[Rect] | np.ndarray,
    max_elements: int = 4,
    map_area: Rect = MAP,
) -> ZCover:
    """:func:`decompose` for every rectangle of ``rects`` at once.

    ``rects`` is a sequence of :class:`Rect`, or their corners as an
    ``(n, 4)`` float64 array of ``(xlo, ylo, xhi, yhi)`` rows. The
    result holds, rectangle by rectangle, exactly the elements
    ``[decompose(r, max_elements, map_area) for r in rects]`` would
    return. The refinement runs over blocks of :data:`BATCH_BLOCK`
    rectangles, one pass per quadtree generation
    (:func:`_refine_block` says why that is exact); each rectangle's
    output is sorted by ``zlo``, so the order in which a pass finds its
    cells does not matter.
    """
    if max_elements < 1:
        raise GeometryError("max_elements must be at least 1")
    if isinstance(rects, np.ndarray):
        coords = rects.astype(np.float64, copy=False).reshape(-1, 4)
        n = len(coords)
    else:
        n = len(rects)
        coords = np.fromiter(
            chain.from_iterable(map(_CORNERS, rects)), np.float64, 4 * n,
        ).reshape(n, 4)
    eps_x = map_area.width / (1 << RESOLUTION)
    eps_y = map_area.height / (1 << RESOLUTION)
    # The dilated rectangle's intersection with the map, with
    # Rect.intersection's own comparisons.
    dxlo = coords[:, 0] - eps_x
    dylo = coords[:, 1] - eps_y
    dxhi = coords[:, 2] + eps_x
    dyhi = coords[:, 3] + eps_y
    xlo = np.where(dxlo >= map_area.xlo, dxlo, map_area.xlo)
    ylo = np.where(dylo >= map_area.ylo, dylo, map_area.ylo)
    xhi = np.where(dxhi <= map_area.xhi, dxhi, map_area.xhi)
    yhi = np.where(dyhi <= map_area.yhi, dyhi, map_area.yhi)
    meets_map = np.flatnonzero(~((xlo > xhi) | (ylo > yhi)))

    owners: list[np.ndarray] = []
    zlos: list[np.ndarray] = []
    zhis: list[np.ndarray] = []
    for start in range(0, meets_map.size, BATCH_BLOCK):
        block = meets_map[start:start + BATCH_BLOCK]
        owner, x, y, depth = _refine_block(
            xlo[block], ylo[block], xhi[block], yhi[block],
            max_elements, map_area,
        )
        zlo: Any = interleave(x, y)     # elementwise on int64 columns
        zhi = zlo + (np.left_shift(1, 2 * (RESOLUTION - depth)) - 1)
        # By owner, then zlo, as one int64 key (an owner indexes the
        # block, a z-value has _Z_BITS bits); one rectangle's cells are
        # disjoint, so no two keys tie.
        order = np.argsort(np.left_shift(owner, _Z_BITS) | zlo)
        owners.append(block[owner[order]])
        zlos.append(zlo[order])
        zhis.append(zhi[order])
    if not owners:
        empty = np.empty(0, dtype=np.int64)
        return ZCover(empty, empty, empty, n, coords)
    return ZCover(np.concatenate(owners), np.concatenate(zlos),
                  np.concatenate(zhis), n, coords)


def _chain_ends(
    xlo: Any, ylo: Any, xhi: Any, yhi: Any, map_area: Rect,
) -> tuple[Any, Any, Any]:
    """``(x, y, depth)`` of the deepest cell of each single-child chain.

    While a rectangle's ``partial`` queue is the one cell it met and
    exactly one child of that cell meets the rectangle, the scalar loop
    just swaps the cell for that child: the split fits any budget (one
    cell out, one in) and the child is never inside the rectangle. This
    finds where those swaps end, by bisection, at most
    :data:`RESOLUTION` steps for the whole block.

    Along one axis, a cell that meets the closed interval ``[lo, hi]``
    has both halves meeting it exactly when their shared midline ``m``
    lies in ``[lo, hi]``; otherwise only the half away from ``m`` does
    (``m < lo``: the upper half, ``m > hi``: the lower half). The
    midline is the one float both halves' rectangles use,
    ``map.xlo + (x + half) * scale_x`` in ``_Cell.rect``, so the test is
    exact on any map. With ``m`` outside on both axes exactly one child
    meets the rectangle, and its edge on the midline lies outside the
    rectangle, so it is not inside. The root cell's rectangle can miss a
    clipped rectangle on a map whose extents round; such a rectangle
    starts at the root.
    """
    n = len(xlo)
    mx, my = map_area.xlo, map_area.ylo
    scale_x = map_area.width / (1 << RESOLUTION)
    scale_y = map_area.height / (1 << RESOLUTION)
    root = _Cell(0, 0, 0).rect(map_area)
    x = np.zeros(n, dtype=np.int64)
    y = np.zeros(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    live = np.flatnonzero((root.xlo <= xhi) & (xlo <= root.xhi)
                          & (root.ylo <= yhi) & (ylo <= root.yhi))
    for d in range(RESOLUTION):
        half = 1 << (RESOLUTION - 1 - d)
        lx = x[live]
        ly = y[live]
        midx = mx + (lx + half) * scale_x
        midy = my + (ly + half) * scale_y
        right = midx < xlo[live]
        up = midy < ylo[live]
        one = (right | (midx > xhi[live])) & (up | (midy > yhi[live]))
        live = live[one]
        if not live.size:
            break
        x[live] = lx[one] + half * right[one]
        y[live] = ly[one] + half * up[one]
        depth[live] = d + 1
    return x, y, depth


def _refine_block(
    xlo: Any, ylo: Any, xhi: Any, yhi: Any, max_elements: int, map_area: Rect,
) -> tuple[Any, Any, Any, Any]:
    """:func:`decompose`'s refinement for a block of clipped rectangles.

    Returns ``(owner, x, y, depth)`` of every final cell, unsorted, with
    ``owner`` indexing the block. A rectangle's queue starts at the end
    of its single-child chain (:func:`_chain_ends`), which is where the
    scalar loop stands once it has made those splits. From there, each
    pass of :func:`_split_generation` splits one whole quadtree
    generation of every rectangle still refining. That is exact because
    the scalar loop is FIFO by depth: it refines the first cell of
    ``partial`` after a stable sort by depth, and ``partial`` is already
    in depth order, since the front cell has the smallest depth ``d``,
    every queued cell has depth ``d`` or ``d + 1``, and its children
    (depth ``d + 1``) join at the back. So at the start of a pass a
    rectangle's queue holds cells of one depth, and the scalar loop
    splits them in queue order before it reaches any of their children.
    Each pass deepens every rectangle by one, so a block makes at most
    :data:`RESOLUTION` passes.
    """
    root = _Cell(0, 0, 0).rect(map_area)
    whole = ((xlo <= root.xlo) & (ylo <= root.ylo)
             & (root.xhi <= xhi) & (root.yhi <= yhi))
    origin = np.zeros(int(whole.sum()), dtype=np.int64)
    final = [(np.flatnonzero(whole), origin, origin, origin)]
    own = np.flatnonzero(~whole)        # rectangles still refining
    cells = _queue((own, *_chain_ends(xlo[own], ylo[own], xhi[own],
                                      yhi[own], map_area)), final)
    # Cells each rectangle holds, done and partial: one to begin with.
    held = np.ones(len(xlo), dtype=np.int64)
    while cells[0].size:
        cells = _split_generation(cells, held, (xlo, ylo, xhi, yhi),
                                  max_elements, map_area, final)
    owner, x, y, depth = (np.concatenate(col) for col in zip(*final))
    return owner, x, y, depth


def _queue(cells: tuple, final: list) -> tuple:
    """The cells of ``cells = (owner, x, y, depth)`` that can still
    split; those at :data:`RESOLUTION` go to ``final``, as the scalar
    loop stops at the first of them."""
    deep = cells[3] >= RESOLUTION
    if not deep.any():
        return cells
    final.append(tuple(col[deep] for col in cells))
    keep = ~deep
    return tuple(col[keep] for col in cells)


def _split_generation(
    cells: tuple, held: Any, rect: tuple, max_elements: int, map_area: Rect,
    final: list,
) -> tuple:
    """One generation of the scalar ``while`` loop: split the queued
    cells ``(owner, x, y, depth)``, grouped by owner in queue order, of
    every rectangle still refining. Final cells go to ``final``; returns
    the next generation's queue, children in ``_Cell.children`` order
    behind their parents' queue order.

    A parent's two children on an axis share their middle edge, so the
    three edges per axis are computed once, each with ``_Cell.rect``'s
    float expression for it, and a child's closed hit and inside tests
    are the products of its per-axis tests. The scalar budget check
    before a split counts the cells the rectangle holds then, which
    includes the splits it made earlier in this pass: a running sum per
    rectangle, whose first violation stops the rectangle for good (the
    scalar ``break``); that cell and the ones after it stay partial.
    """
    own, x, y, depth = cells
    xlo, ylo, xhi, yhi = (col[own] for col in rect)
    scale_x = map_area.width / (1 << RESOLUTION)
    scale_y = map_area.height / (1 << RESOLUTION)
    half = np.left_shift(1, RESOLUTION - 1 - depth)
    ex = [map_area.xlo + grid * scale_x for grid in (x, x + half, x + 2 * half)]
    ey = [map_area.ylo + grid * scale_y for grid in (y, y + half, y + 2 * half)]
    # Lower and upper child per axis: Rect.intersects, then
    # Rect.contains on top of it.
    hx = [(ex[k] <= xhi) & (xlo <= ex[k + 1]) for k in (0, 1)]
    hy = [(ey[k] <= yhi) & (ylo <= ey[k + 1]) for k in (0, 1)]
    ix = [hx[k] & (xlo <= ex[k]) & (ex[k + 1] <= xhi) for k in (0, 1)]
    iy = [hy[k] & (ylo <= ey[k]) & (ey[k + 1] <= yhi) for k in (0, 1)]

    grow = (hx[0] + hx[1].astype(np.int64)) * (hy[0] + hy[1].astype(np.int64))
    grow -= 1
    # A rectangle's cells are consecutive; the growth of its splits so
    # far, this one included, is a running sum over them.
    first = np.ones(own.size, dtype=bool)
    first[1:] = own[1:] != own[:-1]
    starts = np.flatnonzero(first)
    run_of = np.cumsum(first) - 1
    running = np.cumsum(grow)
    running -= (running - grow)[starts][run_of]
    over = held[own] + running > max_elements
    # What each rectangle holds after the pass (read again only for
    # those that did not stop).
    ends = np.append(starts[1:], own.size) - 1
    held[own[ends]] += running[ends]
    split: Any = slice(None)
    halted: Any = None
    if over.any():
        stops = np.cumsum(over)
        stops -= (stops - over)[starts][run_of]
        split = stops == 0
        stay = ~split
        final.append((own[stay], x[stay], y[stay], depth[stay]))
        halted = own[over]
        own, x, y, depth, half = (
            col[split] for col in (own, x, y, depth, half))

    # The four children in _Cell.children order: x varies fastest.
    hit = np.stack([hx[i][split] & hy[j][split]
                    for j in (0, 1) for i in (0, 1)], axis=1)
    inside = np.stack([ix[i][split] & iy[j][split]
                       for j in (0, 1) for i in (0, 1)], axis=1)
    kids: list[tuple] = []
    for which in (inside, hit & ~inside):
        rows, cols = np.nonzero(which)
        kids.append((own[rows], x[rows] + half[rows] * (cols & 1),
                     y[rows] + half[rows] * (cols >> 1), depth[rows] + 1))
    final.append(kids[0])
    partial = kids[1]
    if halted is not None:
        # A rectangle that stopped in this pass keeps the partial
        # children of the cells it split before stopping.
        stopped = np.zeros(held.size, dtype=bool)
        stopped[halted] = True
        halt = stopped[partial[0]]
        final.append(tuple(col[halt] for col in partial))
        partial = tuple(col[~halt] for col in partial)
    return _queue(partial, final)
