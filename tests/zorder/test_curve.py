"""Tests for the Z curve and quadtree decomposition."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Rect
from repro.zorder import curve
from repro.zorder.curve import (
    MAP,
    RESOLUTION,
    ZElement,
    _Cell,
    decompose,
    decompose_batch,
    interleave,
    z_point,
)


class TestInterleave:
    def test_origin(self):
        assert interleave(0, 0) == 0

    def test_unit_steps(self):
        assert interleave(1, 0) == 0b01
        assert interleave(0, 1) == 0b10
        assert interleave(1, 1) == 0b11

    def test_bit_interleaving(self):
        # x = 0b10, y = 0b11 -> z = y1 x1 y0 x0 = 1 1 1 0
        assert interleave(0b10, 0b11) == 0b1110

    def test_max_coordinate(self):
        top = (1 << RESOLUTION) - 1
        assert interleave(top, top) == (1 << (2 * RESOLUTION)) - 1

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1),
           st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_injective(self, x1, y1, x2, y2):
        if (x1, y1) != (x2, y2):
            assert interleave(x1, y1) != interleave(x2, y2)


class TestZPoint:
    def test_corners(self):
        assert z_point(0.0, 0.0) == 0
        assert z_point(1.0, 1.0) == (1 << (2 * RESOLUTION)) - 1

    def test_clamps_outside_map(self):
        assert z_point(-5.0, -5.0) == 0
        assert z_point(5.0, 5.0) == (1 << (2 * RESOLUTION)) - 1

    def test_quadrant_ordering(self):
        # Z order visits quadrants SW, SE, NW, NE.
        sw = z_point(0.1, 0.1)
        se = z_point(0.9, 0.1)
        nw = z_point(0.1, 0.9)
        ne = z_point(0.9, 0.9)
        assert sw < se < nw < ne

    def test_degenerate_map_rejected(self):
        with pytest.raises(GeometryError):
            z_point(0.5, 0.5, map_area=Rect(0, 0, 0, 1))


class TestZElement:
    def test_root_cell(self):
        root = _Cell(0, 0, 0).element()
        assert root == ZElement(0, (1 << (2 * RESOLUTION)) - 1)
        assert root.depth == 0

    def test_child_nesting(self):
        root = _Cell(0, 0, 0)
        for child in root.children():
            assert root.element().contains(child.element())
            assert child.element().depth == 1

    def test_sibling_intervals_disjoint_and_ordered(self):
        intervals = [c.element() for c in _Cell(0, 0, 0).children()]
        for a, b in zip(intervals, intervals[1:]):
            assert a.zhi + 1 == b.zlo

    def test_overlap_is_containment(self):
        root = _Cell(0, 0, 0).element()
        child = next(_Cell(0, 0, 0).children()).element()
        assert root.overlaps(child)
        assert child.overlaps(root)
        other = ZElement(child.zhi + 1, child.zhi + 4)
        assert not child.overlaps(other)


class TestDecompose:
    def test_whole_map_is_one_element(self):
        [element] = decompose(MAP, max_elements=8)
        assert element.depth == 0

    def test_budget_respected(self):
        rect = Rect(0.13, 0.27, 0.56, 0.61)
        for budget in (1, 4, 16, 64):
            elements = decompose(rect, max_elements=budget)
            assert 1 <= len(elements) <= budget

    def test_elements_sorted(self):
        elements = decompose(Rect(0.1, 0.1, 0.8, 0.3), max_elements=32)
        assert elements == sorted(elements)

    def test_elements_pairwise_disjoint(self):
        elements = decompose(Rect(0.2, 0.2, 0.7, 0.7), max_elements=32)
        for a, b in zip(elements, elements[1:]):
            assert a.zhi < b.zlo

    def test_outside_map_is_empty(self):
        assert decompose(Rect(5, 5, 6, 6)) == []

    def test_more_budget_means_tighter_cover(self):
        rect = Rect(0.1, 0.1, 0.35, 0.15)

        def cover_span(elements):
            return sum(e.zhi - e.zlo + 1 for e in elements)

        loose = cover_span(decompose(rect, max_elements=1))
        tight = cover_span(decompose(rect, max_elements=32))
        assert tight < loose

    def test_point_rect(self):
        elements = decompose(Rect.point(0.5, 0.5), max_elements=8)
        assert elements  # a point still gets a (dilated) cover

    def test_bad_budget_rejected(self):
        with pytest.raises(GeometryError):
            decompose(Rect(0, 0, 1, 1), max_elements=0)
        with pytest.raises(GeometryError):
            decompose_batch([Rect(0, 0, 1, 1)], max_elements=0)


def coord():
    return st.integers(0, 256).map(lambda v: v / 256.0)


@given(coord(), coord(), coord(), coord(), st.integers(1, 16))
def test_decomposition_covers_rect(x1, y1, x2, y2, budget):
    """Every grid point of the rectangle lies in some element."""
    xlo, xhi = sorted((x1, x2))
    ylo, yhi = sorted((y1, y2))
    rect = Rect(xlo, ylo, xhi, yhi)
    elements = decompose(rect, max_elements=budget)
    assert elements
    # Probe the corners and center: their z-values must be covered.
    for px, py in [(xlo, ylo), (xhi, yhi), (xlo, yhi), (xhi, ylo),
                   ((xlo + xhi) / 2, (ylo + yhi) / 2)]:
        z = z_point(px, py)
        assert any(e.zlo <= z <= e.zhi for e in elements)


@given(coord(), coord(), coord(), coord())
def test_touching_rects_share_an_element_overlap(x, y, w, h):
    """Two rectangles sharing only an edge still produce overlapping
    element covers (the dilation guarantee)."""
    cut = min(max(x, 1 / 128), 127 / 128)
    left = Rect(0.0, 0.0, cut, 1.0)
    right = Rect(cut, 0.0, 1.0, 1.0)
    a = decompose(left, max_elements=16)
    b = decompose(right, max_elements=16)
    assert any(ea.overlaps(eb) for ea in a for eb in b)


# --------------------------------------------------------------------- #
# Batch decomposition parity
# --------------------------------------------------------------------- #

#: Map areas for the parity test: the unit square, two others whose
#: grid units are exact binary fractions, and one whose extents are not,
#: so that cell edges and midlines round; its root cell's top edge
#: rounds to just below the map's.
PARITY_MAPS = (MAP, Rect(-3.0, 2.0, 5.0, 2.5), Rect(0, 0, 1000, 1000),
               Rect(0.1, 0.2, 0.7, 0.9))

#: Signed zeros, subnormals and the smallest normal, as offsets.
TINY = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        -2.2250738585072014e-308)

#: Coordinates far outside every map, which the map clips.
FAR = (-math.inf, -1e308, 1e308, math.inf)


def _cell_edge(tick: float, origin: float, extent: float) -> float:
    """Grid position ``tick`` with ``_Cell.rect``'s float expression."""
    return origin + tick * (extent / (1 << RESOLUTION))


@st.composite
def _deep_rect(draw, map_area: Rect) -> Rect:
    """A point or a one-grid-unit box at a half-unit position anywhere
    on the 2^16 grid or just past its edges. Inside the map the one-unit
    dilation ends chains by depth 14; at a corner, where the map clips
    the dilated box to under two units, chains run to depth 16."""
    half_ticks = st.one_of(st.integers(-4, 2**17 + 4), st.integers(-4, 4),
                           st.integers(2**17 - 4, 2**17 + 4))
    tx, ty = draw(half_ticks) / 2, draw(half_ticks) / 2
    w, h = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    return Rect(_cell_edge(tx, map_area.xlo, map_area.width),
                _cell_edge(ty, map_area.ylo, map_area.height),
                _cell_edge(tx + w, map_area.xlo, map_area.width),
                _cell_edge(ty + h, map_area.ylo, map_area.height))


@st.composite
def _midline_rect(draw, map_area: Rect) -> Rect:
    """A box with one edge on a midline of a cell of depth 0 to 15, on
    either axis, or one grid unit off it (where the dilated edge lands
    on the midline)."""
    depth = draw(st.integers(0, RESOLUTION - 1))
    half = 1 << (RESOLUTION - 1 - depth)
    mid = (2 * draw(st.integers(0, (1 << depth) - 1)) + 1) * half
    mid += draw(st.sampled_from((-1, 0, 1)))
    length = draw(st.integers(0, 1 << RESOLUTION))
    edge = (mid, mid + length) if draw(st.booleans()) else (mid - length, mid)
    ticks = st.integers(-8, (1 << RESOLUTION) + 8)
    cross = tuple(sorted((draw(ticks), draw(ticks))))
    (xlo, xhi), (ylo, yhi) = ((edge, cross) if draw(st.booleans())
                              else (cross, edge))
    return Rect(_cell_edge(xlo, map_area.xlo, map_area.width),
                _cell_edge(ylo, map_area.ylo, map_area.height),
                _cell_edge(xhi, map_area.xlo, map_area.width),
                _cell_edge(yhi, map_area.ylo, map_area.height))


@st.composite
def _odd_float_rect(draw, map_area: Rect) -> Rect:
    """Corners at signed zeros and subnormals (alone or added to the
    map's origin), at +-1e308 and +-inf, or one grid unit past a map
    edge (dilated onto it), mixed with grid positions."""
    def coordinate(lo: float, hi: float) -> float:
        unit = (hi - lo) / (1 << RESOLUTION)
        pick = draw(st.sampled_from(("tiny", "far", "past", "grid")))
        if pick == "tiny":
            tiny = draw(st.sampled_from(TINY))
            return tiny if draw(st.booleans()) else lo + tiny
        if pick == "far":
            return draw(st.sampled_from(FAR))
        if pick == "past":
            return draw(st.sampled_from((lo - unit, hi + unit)))
        return _cell_edge(draw(st.integers(-8, (1 << RESOLUTION) + 8)),
                          lo, hi - lo)

    xlo, xhi = sorted(coordinate(map_area.xlo, map_area.xhi)
                      for _ in range(2))
    ylo, yhi = sorted(coordinate(map_area.ylo, map_area.yhi)
                      for _ in range(2))
    return Rect(xlo, ylo, xhi, yhi)


@st.composite
def parity_rects(draw, map_area: Rect):
    """Rectangles that stress the cell tests: corners on a 1/64 grid of
    the map (edges land on cell edges, where closed tests decide which
    children survive) or on the curve's own 1/65536 grid, points,
    rectangles partly or wholly outside the map or covering all of it,
    and rectangles that end a single-child chain at every depth
    (:func:`_deep_rect`, :func:`_midline_rect`) or carry odd floats
    (:func:`_odd_float_rect`)."""
    kind = draw(st.sampled_from(("grid", "point", "whole", "outside",
                                 "deep", "midline", "odd")))
    if kind == "deep":
        return draw(_deep_rect(map_area))
    if kind == "midline":
        return draw(_midline_rect(map_area))
    if kind == "odd":
        return draw(_odd_float_rect(map_area))
    if kind == "whole":
        grow = draw(st.sampled_from((0.0, 0.5)))
        return Rect(map_area.xlo - grow * map_area.width,
                    map_area.ylo - grow * map_area.height,
                    map_area.xhi + grow * map_area.width,
                    map_area.yhi + grow * map_area.height)
    steps = draw(st.sampled_from((64, 1 << RESOLUTION)))
    lo, hi = (-steps // 4, steps + steps // 4)
    if kind == "outside":
        lo, hi = steps + 2, 2 * steps
    ticks = st.integers(lo, hi)

    def at(tick: int, origin: float, extent: float) -> float:
        return origin + tick / steps * extent

    x1, y1 = draw(ticks), draw(ticks)
    x2, y2 = (x1, y1) if kind == "point" else (draw(ticks), draw(ticks))
    xlo, xhi = sorted((x1, x2))
    ylo, yhi = sorted((y1, y2))
    return Rect(at(xlo, map_area.xlo, map_area.width),
                at(ylo, map_area.ylo, map_area.height),
                at(xhi, map_area.xlo, map_area.width),
                at(yhi, map_area.ylo, map_area.height))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_decompose_batch_equals_scalar(data):
    """Element for element, ``decompose_batch`` is the scalar loop run
    per rectangle — at every budget, on any map area, across block
    boundaries (the block size is shrunk to split small batches)."""
    map_area = data.draw(st.sampled_from(PARITY_MAPS), label="map_area")
    rects = data.draw(st.lists(parity_rects(map_area), max_size=12),
                      label="rects")
    budget = data.draw(st.integers(1, 64), label="max_elements")
    block = data.draw(st.sampled_from((1, 5, curve.BATCH_BLOCK)),
                      label="block")
    with mock.patch.object(curve, "BATCH_BLOCK", block):
        batch = decompose_batch(rects, budget, map_area)
    assert batch.size == len(rects)
    assert batch.lists() == [decompose(r, budget, map_area) for r in rects]


def test_decompose_batch_between_root_cell_and_map_edge():
    """On a map whose root cell's top edge rounds below the map's, a
    point dilated onto the map's top edge meets the map but not the
    root cell. The scalar loop splits the root, keeps no child and
    returns no element. The batch must not start it at the end of a
    chain of cells that do not meet it either: placed half a unit past
    the right edge, that chain runs to depth 16, where a cell is kept."""
    map_area = PARITY_MAPS[-1]
    root = _Cell(0, 0, 0).rect(map_area)
    x = map_area.xhi + map_area.width / (1 << RESOLUTION) / 2
    unit = map_area.height / (1 << RESOLUTION)
    y = map_area.yhi + unit
    assert root.yhi < y - unit <= map_area.yhi
    rect = Rect(x, y, x, y)
    assert decompose(rect, 4, map_area) == []
    assert decompose_batch([rect], 4, map_area).lists() == [[]]


def test_decompose_batch_of_nothing():
    batch = decompose_batch([])
    assert batch.size == 0 and batch.lists() == []


# --------------------------------------------------------------------- #
# Refinement by generation
# --------------------------------------------------------------------- #

GRID = 1 << RESOLUTION


def _ticks(x0: int, y0: int, x1: int, y1: int) -> Rect:
    """A rectangle on the unit map, corners in grid units."""
    return Rect(x0 / GRID, y0 / GRID, x1 / GRID, y1 / GRID)


def _count_passes(passes: list):
    """Spies on one block's refinement: ``passes`` gets one list per
    block, holding ``(owners in, owners handed on)`` per generation."""
    refine, split = curve._refine_block, curve._split_generation

    def refine_block(*args):
        passes.append([])
        return refine(*args)

    def split_generation(cells, *args):
        queue = split(cells, *args)
        passes[-1].append((set(cells[0].tolist()), set(queue[0].tolist())))
        return queue

    return (mock.patch.object(curve, "_refine_block", refine_block),
            mock.patch.object(curve, "_split_generation", split_generation))


def test_one_pass_stops_on_budget_and_depth_and_runs_on():
    """In the second pass of one block, at budget 8: a 40-unit box stops
    on the budget part way through its queue (it keeps a depth-11 cell
    beside split depth-12 ones, and a larger budget changes its cover),
    a point on the map's left edge reaches depth 16 (more budget changes
    nothing), and a band across the map's centre runs on. Every cover is
    the scalar loop's."""
    band = _ticks(GRID // 8, GRID // 2 - 3, 7 * GRID // 8, GRID // 2 + 3)
    point = _ticks(0, 4002, 0, 4002)
    box = _ticks(GRID // 3, GRID // 3, GRID // 3 + 40, GRID // 3 + 40)
    rects = [band, point, box]
    passes: list = []
    spy_refine, spy_split = _count_passes(passes)
    with spy_refine, spy_split:
        cover = decompose_batch(rects, 8)
    assert cover.lists() == [decompose(r, 8) for r in rects]
    [block] = passes
    assert block[1] == ({0, 1, 2}, {0})
    assert {e.depth for e in decompose(box, 8)} == {11, 12}
    assert decompose(box, 9) != decompose(box, 8)
    assert max(e.depth for e in decompose(point, 8)) == RESOLUTION
    assert decompose(point, 64) == decompose(point, 8)
    assert len(block) > 2


def test_a_block_makes_at_most_resolution_passes():
    """Each pass deepens every rectangle in the block by one generation.
    A short line through the map's centre starts at the root and, with
    budget to spare, refines to depth 16: exactly RESOLUTION passes,
    with the point and the box of the previous test in the same block."""
    line = _ticks(GRID // 2, GRID // 2 - 32, GRID // 2, GRID // 2 + 32)
    rects = [line, _ticks(0, 4002, 0, 4002),
             _ticks(GRID // 3, GRID // 3, GRID // 3 + 40, GRID // 3 + 40)]
    passes: list = []
    spy_refine, spy_split = _count_passes(passes)
    with spy_refine, spy_split:
        cover = decompose_batch(rects, 4096)
    assert cover.lists() == [decompose(r, 4096) for r in rects]
    [block] = passes
    assert len(block) == RESOLUTION
    assert max(e.depth for e in decompose(line, 4096)) == RESOLUTION


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_no_block_makes_more_than_resolution_passes(data):
    map_area = data.draw(st.sampled_from(PARITY_MAPS), label="map_area")
    rects = data.draw(st.lists(parity_rects(map_area), max_size=12),
                      label="rects")
    budget = data.draw(st.sampled_from((1, 4, 64, 4096)),
                       label="max_elements")
    passes: list = []
    spy_refine, spy_split = _count_passes(passes)
    with spy_refine, spy_split:
        decompose_batch(rects, budget, map_area)
    assert all(len(block) <= RESOLUTION for block in passes)


def test_child_edges_are_cell_rect_floats():
    """On a map whose grid unit is not a binary fraction, edges computed
    by another float expression than ``_Cell.rect``'s (a child's upper
    edge as its lower edge plus its size, say) round differently. This
    point on the map's bottom edge is one where a closed test then
    flips and the cover changes."""
    map_area = PARITY_MAPS[-1]
    rect = Rect.point(0.16562500000000002, 0.2)
    for budget in (1, 3, 4, 16):
        assert (decompose_batch([rect], budget, map_area).lists()
                == [decompose(rect, budget, map_area)])
