"""The kernels that keep callers, against their scalar twins on extreme
floats.

``quadratic_split_indices`` (the per-object split and the log-first
builder), ``intersect_indices`` (NAIVE's fast path) and ZJOIN's
``batch_merge`` are drawn coordinates at ±0.0, subnormals, ±1e308, the
float limit and ±inf, with exact ties common, at row counts on both
sides of the split's numpy PickSeeds threshold (``_SEEDS_NUMPY_MIN``,
16 rows). Areas, enlargements and wasted areas then overflow to ±inf or
NaN. Each kernel
either declines (``None``, so its caller runs the scalar loop) or
equals its scalar twin exactly. ``clipped_area_total`` (the workload
generator's cluster areas) is drawn centers and sizes from the same
values and from the window's own edges, against windows on and around
the unit map.
"""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Rect
from repro.kernels import (
    RectArray,
    clipped_area_total,
    intersect_indices,
    quadratic_split_indices,
)
from repro.kernels.batch import _SEEDS_NUMPY_MIN
from repro.rtree.node import Entry
from repro.rtree.split import check_split, quadratic_split

from ..zorder.test_zmerge import assert_merges_agree

INF = float("inf")
MAX = sys.float_info.max

#: Signed zeros, subnormals, the smallest normal, values whose sums and
#: products overflow, the float limit, infinities, and a few ordinary
#: values that repeat (exact ties).
EXTREMES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, sys.float_info.min,
    1e308, -1e308, 1.5e308, -1.5e308, MAX, -MAX, INF, -INF,
    0.25, 0.5, 1.0,
)

value = st.one_of(
    st.sampled_from(EXTREMES),
    st.integers(min_value=0, max_value=8).map(lambda v: v / 8.0),
)

#: Row counts on both sides of the PickSeeds threshold.
SIZES = st.one_of(
    st.integers(2, _SEEDS_NUMPY_MIN - 1),
    st.integers(_SEEDS_NUMPY_MIN, 76),
)


@st.composite
def boxes(draw) -> Rect:
    x0, x1 = sorted((draw(value), draw(value)))
    y0, y1 = sorted((draw(value), draw(value)))
    if draw(st.integers(0, 3)) == 0:
        x1, y1 = x0, y0     # a point
    return Rect(x0, y0, x1, y1)


@st.composite
def box_lists(draw, sizes=SIZES) -> list[Rect]:
    n = draw(sizes)
    if n == 0:
        return []
    pool = draw(st.lists(boxes(), min_size=1, max_size=n))
    # Repeats from a small pool make whole-box ties common.
    return [draw(st.sampled_from(pool)) if draw(st.booleans())
            else draw(boxes()) for _ in range(n)]


@st.composite
def split_cases(draw):
    rects = draw(box_lists())
    min_fill = draw(st.integers(1, len(rects) // 2))
    return rects, min_fill


def _refs(groups) -> tuple[list[int], list[int]]:
    a, b = groups
    return [e.ref for e in a], [e.ref for e in b]


@settings(max_examples=150, deadline=None)
@given(case=split_cases())
def test_quadratic_split_kernel_declines_or_agrees(case):
    rects, min_fill = case
    entries = [Entry(r, i) for i, r in enumerate(rects)]
    want = _refs(quadratic_split(entries, min_fill, fast=False))
    got = quadratic_split_indices(
        [r.xlo for r in rects], [r.ylo for r in rects],
        [r.xhi for r in rects], [r.yhi for r in rects], min_fill)
    assert got is None or (list(got[0]), list(got[1])) == want
    fast = quadratic_split(entries, min_fill, fast=True)
    assert _refs(fast) == want
    check_split(entries, fast, min_fill)


@settings(max_examples=150, deadline=None)
@given(rects=box_lists(), probe=boxes())
def test_intersect_indices_agrees(rects, probe):
    want = [i for i, r in enumerate(rects) if r.intersects(probe)]
    got = intersect_indices(RectArray.from_rects(rects), probe)
    assert [int(i) for i in got] == want


@settings(max_examples=100, deadline=None)
@given(
    s_rects=box_lists(st.integers(0, 24)),
    r_rects=box_lists(st.integers(0, 24)),
    shared=st.integers(0, 6),
    budget=st.sampled_from((1, 4, 16)),
)
def test_batch_merge_agrees(s_rects, r_rects, shared, budget):
    # Equal rectangles across the files meet in equal cells.
    r_rects = r_rects + s_rects[:shared]
    s = [(rect, i) for i, rect in enumerate(s_rects)]
    r = [(rect, 10_000 + i) for i, rect in enumerate(r_rects)]
    assert_merges_agree(s, r, budget)


#: Windows on and around the unit map: the map itself, one that ends
#: where it begins, and windows out to the float limit and to infinity.
WINDOWS = (
    Rect(0.0, 0.0, 1.0, 1.0), Rect(-1.0, -1.0, 0.0, 0.0),
    Rect(-1e308, -1e308, 1e308, 1e308), Rect(-MAX, -MAX, MAX, MAX),
    Rect(-INF, -INF, INF, INF),
)


@st.composite
def cluster_cases(draw):
    """Centers at the extremes or on the window's edges, sizes at the
    extremes (negative ones included), and a scale."""
    window = draw(st.sampled_from(WINDOWS))
    edges = (window.xlo, window.ylo, window.xhi, window.yhi)
    center = st.one_of(value, st.sampled_from(edges),
                       st.sampled_from(EXTREMES).map(lambda v: -v))
    size = st.one_of(value, st.sampled_from(EXTREMES))
    n = draw(st.integers(1, 6))
    columns = [[draw(axis) for _ in range(n)]
               for axis in (center, center, size, size)]
    scale = draw(st.sampled_from((1.0, 0.5, 3.0, 1e-300, 1e300)))
    return (*columns, scale, window)


def _scalar_clipped_total(cx, cy, w, h, scale, window):
    """The scalar chain summed left to right; ``None`` when a cluster
    falls outside the window, ``GeometryError`` when one is malformed."""
    total = 0
    for k in range(len(cx)):
        clipped = Rect.from_center(
            cx[k], cy[k], w[k] * scale, h[k] * scale).clipped_to(window)
        if clipped is None:
            return None
        total += clipped.area()
    return total


@settings(max_examples=300, deadline=None)
@given(case=cluster_cases())
def test_clipped_area_total_declines_or_agrees(case):
    try:
        want = _scalar_clipped_total(*case)
    except GeometryError:
        want = GeometryError
    got = clipped_area_total(*case)
    if got is None or want is None:
        assert want in (None, GeometryError) or got is None
        return
    assert want is not GeometryError, f"kernel gave {got} for a malformed box"
    assert got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("case", (
    # A negative size so small that halving it rounds to -0.0.
    ([0.0], [0.0], [0.0], [-5e-324], 1.0, WINDOWS[0]),
    # A center and a size at infinity: the low corner is inf - inf.
    ([INF], [0.5], [INF], [0.1], 1.0, WINDOWS[-1]),
))
def test_clipped_area_total_declines_where_the_scalar_chain_raises(case):
    with pytest.raises(GeometryError):
        _scalar_clipped_total(*case)
    assert clipped_area_total(*case) is None


def test_clipped_area_total_adds_left_to_right():
    """Two areas of half an ulp of the first one vanish one by one, as
    the scalar chain adds them; a compensated sum (``sum()`` from
    Python 3.12 on) would keep them."""
    case = ([0.5] * 3, [0.5] * 3, [1.0, 2.0**-26, 2.0**-26],
            [1.0, 2.0**-27, 2.0**-27], 1.0, WINDOWS[0])
    assert _scalar_clipped_total(*case) == 1.0
    assert clipped_area_total(*case) == 1.0
