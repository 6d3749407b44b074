"""The kernels that keep callers, against their scalar twins on extreme
floats.

``quadratic_split_indices`` (the per-object split and the log-first
builder), ``intersect_indices`` (NAIVE's fast path) and ZJOIN's
``batch_merge`` are drawn coordinates at ±0.0, subnormals, ±1e308, the
float limit and ±inf, with exact ties common, on both column
representations and on both sides of the size thresholds
(``NUMPY_MIN_N``, and the split's numpy PickSeeds at 16 rows). Areas,
enlargements and wasted areas then overflow to ±inf or NaN. Each kernel
either declines (``None``, so its caller runs the scalar loop) or
equals its scalar twin exactly.
"""

from __future__ import annotations

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.kernels import (
    NUMPY_MIN_N,
    RectArray,
    intersect_indices,
    quadratic_split_indices,
)
from repro.kernels.batch import _SEEDS_NUMPY_MIN
from repro.rtree.node import Entry
from repro.rtree.split import check_split, quadratic_split

from ..zorder.test_zmerge import assert_merges_agree

BACKENDS = ("numpy", "python")
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

#: Row counts on both sides of each threshold.
SIZES = st.one_of(
    st.integers(2, _SEEDS_NUMPY_MIN - 1),
    st.integers(_SEEDS_NUMPY_MIN, NUMPY_MIN_N - 1),
    st.integers(NUMPY_MIN_N, NUMPY_MIN_N + 12),
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
    for backend in BACKENDS:
        got = quadratic_split_indices(
            RectArray.from_rects(rects, backend=backend), min_fill)
        assert got is None or (list(got[0]), list(got[1])) == want
    fast = quadratic_split(entries, min_fill, fast=True)
    assert _refs(fast) == want
    check_split(entries, fast, min_fill)


@settings(max_examples=150, deadline=None)
@given(rects=box_lists(), probe=boxes())
def test_intersect_indices_agrees(rects, probe):
    want = [i for i, r in enumerate(rects) if r.intersects(probe)]
    for backend in BACKENDS:
        got = intersect_indices(RectArray.from_rects(rects, backend=backend),
                                probe)
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
