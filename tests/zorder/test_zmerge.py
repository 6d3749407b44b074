"""The vectorized z-merge against the stack merge, and the z-file's
allocation footprint.

``batch_merge`` must reproduce ``stack_merge`` exactly on the same
z-files: the same sorted pairs, the same ``xy_tests``/``bbox_tests``
increments and the same disk charges. The generator aims at the cases
the counting argument rests on: cells nested at every depth, equal cells
across the two files (ties go to S), duplicate rectangles under new
oids, point rectangles, rectangles off the map, empty files and oids
beyond int64.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.geometry import Rect
from repro.join.zjoin import batch_merge, stack_merge
from repro.metrics import MetricsCollector, Phase
from repro.storage import DiskSimulator
from repro.zorder import ZFile
from repro.zorder.curve import RESOLUTION

from ..conftest import random_entries

CFG = SystemConfig(page_size=512, buffer_pages=128)

#: Grid points per map side.
GRID = 1 << RESOLUTION


def cell_rect(depth: int, cx: int, cy: int) -> Rect:
    """A rectangle whose one-element cover is the depth-``depth`` cell
    ``(cx, cy)``: inset two grid units, it still crosses the cell's
    midlines after the one-unit dilation, so no child cell covers it."""
    size = GRID >> depth
    x, y = cx * size, cy * size
    return Rect((x + 2) / GRID, (y + 2) / GRID,
                (x + size - 2) / GRID, (y + size - 2) / GRID)


@st.composite
def z_rects(draw) -> Rect:
    kind = draw(st.sampled_from(("cell", "point", "free", "off")))
    if kind == "cell":
        depth = draw(st.integers(0, RESOLUTION - 2))
        cells = 1 << depth
        return cell_rect(depth, draw(st.integers(0, cells - 1)),
                         draw(st.integers(0, cells - 1)))
    if kind == "point":
        return Rect.point(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))
    # "free" straddles the map's edges, "off" may miss the map entirely.
    span = (-0.25, 1.25) if kind == "free" else (-3.0, 4.0)
    xs = sorted(draw(st.floats(*span)) for _ in range(2))
    ys = sorted(draw(st.floats(*span)) for _ in range(2))
    return Rect(xs[0], ys[0], xs[1], ys[1])


@st.composite
def merge_inputs(draw):
    s_rects = draw(st.lists(z_rects(), max_size=24))
    r_rects = draw(st.lists(z_rects(), max_size=24))
    # Equal cells across the two files: R repeats some of S's rectangles.
    if s_rects:
        r_rects += draw(st.lists(st.sampled_from(s_rects), max_size=6))
    # Duplicate rectangles under new oids within each file.
    if s_rects:
        s_rects += draw(st.lists(st.sampled_from(s_rects), max_size=4))
    if r_rects:
        r_rects += draw(st.lists(st.sampled_from(r_rects), max_size=4))
    base = draw(st.sampled_from((0, 2**63, 2**64 + 7)))
    budget = draw(st.sampled_from((1, 4, 16)))
    s = [(rect, base + i) for i, rect in enumerate(s_rects)]
    r = [(rect, base + 10_000 + i) for i, rect in enumerate(r_rects)]
    return s, r, budget


def run_merge(merge, s, r, budget):
    """Both z-files on a fresh disk, then one merge in the match phase:
    the pairs, the CPU charges and the match-phase disk counters."""
    metrics = MetricsCollector(CFG)
    disk = DiskSimulator(metrics)
    zfile_s = ZFile.build(disk, CFG, s, max_elements=budget, fast=True)
    zfile_r = ZFile.build(disk, CFG, r, max_elements=budget, fast=True)
    disk.reset_arm()
    with metrics.phase(Phase.MATCH):
        pairs = merge(zfile_s, zfile_r, metrics)
    io = metrics.io_for(Phase.MATCH)
    return (pairs, metrics.cpu.xy_tests, metrics.cpu.bbox_tests,
            (io.random_reads, io.sequential_reads,
             io.random_writes, io.sequential_writes))


def assert_merges_agree(s, r, budget):
    want = run_merge(stack_merge, s, r, budget)
    got = run_merge(batch_merge, s, r, budget)
    assert got == want
    return want


@settings(max_examples=150, deadline=None)
@given(merge_inputs())
def test_batch_merge_equals_stack_merge(inputs):
    assert_merges_agree(*inputs)


@pytest.mark.parametrize("budget", (1, 4, 16))
def test_nesting_at_every_depth(budget):
    """A chain of cells in each file, nested from the whole map down to
    the deepest inset cell, plus in S a second chain at the map's
    x-midpoint: every cell contains every deeper one of its chain,
    across the files, and equal cells meet at every depth."""
    depths = range(RESOLUTION - 1)
    s = [(cell_rect(d, 0, 0), d) for d in depths]
    s += [(cell_rect(d, 1 << (d - 1), 0), 100 + d) for d in depths if d]
    r = [(cell_rect(d, 0, 0), 1000 + d) for d in reversed(depths)]
    pairs, xy, bbox, _ = assert_merges_agree(s, r, budget)
    assert pairs and xy == bbox >= len(s)


@pytest.mark.parametrize("sides", ("s", "r", "both"))
def test_empty_files(sides):
    entries = random_entries(40, seed=41, side=0.1)
    s = [] if sides in ("s", "both") else entries
    r = [] if sides in ("r", "both") else entries
    pairs, xy, bbox, io = assert_merges_agree(s, r, 4)
    assert pairs == [] and xy == bbox == 0
    assert (sum(io) == 0) == (sides == "both")


def test_fast_build_allocates_per_page_not_per_element():
    """The fast build keeps entries in numpy columns: a page adds two
    objects the garbage collector tracks (the page and its slice of the
    file's run), not two per element as a list of ZEntry rows did."""
    entries = random_entries(500, seed=31, side=0.05)
    disk = DiskSimulator(MetricsCollector(CFG))
    ZFile.build(disk, CFG, entries, fast=True)      # warm any lazy state
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        zfile = ZFile.build(disk, CFG, entries, fast=True)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert zfile.num_entries > 4 * zfile.num_pages
    assert added <= 2 * zfile.num_pages + 16
