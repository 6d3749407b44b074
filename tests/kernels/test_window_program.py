"""BFJ's lowered window program is the scalar traversal, step for step.

:func:`repro.join.batch.window_join_batch` replays one precomputed
program: the pages the scalar ``window_query`` loop would fetch, the
bbox tests it would charge at each of those reads, and the pairs it
would emit. Totals (the ``CostSummary``, buffer hits and misses) are
pinned by the differential suite; this property pins the sequence.
Small-page R-trees of height 1 to 4 and an empty tree are probed with
batches of windows that meet nothing, cover the whole map, repeat an
earlier window, or have zero area on an edge of a data rectangle (so
on an edge of every node MBR built from it), where the closed
intersection test decides which children are visited.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.geometry import Rect
from repro.join.batch import window_join_batch
from repro.rtree.query import window_query
from repro.workspace import Workspace

from ..strategies import small_rects

CFG = SystemConfig(page_size=128, buffer_pages=8)


@st.composite
def windows(draw, data: list):
    kind = draw(st.sampled_from(
        ("small", "any", "nothing", "whole", "edge", "corner")))
    if kind == "small":
        return draw(small_rects())
    if kind == "any":
        x1, x2 = sorted(draw(st.floats(-0.2, 1.2)) for _ in range(2))
        y1, y2 = sorted(draw(st.floats(-0.2, 1.2)) for _ in range(2))
        return Rect(x1, y1, x2, y2)
    if kind == "nothing":
        return Rect(2.0, 2.0, 3.0, 2.5)
    if kind == "whole":
        return Rect(-1.0, -1.0, 2.0, 2.0)
    if not data:
        return Rect(0.5, 0.5, 0.5, 0.5)
    rect, _ = data[draw(st.integers(0, len(data) - 1))]
    if kind == "corner":
        return Rect(rect.xhi, rect.yhi, rect.xhi, rect.yhi)
    # A zero-width window on the rectangle's left or right edge.
    x = draw(st.sampled_from((rect.xlo, rect.xhi)))
    return Rect(x, rect.ylo, x, rect.yhi)


@st.composite
def probes(draw):
    """A small-page R-tree's data and a batch of (window, oid) rows."""
    low = draw(st.sampled_from((0, 10, 40, 100)))     # heights 1 to 4
    data = draw(st.lists(small_rects(), min_size=low, max_size=low + 20)
                .map(lambda rs: [(r, i) for i, r in enumerate(rs)]))
    batch = draw(st.lists(windows(data), max_size=40))
    if batch:
        # Duplicate windows: the same rectangle asked again later.
        for i in draw(st.lists(st.integers(0, len(batch) - 1), max_size=4)):
            batch.append(batch[i])
    base = draw(st.sampled_from((0, -(2**63), 2**63 - 1 - len(batch))))
    return data, [(w, base + i) for i, w in enumerate(batch)]


def _scalar(tree, rows):
    """What the scalar BFJ loop fetches, charges per read, and emits."""
    pages, weights, pairs = [], [], []
    fetch = tree.buffer.fetch
    count = tree.metrics.count_bbox_tests

    def fetch_spy(page_id, *args, **kwargs):
        pages.append(page_id)
        return fetch(page_id, *args, **kwargs)

    def count_spy(n):
        weights.append(n)
        return count(n)

    tree.buffer.fetch = fetch_spy
    tree.metrics.count_bbox_tests = count_spy
    try:
        for rect, oid_s in rows:
            for oid_r in window_query(tree, rect):
                pairs.append((oid_s, oid_r))
    finally:
        del tree.buffer.fetch
        del tree.metrics.count_bbox_tests
    return pages, weights, pairs


def _lowered(tree, rows):
    """The program ``window_join_batch`` replays, and its pairs."""
    runs = []
    fetch_run = tree.buffer.fetch_run

    def run_spy(page_ids, weights, cpu):
        runs.append((list(page_ids), list(weights)))
        return fetch_run(page_ids, weights, cpu)

    tree.buffer.fetch_run = run_spy
    try:
        pairs = window_join_batch(rows, tree)
    finally:
        del tree.buffer.fetch_run
    assert pairs is not None and len(runs) == 1
    return runs[0][0], runs[0][1], pairs


@settings(max_examples=120, deadline=None)
@given(probes())
def test_window_program_is_the_scalar_traversal(probe):
    data, rows = probe
    ws = Workspace(CFG)
    tree = ws.install_rtree(data)
    assert 1 <= tree.height <= 4
    expected = _scalar(tree, rows)
    pages, weights, pairs = _lowered(tree, rows)
    assert pages == expected[0]
    assert weights == expected[1]
    assert pairs == expected[2]
