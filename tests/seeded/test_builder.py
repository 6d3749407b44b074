"""The log-first builder against the per-object build it replaces.

:mod:`repro.seeded.builder` computes a join-time tree off the buffer and
drives the pool with one effect log. Its contract is that nothing
observable differs from the per-object scalar build
(``REPRO_KERNELS=0``): twin workspaces, one built each way, must agree
on every CostSummary field, every per-phase disk counter, the buffer's
statistics and its exact resident state (frames in eviction order, pins,
dirty bits), the disk's allocation and arm, every page image the build
left behind (levels, refs, bit-exact MBR floats, ``touched`` flags, list
pages), every field of the finished tree, and the pairs and costs of a
match that follows. The builder's tree also carries a snapshot equal to
a fresh pack, and passes the sanitizer's tree checks (sanitized joins
build log-first too; this checks every drawn input, not just the
differential suite's workloads). The same holds for the workspace's
set-up build of ``T_R`` (:meth:`Workspace.install_rtree`), which runs
the R-tree builder over plain entries on the fast path.

Inputs favour the corners where a rewrite goes wrong: duplicate boxes,
points, touching edges, ±0.0, and coordinates near the float limit whose
enlargements overflow to ±inf or NaN.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import Sanitizer, packed_snapshot
from repro.config import SystemConfig
from repro.geometry import Rect
from repro.join.batch import column_tree_of, snapshot_record
from repro.join.matching import match_trees
from repro.join.two_seeded import grid_boxes
from repro.metrics import Phase
from repro.rtree import RTree
from repro.rtree.node import Node
from repro.rtree.split import linear_split, quadratic_split
from repro.seeded import CopyStrategy, SeededTree, UpdatePolicy
from repro.seeded.builder import build_rtree, build_seeded_tree
from repro.storage.datafile import DataPageRecord
from repro.workspace import Workspace

#: Fanout 4 (tall trees from few objects), fanout 6, and a 101-entry
#: page that puts 70 artificial seeds in one node.
CONFIGS = (
    SystemConfig(page_size=104, buffer_pages=16),
    SystemConfig(page_size=144, buffer_pages=24),
    SystemConfig(page_size=2048, buffer_pages=16),
)

#: Grid values with duplicates and touching edges, signed zeros, and
#: values near the float limit whose sums and products overflow.
VALUES = (
    0.0, -0.0, 0.25, 0.5, 0.75, 1.0, 0.5, 0.125,
    1.5e308, -1.5e308, 1.7e308, -1.7e308, 1e200, -1e200,
)

value = st.one_of(
    st.integers(min_value=0, max_value=64).map(lambda v: v / 64.0),
    st.sampled_from(VALUES),
)


@st.composite
def boxes(draw) -> Rect:
    x0, x1 = sorted((draw(value), draw(value)))
    y0, y1 = sorted((draw(value), draw(value)))
    if draw(st.booleans()):
        x1, y1 = x0, y0   # a point
    return Rect(x0, y0, x1, y1)


@st.composite
def cases(draw) -> dict:
    n_r = draw(st.integers(min_value=12, max_value=50))
    rects_r = draw(st.lists(boxes(), min_size=n_r, max_size=n_r))
    rects_s = draw(st.lists(boxes(), min_size=0, max_size=60))
    seeding = draw(st.sampled_from(("tree", "grid", "sample", "rtj")))
    case = dict(
        config=draw(st.sampled_from(CONFIGS)),
        entries_r=[(r, i) for i, r in enumerate(rects_r)],
        entries_s=[(r, 10_000 + i) for i, r in enumerate(rects_s)],
        seeding=seeding,
        split=draw(st.sampled_from((quadratic_split, linear_split))),
        kwargs=dict(
            copy_strategy=draw(st.sampled_from(tuple(CopyStrategy))),
            update_policy=draw(st.sampled_from(tuple(UpdatePolicy))),
            use_linked_lists=draw(st.sampled_from((None, True, False))),
        ),
    )
    if seeding == "tree":
        case["kwargs"].update(
            seed_levels=draw(st.integers(min_value=1, max_value=3)),
            filtering=draw(st.booleans()),
        )
    elif seeding == "grid":
        case["boxes"] = grid_boxes(Rect(0.0, 0.0, 1.0, 1.0),
                                   draw(st.integers(1, 9)))
    elif seeding == "sample":
        case["boxes"] = draw(st.lists(boxes(), min_size=1, max_size=70))
    return case


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _box(r: Rect | None):
    return None if r is None else tuple(map(_bits, r.as_tuple()))


def _image(payload) -> tuple:
    if isinstance(payload, Node):
        return ("node", payload.page_id, payload.level, [
            (_box(e.mbr), e.ref, e.touched, _box(e.shadow))
            for e in payload.entries
        ])
    assert isinstance(payload, DataPageRecord)
    return ("list", payload.next_page_id,
            [(_box(r), oid) for r, oid in payload.entries])


def _tree_fields(tree) -> tuple:
    if isinstance(tree, RTree):
        return ("rtree", tree.root_id, len(tree), tree.mutations,
                tree.height, tree.name)
    return (
        "seeded", tree.phase, tree.root_id, tree.mutations,
        tree.seed_levels, len(tree), tree.filtered_count,
        tree._list_batches, tree._list_pages_flushed, tree._lists,
        tree._seed_page_ids, tree.stats(), tree.name,
        [(s.index, s.root_id, s.count, s.root_level, _box(s.true_mbr))
         for s in tree._slots],
    )


def _state(ws: Workspace, tree, start: int) -> dict:
    """Everything a build can leave behind, compared bit for bit."""
    disk = ws.disk
    stats = ws.buffer.stats
    pages = []
    for page_id in range(start, disk.allocated_pages):
        page = ws.buffer.peek(page_id) or disk.peek(page_id)
        pages.append(None if page is None else _image(page.payload))
    return dict(
        summary=ws.metrics.summary(),
        io={phase: asdict(ws.metrics.io_for(phase)) for phase in Phase},
        buffer=(stats.hits, stats.misses, stats.evictions,
                stats.dirty_writebacks, ws.buffer.audit_frames()),
        disk=(disk.allocated_pages, disk.written_pages, disk._last_accessed),
        pages=pages,
        tree=_tree_fields(tree),
    )


def _build(case: dict, log_first: bool):
    """One twin: set up, build one way, then match against ``T_R``."""
    ws = Workspace(case["config"])
    tree_r = ws.install_rtree(case["entries_r"])
    file_s = ws.install_datafile(case["entries_s"])
    ws.start_measurement()
    start = ws.disk.allocated_pages
    seeding, kwargs = case["seeding"], case["kwargs"]
    try:
        with ws.metrics.phase(Phase.CONSTRUCT):
            if seeding == "rtj":
                if log_first:
                    tree = build_rtree(ws.buffer, ws.config, ws.metrics,
                                       file_s, split=case["split"],
                                       name="T")
                else:
                    tree = RTree.build(ws.buffer, ws.config, file_s.scan(),
                                       ws.metrics, split=case["split"],
                                       name="T", fast=False)
            elif log_first:
                tree, _ = build_seeded_tree(
                    ws.buffer, ws.config, ws.metrics, file_s,
                    tree_r if seeding == "tree" else case["boxes"],
                    split=case["split"], name="T", **kwargs,
                )
            else:
                tree = SeededTree(ws.buffer, ws.config, ws.metrics,
                                  split=case["split"], name="T",
                                  fast=False, **kwargs)
                if seeding == "tree":
                    tree.seed(tree_r)
                else:
                    tree.seed_from_boxes(case["boxes"])
                tree.grow_from(file_s)
                tree.cleanup()
    except Exception as exc:  # both twins must fail alike, before any I/O
        return ("raised", type(exc), str(exc), ws.metrics.summary(),
                ws.disk.allocated_pages), None
    built = _state(ws, tree, start)
    try:
        with ws.metrics.phase(Phase.MATCH):
            # The builder's tree matches on the batch path, through the
            # snapshot it was handed; its twin runs the scalar TM.
            pairs = match_trees(tree, tree_r, ws.metrics, fast=log_first)
    except Exception as exc:  # a buffer too small to pin both paths
        pairs = ("raised", type(exc), str(exc))
    return (built, pairs, _state(ws, tree, start)), tree


def _check(case: dict) -> None:
    want, _ = _build(case, log_first=False)
    got, tree = _build(case, log_first=True)
    assert got == want
    if tree is not None:
        assert column_tree_of(tree).differs_from(packed_snapshot(tree)) is None
        Sanitizer().check_tree(tree, "log-first build")


@settings(max_examples=80, deadline=None)
@given(case=cases())
def test_builder_matches_the_per_object_build(case):
    _check(case)


@contextmanager
def _kernels(flag: str):
    previous = os.environ.get("REPRO_KERNELS")
    os.environ["REPRO_KERNELS"] = flag
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_KERNELS", None)
        else:
            os.environ["REPRO_KERNELS"] = previous


def _install(case: dict, flag: str):
    """One set-up twin: ``Workspace.install_rtree`` under ``flag``."""
    with _kernels(flag):
        ws = Workspace(case["config"])
        start = ws.disk.allocated_pages
        try:
            tree = ws.install_rtree(case["entries"], split=case["split"])
        except Exception as exc:  # both twins must fail alike
            return ("raised", type(exc), str(exc), ws.metrics.summary(),
                    ws.disk.allocated_pages), None
    return _state(ws, tree, start), tree


@st.composite
def set_up_cases(draw) -> dict:
    rects = draw(st.lists(boxes(), min_size=0, max_size=80))
    first_oid = draw(st.sampled_from((0, 2**63)))
    return dict(
        config=draw(st.sampled_from(CONFIGS)),
        entries=[(r, first_oid + i) for i, r in enumerate(rects)],
        split=draw(st.sampled_from((quadratic_split, linear_split))),
    )


@settings(max_examples=60, deadline=None)
@given(case=set_up_cases())
def test_install_rtree_matches_the_per_object_build(case):
    """The workspace's set-up build of ``T_R`` runs log-first on the fast
    path: the same page images, buffer frames, counters and tree fields
    as the per-object build under ``REPRO_KERNELS=0``, and a carried
    snapshot equal to a fresh pack (``None`` when an oid does not fit
    int64)."""
    want, scalar = _install(case, "0")
    got, tree = _install(case, "1")
    assert got == want
    if tree is None:
        return
    assert snapshot_record(scalar) is None
    record = snapshot_record(tree)
    assert record.carried
    assert record.stamp == (tree.mutations, tree.root_id)
    fresh = packed_snapshot(tree)
    if fresh is None:
        assert record.snapshot is None
    else:
        assert record.snapshot.differs_from(fresh) is None
    Sanitizer().check_tree(tree, "set-up build")


@pytest.mark.parametrize("n", (8, 70))
def test_builder_nan_center_distance(n):
    """Artificial point seeds, one at (1.5e308, -1.5e308), probed by a
    point at x=1.7e308: that seed's center distance is inf - inf = NaN
    and every other one is inf. The scalar seed loop keeps seed 0."""
    seeds = [Rect.point(i / 128.0, i / 128.0) for i in range(n)]
    seeds[5] = Rect.point(1.5e308, -1.5e308)
    probes = [Rect.point(1.7e308, 0.0), Rect(0.25, 0.25, 0.5, 0.5)]
    for policy in (UpdatePolicy.NONE, UpdatePolicy.ENCLOSE_DATA_ONLY):
        _check(dict(
            config=CONFIGS[2],
            entries_r=[(Rect(i / 64.0, 0.0, i / 64.0, 0.5), i)
                       for i in range(40)],
            entries_s=[(r, 10_000 + i) for i, r in enumerate(probes)],
            seeding="sample", boxes=seeds, split=quadratic_split,
            kwargs=dict(copy_strategy=CopyStrategy.MBR,
                        update_policy=policy, use_linked_lists=False),
        ))
