"""Snapshot assembly under write batches.

:func:`repro.join.batch.column_tree_of` assembles a tree's next
columnar snapshot from its previous one, re-reading only the nodes
that are new or carry an edit tick from after it. This property drives
small-page trees through random write batches — root splits under both
split functions, deletes that condense and re-insert, shrink the root
or empty the tree, and object ids beyond int64 that leave the tree
without a snapshot — from every kind of base: a packed one, one carried
by the log-first R-tree or seeded-tree builder, and one carried by
construction replay (page ids shifted). After every batch the snapshot
must equal a fresh pack bit for bit, dtypes and digest included, and
must have re-read exactly the nodes that are new or were edited.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import Sanitizer, packed_snapshot
from repro.config import SystemConfig
from repro.geometry import Rect
from repro.join.batch import column_tree_of, snapshot_record
from repro.rtree import RTree
from repro.rtree.split import linear_split, quadratic_split
from repro.seeded.builder import build_rtree, build_seeded_tree
from repro.seeded.replay import replay_recording
from repro.workspace import Workspace

from ..conftest import random_entries

CFG = SystemConfig(page_size=128, buffer_pages=64)
BIG_OID = 2**63


@st.composite
def grid_rects(draw):
    x, y = draw(st.integers(0, 63)), draw(st.integers(0, 63))
    w, h = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return Rect(x / 64, y / 64, (x + w) / 64, (y + h) / 64)


write_ops = st.one_of(
    st.tuples(st.just("insert"), grid_rects()),
    st.tuples(st.just("insert"), grid_rects()),
    st.tuples(st.just("delete"), st.integers(0, 1000)),
    st.tuples(st.just("delete"), st.integers(0, 1000)),
    st.tuples(st.just("big"), grid_rects()),
    st.tuples(st.just("clear"), st.none()),
)


class _Writer:
    """Applies write ops to an R-tree or a retained seeded tree."""

    def __init__(self, tree, live: dict):
        self.tree = tree
        self.live = live
        self.next_oid = 10_000
        seeded = hasattr(tree, "insert_retained")
        self.insert = tree.insert_retained if seeded else tree.insert
        self.delete = tree.delete_retained if seeded else tree.delete

    def apply(self, kind, arg) -> None:
        if kind in ("insert", "big"):
            oid = self.next_oid + (BIG_OID if kind == "big" else 0)
            self.next_oid += 1
            self.insert(arg, oid)
            self.live[oid] = arg
        elif kind == "delete" and self.live:
            oid = sorted(self.live)[arg % len(self.live)]
            assert self.delete(self.live.pop(oid), oid)
        elif kind == "clear":
            for oid in sorted(self.live):
                assert self.delete(self.live.pop(oid), oid)


def _tree_from(base: str, split, data: list):
    ws = Workspace(CFG)
    if base == "packed":
        # A per-object build carries no snapshot, so this one is packed.
        tree = RTree.build(ws.buffer, CFG, data, split=split)
        column_tree_of(tree)
        return tree
    if base == "builder":
        return build_rtree(ws.buffer, CFG, ws.metrics,
                           ws.install_datafile(data), split=split)
    tree_r = ws.install_rtree(random_entries(40, seed=7, oid_start=100_000))
    tree, rec = build_seeded_tree(ws.buffer, CFG, ws.metrics,
                                  ws.install_datafile(data), tree_r,
                                  seed_levels=1, split=split)
    if base == "replay":
        tree = replay_recording(rec, ws.buffer, CFG, ws.metrics, True)
    return tree


def _check_after_write(tree, before, single_insert: bool) -> None:
    got = column_tree_of(tree)
    record = snapshot_record(tree)
    if record.stamp == before.stamp:
        assert got is before.snapshot  # nothing changed: a cache hit
        return
    want = packed_snapshot(tree)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.differs_from(want) is None
    assert not record.carried
    nodes = list(tree.iter_nodes())
    assert record.nodes == len(nodes)
    base = before.snapshot
    if base is None:
        assert record.reread == record.nodes
        return
    pages = set(base.page.tolist())
    edited = sum(1 for node in nodes
                 if node.page_id not in pages or node.tick >= before.tick)
    assert record.reread == edited
    if single_insert and int(base.is_leaf.sum()) >= 2:
        # The insert edits one leaf and its path; every other leaf
        # keeps its rows.
        assert record.reread < record.nodes


@settings(max_examples=60, deadline=None)
@given(
    base=st.sampled_from(("packed", "builder", "seeded", "replay")),
    split=st.sampled_from((quadratic_split, linear_split)),
    n0=st.integers(1, 60),
    seed=st.integers(0, 2**16),
    batches=st.lists(st.lists(write_ops, min_size=1, max_size=6),
                     min_size=1, max_size=6),
)
def test_assembled_snapshot_equals_a_fresh_pack(base, split, n0, seed,
                                               batches):
    data = random_entries(n0, seed=seed, side=0.08)
    tree = _tree_from(base, split, data)
    record = snapshot_record(tree)
    assert record.carried == (base != "packed")
    Sanitizer.check_snapshot(tree, "base")
    writer = _Writer(tree, {oid: rect for rect, oid in data})
    for batch in batches:
        before = snapshot_record(tree)
        for kind, arg in batch:
            writer.apply(kind, arg)
        _check_after_write(
            tree, before, [kind for kind, _ in batch] == ["insert"])
        Sanitizer.check_snapshot(tree, "after a write batch")
