"""Tests for the shared subtree-insertion machinery.

These exercise :func:`insert_into_subtree` directly, the way a seeded
tree's slots use it: a forest of independently growing roots.
"""

import pytest

from repro.config import SystemConfig
from repro.errors import TreeError
from repro.geometry import Rect
from repro.metrics import MetricsCollector
from repro.rtree.insertion import choose_subtree, insert_into_subtree, new_node
from repro.rtree.node import Entry, Node, node_mbr

from ..conftest import random_entries


class Owner:
    """Minimal duck-typed owner, as SeededTree provides."""

    def __init__(self, buffer_pages=256, page_size=104):
        from repro.kernels import kernels_enabled
        from repro.rtree.split import quadratic_split
        from repro.storage import BufferPool, DiskSimulator

        self.config = SystemConfig(page_size=page_size,
                                   buffer_pages=buffer_pages)
        self.metrics = MetricsCollector(self.config)
        self.buffer = BufferPool(
            self.config.buffer_pages, DiskSimulator(self.metrics)
        )
        self.capacity = self.config.node_capacity
        self.min_fill = self.config.node_min_fill
        self.split = quadratic_split
        self.fast = kernels_enabled()


def collect_leaf_refs(owner, root_id):
    out = []
    stack = [root_id]
    while stack:
        node = owner.buffer.peek(stack.pop()).payload
        if node.is_leaf:
            out.extend(e.ref for e in node.entries)
        else:
            stack.extend(e.ref for e in node.entries)
    return sorted(out)


class TestInsertIntoSubtree:
    def test_grows_root_on_split(self):
        owner = Owner()
        root = new_node(owner, 0, [])
        root_id = root.page_id
        ids = [root_id]
        for rect, oid in random_entries(30, seed=1):
            root_id = insert_into_subtree(owner, root_id, Entry(rect, oid))
            ids.append(root_id)
        assert root_id != ids[0]  # fan-out 4: must have grown
        assert collect_leaf_refs(owner, root_id) == list(range(30))

    def test_forest_roots_are_independent(self):
        owner = Owner()
        roots = [new_node(owner, 0, []).page_id for _ in range(3)]
        for i, (rect, oid) in enumerate(random_entries(60, seed=2)):
            slot = i % 3
            roots[slot] = insert_into_subtree(
                owner, roots[slot], Entry(rect, oid)
            )
        all_refs = []
        for root_id in roots:
            all_refs.extend(collect_leaf_refs(owner, root_id))
        assert sorted(all_refs) == list(range(60))

    def test_target_level_above_root_raises(self):
        owner = Owner()
        root = new_node(owner, 0, [])
        with pytest.raises(TreeError):
            insert_into_subtree(
                owner, root.page_id, Entry(Rect(0, 0, 1, 1), 1),
                target_level=3,
            )

    def test_parent_mbrs_exact_after_inserts(self):
        owner = Owner()
        root_id = new_node(owner, 0, []).page_id
        for rect, oid in random_entries(80, seed=3):
            root_id = insert_into_subtree(owner, root_id, Entry(rect, oid))

        def verify(page_id):
            node = owner.buffer.peek(page_id).payload
            if node.is_leaf:
                return
            for e in node.entries:
                child = owner.buffer.peek(e.ref).payload
                assert e.mbr == node_mbr(child)
                verify(e.ref)

        verify(root_id)

    def test_no_pins_leak(self):
        owner = Owner()
        root_id = new_node(owner, 0, []).page_id
        for rect, oid in random_entries(50, seed=4):
            root_id = insert_into_subtree(owner, root_id, Entry(rect, oid))
        for page_id in list(owner.buffer.resident_ids()):
            assert owner.buffer.pin_count(page_id) == 0


class TestChooseSubtree:
    def test_prefers_containing_child(self):
        owner = Owner()
        node = Node(1, [
            Entry(Rect(0, 0, 1, 1), 10),
            Entry(Rect(5, 5, 6, 6), 20),
        ])
        idx = choose_subtree(owner, node, Rect(0.2, 0.2, 0.4, 0.4))
        assert idx == 0

    def test_tie_broken_by_area(self):
        owner = Owner()
        node = Node(1, [
            Entry(Rect(0, 0, 4, 4), 10),       # contains, large
            Entry(Rect(1, 1, 2, 2), 20),       # contains, small
        ])
        idx = choose_subtree(owner, node, Rect(1.2, 1.2, 1.5, 1.5))
        assert idx == 1

    def test_counts_one_test_per_node(self):
        owner = Owner()
        node = Node(1, [Entry(Rect(0, 0, 1, 1), 1)] * 4)
        before = owner.metrics.cpu.bbox_tests
        choose_subtree(owner, node, Rect(0, 0, 1, 1))
        assert owner.metrics.cpu.bbox_tests == before + 1
