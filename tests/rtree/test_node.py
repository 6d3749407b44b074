"""Tests for node/entry primitives."""

import pytest

from repro.errors import GeometryError
from repro.geometry import Rect
from repro.rtree.node import Entry, Node, node_mbr


class TestEntry:
    def test_defaults(self):
        e = Entry(Rect(0, 0, 1, 1), 7)
        assert e.ref == 7
        assert e.shadow is None
        assert e.touched is False

    def test_shadow_field(self):
        shadow = Rect(0, 0, 2, 2)
        e = Entry(Rect(0, 0, 1, 1), 7, shadow=shadow)
        assert e.shadow is shadow

    def test_repr(self):
        e = Entry(Rect(0, 0, 1, 1), 42)
        assert "42" in repr(e)


class TestNode:
    def test_leaf_detection(self):
        assert Node(level=0).is_leaf
        assert not Node(level=1).is_leaf

    def test_len(self):
        n = Node(0, [Entry(Rect(0, 0, 1, 1), 1)])
        assert len(n) == 1

    def test_default_entries_are_independent(self):
        a, b = Node(0), Node(0)
        a.entries.append(Entry(Rect(0, 0, 1, 1), 1))
        assert len(b) == 0

    def test_unmaterialised_page_id(self):
        assert Node(0).page_id == -1


class TestMbrHelpers:
    def test_node_mbr(self):
        n = Node(0, [
            Entry(Rect(0, 0, 1, 1), 1),
            Entry(Rect(4, 4, 5, 6), 2),
        ])
        assert node_mbr(n) == Rect(0, 0, 5, 6)

    def test_empty_node_mbr_raises(self):
        with pytest.raises(GeometryError):
            node_mbr(Node(0))
