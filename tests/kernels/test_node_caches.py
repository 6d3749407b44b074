"""The node-MBR memo and the edit tick: invalidation, pickling, and the
sanitizer's check."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import InvariantViolation
from repro.analysis.sanitizer import Sanitizer
from repro.geometry import Rect
from repro.rtree.node import Entry, Node, node_mbr


def make_node(n=4, level=0, shadows=False):
    entries = [
        Entry(
            Rect(i, 0.0, i + 1.0, 1.0), i,
            shadow=Rect(i, 0.0, i + 1.0, 1.0) if shadows else None,
        )
        for i in range(n)
    ]
    return Node(level, entries, page_id=7)


class TestMbrAndShadowCaches:
    def test_cached_mbr(self):
        node = make_node()
        assert node.cached_mbr() == node_mbr(node)
        tick = node.tick
        node.entries.pop()
        node.invalidate_caches()
        assert node.tick > tick
        assert node.cached_mbr() == node_mbr(node)

    def test_pickle_drops_caches(self):
        node = make_node(shadows=True)
        node.cached_mbr()
        clone = pickle.loads(pickle.dumps(node))
        assert clone.page_id == node.page_id
        assert clone.level == node.level
        assert [e.ref for e in clone.entries] == [e.ref for e in node.entries]
        assert [e.shadow for e in clone.entries] == \
            [e.shadow for e in node.entries]
        assert clone._mbr_cache is None
        assert clone.tick > node.tick


class TestSanitizerCacheChecks:
    def check(self, node):
        Sanitizer._check_node_caches(node, node.page_id, where="test")

    def test_fresh_and_valid_caches_pass(self):
        node = make_node(shadows=True)
        self.check(node)  # memo not built
        node.cached_mbr()
        self.check(node)  # memo coherent

    def test_stale_mbr_cache_detected(self):
        node = make_node()
        node.cached_mbr()
        node.entries[0].mbr = Rect(50, 50, 51, 51)
        with pytest.raises(InvariantViolation, match="node-MBR cache"):
            self.check(node)
