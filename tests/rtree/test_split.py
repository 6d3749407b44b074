"""Tests for the node-split algorithms."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TreeError
from repro.geometry import Rect
from repro.metrics import MetricsCollector
from repro.rtree.node import Entry
from repro.rtree.split import check_split, linear_split, quadratic_split

from ..conftest import random_rects
from ..strategies import small_rects

SPLITTERS = [quadratic_split, linear_split]


def entries_from(rects):
    return [Entry(r, i) for i, r in enumerate(rects)]


@pytest.mark.parametrize("split", SPLITTERS)
class TestSplitContracts:
    def test_partitions_input(self, split):
        entries = entries_from(random_rects(25, seed=1))
        groups = split(entries, min_fill=10)
        check_split(entries, groups, 10)

    def test_min_fill_respected(self, split):
        entries = entries_from(random_rects(21, seed=2))
        a, b = split(entries, min_fill=10)
        assert len(a) >= 10
        assert len(b) >= 10

    def test_two_entries(self, split):
        entries = entries_from(random_rects(2, seed=3))
        a, b = split(entries, min_fill=1)
        assert len(a) == 1 and len(b) == 1

    def test_single_entry_raises(self, split):
        with pytest.raises(TreeError):
            split(entries_from(random_rects(1)), min_fill=1)

    def test_impossible_min_fill_raises(self, split):
        with pytest.raises(TreeError):
            split(entries_from(random_rects(3)), min_fill=2)

    def test_identical_rects(self, split):
        r = Rect(0.5, 0.5, 0.6, 0.6)
        entries = [Entry(r, i) for i in range(10)]
        a, b = split(entries, min_fill=4)
        check_split(entries, (a, b), 4)

    def test_degenerate_points(self, split):
        entries = [Entry(Rect.point(i / 10, i / 10), i) for i in range(10)]
        a, b = split(entries, min_fill=4)
        check_split(entries, (a, b), 4)

    @pytest.mark.parametrize("fast", (False, True))
    def test_overflowing_areas_still_partition(self, split, fast):
        """Every area is inf, so every pair's waste is inf - inf = NaN:
        the split must still hand out each entry exactly once (PickSeeds
        once seeded both groups with the last entry)."""
        entries = [Entry(Rect(-1.7e308, -1.7e308, 1.7e308, 1.7e308), i)
                   for i in range(5)]
        groups = split(entries, 2, None, fast)
        check_split(entries, groups, 2)

    def test_metrics_counted(self, split):
        m = MetricsCollector()
        entries = entries_from(random_rects(20, seed=4))
        split(entries, min_fill=8, metrics=m)
        assert m.cpu.bbox_tests == 20  # one pass over the entries

    def test_no_metrics_ok(self, split):
        split(entries_from(random_rects(8, seed=5)), min_fill=3, metrics=None)


class TestQuadraticQuality:
    def test_separates_two_clusters(self):
        """Two well-separated clusters must end up in different groups."""
        left = [Entry(Rect(0, 0, 0.1, 0.1).union(Rect(i / 100, 0, i / 100, 0.1)), i)
                for i in range(5)]
        right = [Entry(Rect(10, 10, 10.1, 10.1), 100 + i) for i in range(5)]
        a, b = quadratic_split(left + right, min_fill=4)
        refs_a = {e.ref for e in a}
        refs_b = {e.ref for e in b}
        assert refs_a in ({0, 1, 2, 3, 4}, {100, 101, 102, 103, 104})
        assert refs_a != refs_b


class TestCheckSplit:
    def test_rejects_underfill(self):
        entries = entries_from(random_rects(10))
        with pytest.raises(TreeError):
            check_split(entries, (entries[:1], entries[1:]), min_fill=3)

    def test_rejects_loss(self):
        entries = entries_from(random_rects(10))
        with pytest.raises(TreeError):
            check_split(entries, (entries[:4], entries[5:]), min_fill=3)

    def test_rejects_substitution(self):
        entries = entries_from(random_rects(8))
        fake = entries[:4] + [Entry(Rect(0, 0, 1, 1), 99) for _ in range(4)]
        with pytest.raises(TreeError):
            check_split(entries, (fake[:4], fake[4:]), min_fill=3)


@given(st.lists(small_rects(), min_size=4, max_size=30),
       st.integers(min_value=1, max_value=2))
def test_quadratic_split_properties(rects, min_fill):
    entries = entries_from(rects)
    groups = quadratic_split(entries, min_fill=min_fill)
    check_split(entries, groups, min_fill)


@given(st.lists(small_rects(), min_size=4, max_size=30),
       st.integers(min_value=1, max_value=2))
def test_linear_split_properties(rects, min_fill):
    entries = entries_from(rects)
    groups = linear_split(entries, min_fill=min_fill)
    check_split(entries, groups, min_fill)
