"""Tests for seed-level filtering (Section 3.2)."""

from hypothesis import given, settings

from repro.config import SystemConfig
from repro.geometry import Rect
from repro.metrics import MetricsCollector
from repro.rtree import RTree
from repro.seeded import SeededTree
from repro.seeded.filtering import passes_filter
from repro.storage import BufferPool, DiskSimulator

from ..conftest import random_entries
from ..strategies import small_rects
from hypothesis import strategies as st


def make_env(buffer_pages=512):
    cfg = SystemConfig(page_size=104, buffer_pages=buffer_pages)
    m = MetricsCollector(cfg)
    buf = BufferPool(cfg.buffer_pages, DiskSimulator(m))
    return cfg, m, buf


def seeded_with_filter(seed_levels=2, n_r=150, seed=0):
    cfg, m, buf = make_env()
    t_r = RTree.build(buf, cfg, random_entries(n_r, seed=seed), metrics=m)
    tree = SeededTree(buf, cfg, m, filtering=True, seed_levels=seed_levels)
    tree.seed(t_r)
    return tree, t_r, m


class TestPassesFilter:
    def test_far_away_object_filtered(self):
        tree, t_r, m = seeded_with_filter()
        # Everything in T_R lives in the unit square.
        far = Rect(10, 10, 11, 11)
        root = tree.read_node(tree.root_id)
        assert not passes_filter(root, tree.seed_levels, far,
                                 tree.read_node, m, fast=tree.fast)

    def test_overlapping_object_passes(self):
        tree, t_r, m = seeded_with_filter()
        # An object covering the whole map must overlap some shadow.
        root = tree.read_node(tree.root_id)
        assert passes_filter(root, tree.seed_levels, Rect(0, 0, 1, 1),
                             tree.read_node, m, fast=tree.fast)

    def test_counts_bbox_tests(self):
        tree, t_r, m = seeded_with_filter()
        root = tree.read_node(tree.root_id)
        before = m.cpu.bbox_tests
        passes_filter(root, tree.seed_levels, Rect(0.5, 0.5, 0.6, 0.6),
                      tree.read_node, m, fast=tree.fast)
        assert m.cpu.bbox_tests > before

    def test_deeper_levels_test_more(self):
        """Three seed levels probe more shadows than two (the paper's
        CPU-for-I/O trade)."""
        results = []
        for k in (2, 3):
            tree, _, m = seeded_with_filter(seed_levels=k, n_r=400)
            root = tree.read_node(tree.root_id)
            before = m.cpu.bbox_tests
            for rect, _ in random_entries(50, seed=3, oid_start=5000):
                passes_filter(root, tree.seed_levels, rect,
                              tree.read_node, m, fast=tree.fast)
            results.append(m.cpu.bbox_tests - before)
        assert results[1] > results[0]


class TestFilteredInsertion:
    def test_insert_skips_filtered(self):
        tree, t_r, _ = seeded_with_filter()
        tree.insert(Rect(5, 5, 6, 6), 1000)  # disjoint from T_R
        assert len(tree) == 0
        assert tree.filtered_count == 1

    def test_insert_keeps_overlapping(self):
        tree, t_r, _ = seeded_with_filter()
        tree.insert(Rect(0.4, 0.4, 0.6, 0.6), 1000)
        assert len(tree) == 1
        assert tree.filtered_count == 0

    def test_filter_is_conservative(self):
        """Filtering must never drop an object that actually joins —
        the fundamental safety property of Section 3.2."""
        cfg, m, buf = make_env()
        r_entries = random_entries(150, seed=4)
        t_r = RTree.build(buf, cfg, r_entries, metrics=m)
        tree = SeededTree(buf, cfg, m, filtering=True)
        tree.seed(t_r)
        s_entries = random_entries(200, seed=5, oid_start=1000)
        tree.grow_from(s_entries)
        tree.cleanup()
        kept = {oid for _, oid in tree.all_objects()}
        for rect, oid in s_entries:
            joins = any(rect.intersects(r) for r, _ in r_entries)
            if joins:
                assert oid in kept, f"filter dropped joining object {oid}"

    def test_filtered_objects_truly_nonjoining(self):
        cfg, m, buf = make_env()
        r_entries = random_entries(120, seed=6)
        t_r = RTree.build(buf, cfg, r_entries, metrics=m)
        tree = SeededTree(buf, cfg, m, filtering=True)
        tree.seed(t_r)
        s_entries = random_entries(200, seed=7, oid_start=1000)
        tree.grow_from(s_entries)
        tree.cleanup()
        kept = {oid for _, oid in tree.all_objects()}
        dropped = [(r, o) for r, o in s_entries if o not in kept]
        assert len(dropped) == tree.filtered_count
        for rect, oid in dropped:
            assert not any(rect.intersects(r) for r, _ in r_entries)

    def test_filtering_reduces_tree_size(self):
        """With spatially separated inputs, filtering shrinks the tree."""
        cfg, m, buf = make_env()
        # D_R in the left half, D_S spread over the whole map.
        left = [
            (Rect(x / 200, y / 20, x / 200 + 0.002, y / 20 + 0.002),
             x * 20 + y)
            for x in range(50) for y in range(4)
        ]
        t_r = RTree.build(buf, cfg, left, metrics=m)
        s_entries = random_entries(200, seed=8, oid_start=10_000, side=0.01)

        sizes = {}
        for filtering in (False, True):
            tree = SeededTree(buf, cfg, m, filtering=filtering)
            tree.seed(t_r)
            tree.grow_from(s_entries)
            tree.cleanup()
            sizes[filtering] = tree.num_nodes()
        assert sizes[True] < sizes[False]

    def test_shadows_cleared_after_cleanup(self):
        tree, t_r, _ = seeded_with_filter()
        tree.grow_from(random_entries(50, seed=9, oid_start=1000))
        tree.cleanup()
        for node in tree.iter_nodes():
            assert all(e.shadow is None for e in node.entries)


@settings(max_examples=20, deadline=None)
@given(st.lists(small_rects(), min_size=1, max_size=30),
       st.lists(small_rects(), min_size=1, max_size=30))
def test_filter_decision_matches_ground_truth_overlap(r_rects, s_rects):
    """passes_filter == "overlaps the MBR hierarchy" which must be implied
    by actual overlap with any indexed object."""
    cfg, m, buf = make_env()
    t_r = RTree.build(buf, cfg, [(r, i) for i, r in enumerate(r_rects)],
                      metrics=m)
    if t_r.height < 2:
        return
    tree = SeededTree(buf, cfg, m, filtering=True, seed_levels=1)
    tree.seed(t_r)
    root = tree.read_node(tree.root_id)
    for s in s_rects:
        joins = any(s.intersects(r) for r in r_rects)
        passed = passes_filter(root, tree.seed_levels, s, tree.read_node, m,
                               fast=tree.fast)
        if joins:
            assert passed
