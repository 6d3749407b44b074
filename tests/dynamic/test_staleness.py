"""StalenessTracker: drift signals must be zero on a fresh baseline and
grow monotonically meaningful under churn."""

from __future__ import annotations

from repro.dynamic import StalenessTracker, UpdateStream, occupancy_skew
from repro.dynamic.staleness import partner_seed_boxes
from repro.workload import make_stream
from repro.workspace import Workspace

from ..conftest import random_entries
from .conftest import DYN_CONFIG


def _world(n: int = 250):
    ws = Workspace(DYN_CONFIG)
    data_r = random_entries(n, seed=61)
    data_s = random_entries(n, seed=62, oid_start=10_000)
    partner = ws.install_rtree(data_r)
    tree_s = ws.install_seeded_tree(partner, data_s)
    return ws, partner, tree_s, data_r


class TestSignals:
    def test_fresh_baseline_measures_clean(self):
        ws, partner, tree_s, _ = _world()
        tracker = StalenessTracker()
        tracker.rebaseline(partner, tree_s)
        snap = tracker.measure(partner, tree_s)
        assert snap.seed_dilation == 0.0
        assert snap.partner_churn == 0

    def test_partner_churn_raises_dilation(self):
        ws, partner, tree_s, data_r = _world()
        tracker = StalenessTracker()
        tracker.rebaseline(partner, tree_s)
        stream = UpdateStream(
            ws, partner, make_stream("drift", seed=71, speed=0.05),
            live={oid: rect for rect, oid in data_r},
        )
        for _ in range(6):
            stream.step(60)
        snap = tracker.measure(partner, tree_s)
        assert snap.partner_churn > 0
        assert snap.seed_dilation > 0.0

    def test_rebaseline_clears_runs_and_churn(self):
        ws, partner, tree_s, _ = _world()
        tracker = StalenessTracker()
        tracker.rebaseline(partner, tree_s)
        partner.insert(*random_entries(1, seed=99, oid_start=90_000)[0])
        tracker.rebaseline(partner, tree_s)
        snap = tracker.measure(partner, tree_s)
        assert snap.partner_churn == 0
        assert snap.seed_dilation == 0.0


class TestStructure:
    def test_seed_boxes_match_seeding_depth(self):
        ws, partner, tree_s, _ = _world()
        boxes = partner_seed_boxes(partner, tree_s.seed_levels)
        assert boxes  # a height>=3 partner always yields slot boxes
        # Every box must sit inside the partner root's bounding region.
        root = partner._node_unaccounted(partner.root_id)
        universe = root.entries[0].mbr
        for e in root.entries[1:]:
            universe = universe.union(e.mbr)
        for box in boxes:
            assert universe.contains(box)

    def test_occupancy_skew_at_least_one(self):
        ws, partner, tree_s, _ = _world()
        assert occupancy_skew(tree_s) >= 1.0
