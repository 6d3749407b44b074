"""Re-seed policies and the rebuild procedure: decisions from snapshots,
and the rebuilt successor preserving the live set exactly."""

from __future__ import annotations

import pytest

from repro.dynamic import (
    AlwaysRebuild,
    DynamicScenario,
    IncrementalJoin,
    NeverReseed,
    ReseedDecision,
    ReseedManager,
    StalenessThreshold,
    UpdateStream,
    rebuild_seeded,
)
from repro.dynamic.staleness import StalenessSnapshot
from repro.geometry import Rect
from repro.workload import make_stream
from repro.workspace import Workspace

from ..conftest import random_entries
from .conftest import DYN_CONFIG


def _snap(**kwargs) -> StalenessSnapshot:
    base = dict(seed_dilation=0.0, occupancy_skew=1.0, partner_churn=0)
    base.update(kwargs)
    return StalenessSnapshot(**base)


class TestPolicies:
    def test_never_reseed_never_fires(self):
        policy = NeverReseed()
        assert policy.decide(
            _snap(seed_dilation=99.0, occupancy_skew=99.0, partner_churn=9)
        ) is ReseedDecision.NONE

    def test_always_rebuild_needs_churn(self):
        policy = AlwaysRebuild()
        assert policy.decide(_snap()) is ReseedDecision.NONE
        assert policy.decide(
            _snap(partner_churn=1)
        ) is ReseedDecision.REBUILD

    def test_staleness_threshold_ladder(self):
        policy = StalenessThreshold(rebuild_at=2.0, skew_at=4.0)
        assert policy.decide(
            _snap(seed_dilation=1.9, occupancy_skew=3.9)
        ) is ReseedDecision.NONE
        assert policy.decide(
            _snap(seed_dilation=2.0)
        ) is ReseedDecision.REBUILD
        assert policy.decide(
            _snap(occupancy_skew=4.0)
        ) is ReseedDecision.REBUILD

    def test_staleness_threshold_validates_bars(self):
        with pytest.raises(ValueError):
            StalenessThreshold(rebuild_at=0)


def _world(n: int = 250):
    ws = Workspace(DYN_CONFIG)
    data_r = random_entries(n, seed=81)
    data_s = random_entries(n, seed=82, oid_start=10_000)
    partner = ws.install_rtree(data_r)
    tree_s = ws.install_seeded_tree(partner, data_s)
    live_s = {oid: rect for rect, oid in data_s}
    return ws, partner, tree_s, live_s


class TestProcedures:
    @pytest.mark.parametrize("procedure", (rebuild_seeded,))
    def test_successor_holds_exactly_the_live_set(self, procedure):
        ws, partner, tree_s, live_s = _world()
        successor = procedure(ws, tree_s, partner)
        successor.validate()
        assert len(successor) == len(live_s)
        everything = Rect(0.0, 0.0, 1.0, 1.0)
        assert set(successor.window_query(everything)) == set(live_s)

    def test_procedures_charge_maintenance(self):
        ws, partner, tree_s, _ = _world()
        before = ws.metrics.summary().construct_io
        rebuild_seeded(ws, tree_s, partner)
        assert ws.metrics.summary().construct_io > before


class TestManager:
    def _managed(self, policy):
        ws, partner, tree_s, live_s = _world()
        data_r_live = {
            oid: rect for rect, oid in random_entries(250, seed=81)
        }
        stream_r = UpdateStream(
            ws, partner, make_stream("drift", seed=91, speed=0.04),
            live=data_r_live,
        )
        stream_s = UpdateStream(
            ws, tree_s, make_stream("zipf-churn", seed=92), live=live_s
        )
        inc = IncrementalJoin(ws, tree_s, partner)
        stream_s.attach(inc.on_s_op)
        stream_r.attach(inc.on_r_op)
        inc.bootstrap(ws.match_resident(tree_s, partner))
        manager = ReseedManager(ws, tree_s, partner, policy)
        manager.subscribe(stream_s.retree)
        manager.subscribe(inc.retree_s)
        return ws, manager, stream_s, stream_r, inc

    def test_never_policy_keeps_tree_identity(self):
        ws, manager, stream_s, stream_r, inc = self._managed(NeverReseed())
        original = manager.tree
        stream_r.step(40)
        decision, snap = manager.evaluate()
        assert decision is ReseedDecision.NONE
        assert manager.tree is original
        assert manager.rebuilds == 0

    def test_rebuild_fires_and_repoints_subscribers(self):
        ws, manager, stream_s, stream_r, inc = self._managed(AlwaysRebuild())
        original = manager.tree
        stream_r.step(40)
        decision, snap = manager.evaluate()
        assert decision is ReseedDecision.REBUILD
        assert manager.rebuilds == 1
        assert manager.tree is not original
        assert stream_s.tree is manager.tree
        assert inc.tree_s is manager.tree
        # The incremental join stays exact through the swap.
        stream_s.step(20)
        stream_r.step(20)
        fresh = sorted(ws.match_resident(manager.tree, manager.partner))
        assert inc.pairs() == fresh

    def test_threshold_fires_a_rebuild(self):
        policy = StalenessThreshold(rebuild_at=1e-6)
        ws, manager, stream_s, stream_r, inc = self._managed(policy)
        stream_r.step(60)
        decision, snap = manager.evaluate()
        assert snap.seed_dilation >= policy.rebuild_at
        assert decision is ReseedDecision.REBUILD
        assert manager.rebuilds == 1
        manager.tree.validate()
        fresh = sorted(ws.match_resident(manager.tree, manager.partner))
        assert inc.pairs() == fresh


class TestPageLifetime:
    def test_rebuild_frees_the_old_tree_and_its_own_scratch(self):
        ws, partner, tree_s, _ = _world()
        successor = rebuild_seeded(ws, tree_s, partner)
        live = {n.page_id for n in partner.iter_nodes()}
        live |= {n.page_id for n in successor.iter_nodes()}
        assert set(ws.disk._pages) <= live
        assert not any(ws.disk.is_freed(p) for p in live)

    def test_always_rebuild_keeps_written_pages_flat(self):
        scenario = DynamicScenario(
            DYN_CONFIG, n_r=400, n_s=400, seed=3, policy=AlwaysRebuild(),
        )
        disk = scenario.workspace.disk
        readings = []
        for _ in range(20):
            scenario.step(s_ops=10, r_ops=10)
            decision, _ = scenario.maintain()
            assert decision is ReseedDecision.REBUILD
            live = {n.page_id for n in scenario.partner.iter_nodes()}
            live |= {n.page_id for n in scenario.tree_s.iter_nodes()}
            # Every stored page belongs to one of the two live trees.
            assert set(disk._pages) <= live
            readings.append(disk.written_pages)
        assert scenario.manager.rebuilds == 20
        # The live trees drift a little under churn; the disk follows
        # them instead of growing by a tree per rebuild.
        assert max(readings) - min(readings) < min(readings) // 4
        assert scenario.incremental.pairs() == scenario.reference_pairs()
