"""Unit tests for the service's control plane: admission decisions,
the overload ladder, and deadline semantics."""

from __future__ import annotations

import random
from unittest import mock

import pytest

from repro.config import SystemConfig
from repro.errors import DeadlineExceededError
from repro.geometry import Rect
from repro.join.planner import plan_join
from repro.rtree import RTree
from repro.service import (
    Action,
    AdmissionController,
    Deadline,
    JoinRequest,
    LoadShedder,
    PressureLevel,
    RequestBudget,
    UpdateRequest,
    WindowQueryRequest,
    WorkspaceRegistry,
)
from repro.workload.updates import DELETE, INSERT, MOVE, UpdateOp

from ..conftest import random_entries


@pytest.fixture(scope="module")
def session():
    registry = WorkspaceRegistry(SystemConfig(page_size=512, buffer_pages=64))
    return registry.create("adm", random_entries(2000, seed=5))


def _join(n: int, method: str = "STJ1-2N", **kw) -> JoinRequest:
    return JoinRequest("adm", random_entries(n, seed=9), method=method, **kw)


class TestAdmission:
    def test_unlimited_budget_admits_everything(self, session):
        ctrl = AdmissionController()
        decision = ctrl.assess(session, _join(5000))
        assert decision.action is Action.ADMIT
        assert decision.predicted_io > 0

    def test_over_budget_downgrades_to_cheaper_method(self, session):
        # Find a derived-set size where STJ is NOT the cheapest estimate
        # (small sets: BFJ against the resident tree wins).
        ctrl = AdmissionController()
        for n in (50, 100, 200, 400, 800):
            plan = ctrl.plan_for(session, n_s=n)
            stj = plan.estimate_for("STJ").total_io
            cheapest = min(e.total_io for e in plan.estimates)
            if cheapest < stj:
                break
        else:
            pytest.fail("no size where STJ loses; estimators changed?")
        tight = AdmissionController(RequestBudget(
            max_predicted_io=(cheapest + stj) / 2
        ))
        decision = tight.assess(session, _join(n))
        assert decision.action is Action.DOWNGRADE
        assert decision.predicted_io == cheapest
        assert "downgraded" in decision.reason

    def test_nothing_fits_rejects(self, session):
        ctrl = AdmissionController(RequestBudget(max_predicted_io=1.0))
        decision = ctrl.assess(session, _join(3000))
        assert decision.action is Action.REJECT
        assert not decision.admitted
        assert "no cheaper method fits" in decision.reason

    def test_downgrade_disabled_rejects_instead(self, session):
        ctrl = AdmissionController()
        baseline = ctrl.assess(session, _join(3000)).predicted_io
        strict = AdmissionController(RequestBudget(
            max_predicted_io=baseline - 1, allow_downgrade=False
        ))
        assert strict.assess(session, _join(3000)).action is Action.REJECT

    def test_per_request_budget_overrides_service_budget(self, session):
        ctrl = AdmissionController(RequestBudget(max_predicted_io=1.0))
        generous = _join(500, max_predicted_io=10_000_000.0)
        assert ctrl.assess(session, generous).action is not Action.REJECT

    def test_window_query_admits_on_descent_estimate(self, session):
        ctrl = AdmissionController(RequestBudget(max_predicted_io=100.0))
        decision = ctrl.assess(
            session, WindowQueryRequest("adm", Rect(0, 0, 1, 1))
        )
        assert decision.action is Action.ADMIT
        assert decision.predicted_io == session.tree.height + 1

    def test_window_query_rejected_by_absurd_budget(self, session):
        ctrl = AdmissionController(RequestBudget(max_predicted_io=0.5))
        decision = ctrl.assess(
            session, WindowQueryRequest("adm", Rect(0, 0, 1, 1))
        )
        assert decision.action is Action.REJECT

    def test_unestimable_method_needs_unlimited_budget(self, session):
        unlimited = AdmissionController()
        bounded = AdmissionController(RequestBudget(max_predicted_io=1e12))
        req = _join(100, method="NAIVE")
        assert unlimited.assess(session, req).action is Action.ADMIT
        assert bounded.assess(session, req).action is Action.REJECT


class WalkedAdmission(AdmissionController):
    """The controller priced from a walk of the tree, as before the tree
    kept its node count and height."""

    def plan_for(self, session, n_s):
        tree = session.tree
        return plan_join(
            session.workspace.config, n_s=n_s,
            tree_r_pages=sum(1 for _ in tree.iter_nodes()),
            tree_r_height=tree._node_unaccounted(tree.root_id).level + 1,
        )


def _update_traffic(session, rng: random.Random, batches: int) -> None:
    live = dict((oid, rect) for rect, oid in session.tree.all_objects())
    next_oid = 10**6
    for _ in range(batches):
        ops = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice((INSERT, DELETE, MOVE))
            if kind == INSERT or not live:
                x, y = rng.random(), rng.random()
                rect = Rect(x, y, x + 0.02, y + 0.02)
                ops.append(UpdateOp(INSERT, next_oid, rect))
                live[next_oid] = rect
                next_oid += 1
                continue
            oid = rng.choice(list(live))
            rect = live.pop(oid)
            if kind == DELETE:
                ops.append(UpdateOp(DELETE, oid, rect))
            else:
                x, y = rng.random(), rng.random()
                live[oid] = Rect(x, y, x + 0.01, y + 0.01)
                ops.append(UpdateOp(MOVE, oid, rect, live[oid]))
        session.apply_updates(ops)


class TestAdmissionMetadata:
    """Admission prices joins from the node count and height the tree
    keeps: no page is read on the event loop, and every decision is the
    one a walked count gives."""

    @pytest.fixture(scope="class")
    def written(self):
        registry = WorkspaceRegistry(
            SystemConfig(page_size=512, buffer_pages=64))
        session = registry.create("meta", random_entries(2000, seed=15))
        _update_traffic(session, random.Random(4), 120)
        return session

    def test_assess_reads_no_page(self, written):
        requests = [
            _join(300), _join(300, method="BFJ"),
            WindowQueryRequest("meta", Rect(0.1, 0.1, 0.2, 0.2)),
            UpdateRequest("meta", [UpdateOp(INSERT, 1, Rect(0, 0, 0, 0))]),
        ]
        ctrl = AdmissionController(RequestBudget(max_predicted_io=50.0))
        with mock.patch.object(RTree, "_node_unaccounted",
                               side_effect=AssertionError("page read")), \
                mock.patch.object(RTree, "iter_nodes",
                                  side_effect=AssertionError("walk")):
            for request in requests:
                ctrl.assess(written, request)

    @pytest.mark.parametrize("budget", (None, 5.0, 20.0, 60.0, 200.0, 1e4))
    @pytest.mark.parametrize("allow_downgrade", (True, False))
    def test_decisions_equal_walked_count(self, written, budget,
                                          allow_downgrade):
        kept = AdmissionController(RequestBudget(budget, allow_downgrade))
        walked = WalkedAdmission(RequestBudget(budget, allow_downgrade))
        requests = [_join(n, method=m) for n in (20, 200, 2000)
                    for m in ("STJ1-2N", "RTJ", "BFJ", "ZJOIN")]
        requests += [WindowQueryRequest("meta", Rect(0.1, 0.1, 0.2, 0.2))]
        for request in requests:
            assert kept.assess(written, request) == walked.assess(
                written, request)


class TestLoadShedder:
    def test_ladder_levels(self):
        shedder = LoadShedder(degrade_water=4, high_water=8)
        assert shedder.level(0) is PressureLevel.NORMAL
        assert shedder.level(3) is PressureLevel.NORMAL
        assert shedder.level(4) is PressureLevel.DEGRADE
        assert shedder.level(7) is PressureLevel.DEGRADE
        assert shedder.level(8) is PressureLevel.SHED

    def test_shed_hysteresis_holds_until_degrade_water(self):
        shedder = LoadShedder(degrade_water=4, high_water=8)
        assert shedder.level(8) is PressureLevel.SHED
        # Still shedding in the band between the watermarks...
        assert shedder.level(6) is PressureLevel.SHED
        assert shedder.level(5) is PressureLevel.SHED
        # ...until depth falls back to the degrade watermark.
        assert shedder.level(4) is PressureLevel.DEGRADE
        assert shedder.level(6) is PressureLevel.DEGRADE

    def test_invalid_watermarks(self):
        with pytest.raises(ValueError):
            LoadShedder(degrade_water=0, high_water=4)
        with pytest.raises(ValueError):
            LoadShedder(degrade_water=5, high_water=4)


class TestDeadline:
    def test_fake_clock_expiry(self):
        now = [0.0]
        deadline = Deadline(1.0, clock=lambda: now[0])
        assert not deadline.expired
        assert deadline.remaining() == pytest.approx(1.0)
        deadline.check()  # no raise
        now[0] = 0.999
        assert not deadline.expired
        now[0] = 1.0
        assert deadline.expired
        with pytest.raises(DeadlineExceededError):
            deadline.check("unit test")

    def test_cancel_hard_expires(self):
        deadline = Deadline(3600.0)
        assert not deadline.expired
        deadline.cancel()
        assert deadline.expired
        assert deadline.remaining() == float("-inf")
        with pytest.raises(DeadlineExceededError):
            deadline.check()
