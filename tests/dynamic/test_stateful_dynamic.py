"""Model-based testing of the full dynamic stack.

One Hypothesis-driven machine owns a churning resident join: random
insert / delete / move / query / join / re-seed sequences run against
plain-dict models, and after every step the trees must stay
structurally valid, queries must answer exactly, the incremental join
must equal the oracle, and the accounting counters must never move
backwards."""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.dynamic import (
    AlwaysRebuild,
    IncrementalJoin,
    NeverReseed,
    ReseedManager,
    StalenessThreshold,
    UpdateStream,
)
from repro.geometry import Rect
from repro.workload import (
    DELETE,
    INSERT,
    MOVE,
    UpdateBatch,
    UpdateOp,
    make_stream,
)
from repro.workspace import Workspace

from ..conftest import random_entries
from .conftest import DYN_CONFIG, oracle_pairs

#: CostSummary counters that must be monotone over a session's life.
COUNTER_FIELDS = (
    "match_read", "match_write", "construct_read", "construct_write",
    "bbox_tests", "xy_tests", "total_io",
)


class DynamicJoinMachine(RuleBasedStateMachine):
    """Random schedules over streams, joins, and re-seeds."""

    def __init__(self):
        super().__init__()
        self.ws = Workspace(DYN_CONFIG)
        data_r = random_entries(180, seed=101)
        data_s = random_entries(180, seed=102, oid_start=10_000)
        self.partner = self.ws.install_rtree(data_r)
        tree_s = self.ws.install_seeded_tree(self.partner, data_s)
        self.stream_r = UpdateStream(
            self.ws, self.partner, make_stream("drift", seed=111),
            live={oid: rect for rect, oid in data_r},
        )
        self.stream_s = UpdateStream(
            self.ws, tree_s, make_stream("zipf-churn", seed=112),
            live={oid: rect for rect, oid in data_s},
        )
        self.inc = IncrementalJoin(self.ws, tree_s, self.partner)
        self.stream_s.attach(self.inc.on_s_op)
        self.stream_r.attach(self.inc.on_r_op)
        self.inc.bootstrap(self.ws.match_resident(tree_s, self.partner))
        self.manager = ReseedManager(
            self.ws, tree_s, self.partner, NeverReseed()
        )
        self.manager.subscribe(self.stream_s.retree)
        self.manager.subscribe(self.inc.retree_s)
        self.next_oid = 500_000
        self.seq = 0
        self.last_counters = self._counters()
        self.last_mutations = (tree_s.mutations, self.partner.mutations)

    # ------------------------------------------------------------- #
    # Helpers
    # ------------------------------------------------------------- #

    def _counters(self) -> tuple:
        summary = self.ws.metrics.summary()
        return tuple(getattr(summary, f) for f in COUNTER_FIELDS)

    def _apply(self, stream: UpdateStream, op: UpdateOp) -> None:
        self.seq += 1
        stream.apply(UpdateBatch(self.seq, "machine", (op,)))

    def _rect(self, x: int, y: int, w: int, h: int) -> Rect:
        return Rect(x / 64, y / 64, min(1.0, (x + 1 + w) / 64),
                    min(1.0, (y + 1 + h) / 64))

    # ------------------------------------------------------------- #
    # Rules: stream writes
    # ------------------------------------------------------------- #

    @rule(x=st.integers(0, 63), y=st.integers(0, 63),
          w=st.integers(0, 4), h=st.integers(0, 4))
    def insert_s(self, x, y, w, h):
        oid, self.next_oid = self.next_oid, self.next_oid + 1
        self._apply(self.stream_s, UpdateOp(INSERT, oid,
                                            self._rect(x, y, w, h)))

    @rule(x=st.integers(0, 63), y=st.integers(0, 63),
          w=st.integers(0, 4), h=st.integers(0, 4))
    def insert_r(self, x, y, w, h):
        oid, self.next_oid = self.next_oid, self.next_oid + 1
        self._apply(self.stream_r, UpdateOp(INSERT, oid,
                                            self._rect(x, y, w, h)))

    @precondition(lambda self: self.stream_s.live)
    @rule(data=st.data())
    def delete_s(self, data):
        oid = data.draw(st.sampled_from(sorted(self.stream_s.live)))
        self._apply(self.stream_s,
                    UpdateOp(DELETE, oid, self.stream_s.live[oid]))

    @precondition(lambda self: self.stream_r.live)
    @rule(data=st.data())
    def delete_r(self, data):
        oid = data.draw(st.sampled_from(sorted(self.stream_r.live)))
        self._apply(self.stream_r,
                    UpdateOp(DELETE, oid, self.stream_r.live[oid]))

    @precondition(lambda self: self.stream_s.live)
    @rule(data=st.data(), x=st.integers(0, 63), y=st.integers(0, 63))
    def move_s(self, data, x, y):
        oid = data.draw(st.sampled_from(sorted(self.stream_s.live)))
        self._apply(self.stream_s, UpdateOp(
            MOVE, oid, self.stream_s.live[oid],
            to_rect=self._rect(x, y, 1, 1),
        ))

    # ------------------------------------------------------------- #
    # Rules: reads, joins, maintenance
    # ------------------------------------------------------------- #

    @rule(x=st.integers(0, 48), y=st.integers(0, 48))
    def window_queries_answer_exactly(self, x, y):
        window = Rect(x / 64, y / 64, x / 64 + 0.25, y / 64 + 0.25)
        for stream in (self.stream_s, self.stream_r):
            expected = sorted(
                oid for oid, rect in stream.live.items()
                if rect.intersects(window)
            )
            got = sorted(self.ws.window_query(stream.tree, window))
            assert got == expected

    @rule()
    def join_agrees_with_incremental_and_oracle(self):
        pairs = sorted(self.ws.match_resident(self.manager.tree,
                                              self.partner))
        assert pairs == self.inc.pairs()
        assert pairs == oracle_pairs(self.stream_s.live,
                                     self.stream_r.live)

    @rule(policy=st.sampled_from(("rebuild", "threshold")))
    def reseed(self, policy):
        self.manager.policy = (
            AlwaysRebuild() if policy == "rebuild"
            else StalenessThreshold(rebuild_at=0.05)
        )
        self.manager.evaluate()
        self.manager.policy = NeverReseed()
        tree = self.manager.tree
        assert self.stream_s.tree is tree
        assert self.inc.tree_s is tree
        # The successor holds exactly the live set.
        assert len(tree) == len(self.stream_s.live)
        everything = Rect(0.0, 0.0, 1.0, 1.0)
        assert set(tree.window_query(everything)) == set(self.stream_s.live)

    # ------------------------------------------------------------- #
    # Invariants
    # ------------------------------------------------------------- #

    @invariant()
    def trees_stay_well_formed(self):
        self.manager.tree.validate()
        self.partner.validate()
        assert len(self.manager.tree) == len(self.stream_s.live)
        assert len(self.partner) == len(self.stream_r.live)

    @invariant()
    def counters_are_monotone(self):
        now = self._counters()
        for field, prev, cur in zip(COUNTER_FIELDS, self.last_counters, now):
            assert cur >= prev, f"{field} moved backwards"
        self.last_counters = now
        muts = (self.manager.tree.mutations, self.partner.mutations)
        # A re-seed swaps in a fresh tree (stamp resets); the partner's
        # stamp can only ever grow.
        assert muts[1] >= self.last_mutations[1]
        self.last_mutations = muts


TestDynamicJoinMachine = DynamicJoinMachine.TestCase
TestDynamicJoinMachine.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None
)
