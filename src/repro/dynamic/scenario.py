"""One-call wiring of the full dynamic-data stack.

:class:`DynamicScenario` stands up everything the streaming scenario
needs — a workspace, the resident partner R-tree ``T_R``, a retained
seeded tree ``T_S`` seeded from it, one update stream per side, the
incremental join subscribed to both, and a re-seed manager — so tests,
benchmarks, and the service maintenance lane share one wiring instead
of re-deriving it. Initial structures are built in the SETUP phase
(they model pre-existing state); everything after construction is
charged.
"""

from __future__ import annotations

from ..config import SystemConfig
from ..storage import FaultInjector
from ..workload import make_dataset, make_stream
from ..workload.seeding import derive_seed
from ..workspace import Workspace
from .incremental import IncrementalJoin
from .reseed import NeverReseed, ReseedDecision, ReseedManager, ReseedPolicy
from .staleness import StalenessSnapshot


class DynamicScenario:
    """A churning resident join: two trees, two streams, one answer."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        *,
        n_r: int = 1500,
        n_s: int = 1500,
        seed: int = 0,
        dataset_family: str = "clustered",
        dataset_params: dict[str, object] | None = None,
        r_family: str = "drift",
        s_family: str = "zipf-churn",
        r_params: dict[str, object] | None = None,
        s_params: dict[str, object] | None = None,
        policy: ReseedPolicy | None = None,
        seed_levels: int = 2,
        injector: FaultInjector | None = None,
    ) -> None:
        from .stream import UpdateStream

        self.seed = seed
        self.workspace = Workspace(config, injector=injector)
        ws = self.workspace
        params = dict(dataset_params or {})
        data_r = make_dataset(dataset_family, n_r,
                              seed=derive_seed(seed, "dyn-R"), **params)
        data_s = make_dataset(dataset_family, n_s,
                              seed=derive_seed(seed, "dyn-S"), **params)
        self.partner = ws.install_rtree(data_r, name="T_R")
        self.tree_s = ws.install_seeded_tree(
            self.partner, data_s, seed_levels=seed_levels
        )
        self.stream_r = UpdateStream(
            ws, self.partner,
            make_stream(r_family, seed=derive_seed(seed, "dyn-stream-R"),
                        **dict(r_params or {})),
            live={oid: rect for rect, oid in data_r},
        )
        self.stream_s = UpdateStream(
            ws, self.tree_s,
            make_stream(s_family, seed=derive_seed(seed, "dyn-stream-S"),
                        **dict(s_params or {})),
            live={oid: rect for rect, oid in data_s},
        )
        self.incremental = IncrementalJoin(ws, self.tree_s, self.partner)
        self.stream_s.attach(self.incremental.on_s_op)
        self.stream_r.attach(self.incremental.on_r_op)
        self.manager = ReseedManager(
            ws, self.tree_s, self.partner, policy or NeverReseed()
        )
        self.manager.subscribe(self._adopt_successor)
        # The materialized result starts from a real, accounted join.
        self.incremental.bootstrap(self.run_join())

    def _adopt_successor(self, tree) -> None:
        self.tree_s = tree
        self.stream_s.retree(tree)
        self.incremental.retree_s(tree)

    # ------------------------------------------------------------- #
    # Driving
    # ------------------------------------------------------------- #

    def step(self, s_ops: int = 0, r_ops: int = 0) -> None:
        """Apply one batch per side (either may be empty)."""
        if s_ops:
            self.stream_s.step(s_ops)
        if r_ops:
            self.stream_r.step(r_ops)

    def run_join(self) -> list[tuple[int, int]]:
        """One measured resident join (MATCH-charged TM matching)."""
        return self.workspace.match_resident(self.tree_s, self.partner)

    def maintain(self) -> tuple[ReseedDecision, StalenessSnapshot]:
        """One maintenance point: measure staleness, maybe re-seed."""
        return self.manager.evaluate()

    # ------------------------------------------------------------- #
    # Oracles (tests / benchmarks)
    # ------------------------------------------------------------- #

    def reference_pairs(self) -> list[tuple[int, int]]:
        """Brute-force expected pairs from the live models; unaccounted.

        O(|S|·|R|) — a pure-Python oracle for differential tests, not a
        measured competitor (that is a from-scratch join in a fresh
        workspace; see ``benchmarks/bench_dynamic.py``).
        """
        out = []
        for s_oid, s_rect in self.stream_s.live.items():
            for r_oid, r_rect in self.stream_r.live.items():
                if s_rect.intersects(r_rect):
                    out.append((s_oid, r_oid))
        return sorted(out)
