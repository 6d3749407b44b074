"""Incremental join maintenance: keep the answer, patch the deltas.

Recomputing a spatial join after every update batch costs the full
match phase each time; :class:`IncrementalJoin` instead materializes
the pair set once and patches it per update:

* S-side insert — one window query against the partner tree ``T_R``
  with the new rectangle: every hit is a new pair;
* R-side insert — the mirror probe against the S-side tree;
* delete — drop all pairs involving the object (indexed both ways, so
  this is set arithmetic, no I/O);
* move — delete then insert.

Probes run through :meth:`~repro.workspace.Workspace.window_query`, so
maintenance reads land in the MATCH column like any other join I/O —
the crossover against recompute (see ``benchmarks/bench_dynamic.py``)
is measured in the same currency. Pair bookkeeping is exact set
semantics on ``(oid_s, oid_r)``; boundary duplicates that partitioned
recompute legs dedup via reference points cannot arise here because
each pair is produced by exactly one probe.
"""

from __future__ import annotations

from typing import Iterable

from ..geometry import Rect
from ..rtree import RTree
from ..seeded import SeededTree
from ..workload.updates import DELETE, INSERT, MOVE, QUERY, UpdateOp
from ..workspace import Workspace

Pair = tuple[int, int]


class IncrementalJoin:
    """A materialized ``S ⋈ R`` result maintained under updates.

    Wire one instance to both update streams::

        inc = IncrementalJoin(ws, tree_s, tree_r)
        inc.bootstrap(initial_result.pairs)
        stream_s.attach(inc.on_s_op)
        stream_r.attach(inc.on_r_op)

    After a re-seed, point it at the successor with :meth:`retree_s`
    (the pair set survives: re-seeding permutes the tree, not the
    data).
    """

    def __init__(
        self,
        workspace: Workspace,
        tree_s: SeededTree | RTree,
        tree_r: RTree,
    ) -> None:
        self.workspace = workspace
        self.tree_s = tree_s
        self.tree_r = tree_r
        self._pairs: set[Pair] = set()
        self._by_s: dict[int, set[int]] = {}
        self._by_r: dict[int, set[int]] = {}
        self.probes = 0

    # ------------------------------------------------------------- #
    # Wiring
    # ------------------------------------------------------------- #

    def bootstrap(self, pairs: Iterable[Pair]) -> None:
        """Adopt a from-scratch join result as the starting state."""
        self._pairs = set()
        self._by_s = {}
        self._by_r = {}
        for s, r in pairs:
            self._add(s, r)

    def retree_s(self, tree_s: SeededTree | RTree) -> None:
        self.tree_s = tree_s

    # ------------------------------------------------------------- #
    # Update application (stream listeners)
    # ------------------------------------------------------------- #

    def on_s_op(self, op: UpdateOp) -> None:
        """Maintain pairs for one applied S-side op."""
        if op.kind == QUERY:
            return
        if op.kind in (DELETE, MOVE):
            self._drop_s(op.oid)
        if op.kind == INSERT:
            self._probe_s(op.oid, op.rect)
        elif op.kind == MOVE:
            assert op.to_rect is not None
            self._probe_s(op.oid, op.to_rect)

    def on_r_op(self, op: UpdateOp) -> None:
        """Maintain pairs for one applied R-side op."""
        if op.kind == QUERY:
            return
        if op.kind in (DELETE, MOVE):
            self._drop_r(op.oid)
        if op.kind == INSERT:
            self._probe_r(op.oid, op.rect)
        elif op.kind == MOVE:
            assert op.to_rect is not None
            self._probe_r(op.oid, op.to_rect)

    # ------------------------------------------------------------- #
    # Results
    # ------------------------------------------------------------- #

    def pair_set(self) -> set[Pair]:
        return set(self._pairs)

    def pairs(self) -> list[Pair]:
        """Sorted pairs, the differential-comparison form."""
        return sorted(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    # ------------------------------------------------------------- #
    # Internals
    # ------------------------------------------------------------- #

    def _probe_s(self, oid_s: int, rect: Rect) -> None:
        self.probes += 1
        for oid_r in self.workspace.window_query(self.tree_r, rect):
            self._add(oid_s, oid_r)

    def _probe_r(self, oid_r: int, rect: Rect) -> None:
        self.probes += 1
        for oid_s in self.workspace.window_query(self.tree_s, rect):
            self._add(oid_s, oid_r)

    def _add(self, s: int, r: int) -> None:
        self._pairs.add((s, r))
        self._by_s.setdefault(s, set()).add(r)
        self._by_r.setdefault(r, set()).add(s)

    def _drop_s(self, s: int) -> None:
        for r in self._by_s.pop(s, ()):
            self._pairs.discard((s, r))
            partners = self._by_r.get(r)
            if partners is not None:
                partners.discard(s)
                if not partners:
                    del self._by_r[r]

    def _drop_r(self, r: int) -> None:
        for s in self._by_r.pop(r, ()):
            self._pairs.discard((s, r))
            partners = self._by_s.get(s)
            if partners is not None:
                partners.discard(r)
                if not partners:
                    del self._by_s[s]
