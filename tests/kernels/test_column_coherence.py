"""Column coherence under churn: the cached columnar snapshot must
always mirror the live tree.

:func:`repro.join.batch.column_tree_of` caches one
:class:`~repro.kernels.node_store.ColumnTree` per tree, keyed on the
``(mutations, root_id)`` version stamp, and assembles the next one from
it when the stamp moves. The hazards are a mutating lane that forgets
to bump ``mutations`` (the stale snapshot would silently keep answering
batch traversals against vanished geometry) and an entry edit that
skips ``invalidate_caches()`` (the assembly would keep that node's old
rows). This
machine extends the PR 8 dynamic-join machine — random insert /
delete / move / join / re-seed schedules over both trees — with an
invariant that, after every step, rebuilds the snapshot from scratch
through the same unaccounted peek path and demands the cached one be
column-for-column identical, on both trees, plus a stability check
that a cache hit returns the same object (no rebuild churn while the
stamp stands still). A snapshot taken after a write must have been
assembled from the previous one: each step writes at most one object
into trees of many leaves, so some node keeps its rows, and the
assembly re-reads fewer nodes than the tree has.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import invariant

from repro.analysis.sanitizer import packed_snapshot
from repro.join.batch import column_tree_of, snapshot_record

from ..dynamic.test_stateful_dynamic import DynamicJoinMachine

def assert_columns_mirror_tree(tree) -> None:
    before = snapshot_record(tree)
    cached = column_tree_of(tree)
    assert column_tree_of(tree) is cached, (
        "unchanged stamp must be a cache hit, not a rebuild"
    )
    record = snapshot_record(tree)
    if (before is not None and before.snapshot is not None
            and before.stamp != record.stamp):
        assert not record.carried
        assert record.reread < record.nodes == cached.n_nodes, (
            f"a snapshot taken after a write re-read {record.reread} of "
            f"{record.nodes} nodes: it was not assembled from its base"
        )
    # Stamp, every column with its dtype, and the digest.
    stale = cached.differs_from(packed_snapshot(tree))
    assert stale is None, (
        f"stale {stale!r}: cached snapshot disagrees with a from-scratch "
        f"pack of the live tree"
    )


class ColumnCoherenceMachine(DynamicJoinMachine):
    """PR 8's dynamic machine plus the column-mirror invariant."""

    @invariant()
    def columns_mirror_live_trees(self):
        assert_columns_mirror_tree(self.manager.tree)
        assert_columns_mirror_tree(self.partner)


TestColumnCoherenceMachine = ColumnCoherenceMachine.TestCase
TestColumnCoherenceMachine.settings = settings(
    max_examples=8, stateful_step_count=20, deadline=None
)
