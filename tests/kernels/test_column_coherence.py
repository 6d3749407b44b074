"""Column coherence under churn: the cached columnar snapshot must
always mirror the live tree.

:func:`repro.join.batch.column_tree_of` caches one
:class:`~repro.kernels.node_store.ColumnTree` per tree, keyed on the
``(mutations, root_id)`` version stamp. The hazard is a mutating lane
that forgets to bump ``mutations``: the stale snapshot would silently
keep answering batch traversals against vanished geometry. This
machine extends the PR 8 dynamic-join machine — random insert /
delete / move / join / re-seed schedules over both trees — with an
invariant that, after every step, rebuilds the snapshot from scratch
through the same unaccounted peek path and demands the cached one be
column-for-column identical, on both trees, plus a stability check
that a cache hit returns the same object (no rebuild churn while the
stamp stands still).
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis.stateful import invariant

from repro.join.batch import column_tree_of
from repro.kernels.node_store import ColumnTree

from ..dynamic.test_stateful_dynamic import DynamicJoinMachine

#: Every column of a ColumnTree, in layout order.
COLUMNS = (
    "page", "level", "is_leaf", "nent", "eoff",
    "exlo", "eylo", "exhi", "eyhi", "eref", "echild",
    "nxlo", "nylo", "nxhi", "nyhi",
)


def _fresh_snapshot(tree) -> ColumnTree:
    """Rebuild the snapshot from the live nodes, bypassing the cache."""
    records = []
    for node in tree.iter_nodes():
        entries = node.entries
        records.append((
            node.page_id,
            node.level,
            [e.ref for e in entries],
            [e.mbr.xlo for e in entries],
            [e.mbr.ylo for e in entries],
            [e.mbr.xhi for e in entries],
            [e.mbr.yhi for e in entries],
        ))
    return ColumnTree.build(records, tree.root_id)


def assert_columns_mirror_tree(tree) -> None:
    cached = column_tree_of(tree)
    assert column_tree_of(tree) is cached, (
        "unchanged stamp must be a cache hit, not a rebuild"
    )
    assert cached.stamp == (tree.mutations, tree.root_id)
    fresh = _fresh_snapshot(tree)
    assert cached.n_nodes == fresh.n_nodes
    assert cached.n_entries == fresh.n_entries
    for name in COLUMNS:
        assert np.array_equal(getattr(cached, name), getattr(fresh, name)), (
            f"stale column {name!r}: cached snapshot disagrees with a "
            f"from-scratch rebuild of the live tree"
        )
    # The structural digest is page-layout independent, so it must agree
    # even if this tree were rebuilt elsewhere on different pages.
    assert cached.digest() == fresh.digest()


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
