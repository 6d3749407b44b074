"""Structural-digest semantics of the columnar snapshot.

The digest is what lets a traversal plan survive a tree rebuild: it
must be blind to page placement (a rebuilt tree lands on fresh pages)
while seeing every structural fact a plan depends on — shape, entry
fan-out, leaf object ids, and geometry. Callers that reuse a plan
across digest-equal snapshots re-lower the page columns themselves
(``_PreparedMatch.rebind``), which is exactly why pages must stay out
of the digest.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.node_store import ColumnTree


def _records(base: int):
    """A tiny two-level tree rooted at page ``base``."""
    root = (base, 1, [base + 1, base + 2],
            [0.0, 0.2], [0.0, 0.2], [0.6, 0.3], [0.6, 0.3])
    leaf1 = (base + 1, 0, [101, 102],
             [0.0, 0.5], [0.0, 0.5], [0.1, 0.6], [0.1, 0.6])
    leaf2 = (base + 2, 0, [103], [0.2], [0.2], [0.3], [0.3])
    return [root, leaf1, leaf2]


def test_digest_ignores_page_layout():
    a = ColumnTree.build(_records(10), 10)
    b = ColumnTree.build(_records(500), 500)
    assert not np.array_equal(a.page, b.page)
    assert a.digest() == b.digest()


def test_digest_sees_geometry():
    a = ColumnTree.build(_records(10), 10)
    recs = _records(10)
    root, leaf1, leaf2 = recs
    moved = (leaf1[0], leaf1[1], leaf1[2],
             [0.05, 0.5], leaf1[4], leaf1[5], leaf1[6])
    b = ColumnTree.build([root, moved, leaf2], 10)
    assert a.digest() != b.digest()


def test_digest_sees_leaf_object_ids():
    a = ColumnTree.build(_records(10), 10)
    recs = _records(10)
    root, leaf1, leaf2 = recs
    relabeled = (leaf1[0], leaf1[1], [101, 999],
                 leaf1[3], leaf1[4], leaf1[5], leaf1[6])
    b = ColumnTree.build([root, relabeled, leaf2], 10)
    assert a.digest() != b.digest()


def test_digest_sees_shape():
    a = ColumnTree.build(_records(10), 10)
    recs = _records(10)
    root, leaf1, leaf2 = recs
    # Drop leaf2's entry (and the root's pointer to it).
    smaller_root = (root[0], root[1], [root[2][0]],
                    [root[3][0]], [root[4][0]], [root[5][0]], [root[6][0]])
    b = ColumnTree.build([smaller_root, leaf1], 10)
    assert a.digest() != b.digest()


def test_digest_is_cached():
    a = ColumnTree.build(_records(10), 10)
    assert a.digest() is a.digest()
