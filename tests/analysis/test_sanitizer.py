"""The runtime sanitizer: detection power and zero cost-model footprint.

Two halves. Detection: corrupt a tree/buffer/collector in a targeted
way and the matching check must raise
:class:`~repro.errors.InvariantViolation`. Transparency: a sanitized
join (sequential and parallel, every facade method) must produce the
bit-identical :class:`~repro.metrics.CostSummary` of an unsanitized
run — the checks observe only unaccounted paths.
"""

from __future__ import annotations

import pytest

from repro.analysis import Sanitizer, resolve_sanitizer, sanitizer_enabled
from repro.analysis.sanitizer import ENV_VAR
from repro.config import SystemConfig
from repro.errors import InvariantViolation
from repro.geometry import Rect
from repro.join import spatial_join
from repro.join.batch import column_tree_of, snapshot_record
from repro.workload import ClusteredConfig, generate_clustered
from repro.workspace import Workspace

CFG = SystemConfig(page_size=104, buffer_pages=64)


def _workload():
    d_r = generate_clustered(ClusteredConfig(
        220, cover_quotient=2.0, objects_per_cluster=11, seed=901,
    ))
    d_s = generate_clustered(ClusteredConfig(
        140, cover_quotient=2.0, objects_per_cluster=7, seed=951,
        oid_start=10**6,
    ))
    return d_r, d_s


def _installed_tree():
    d_r, _ = _workload()
    ws = Workspace(CFG)
    tree = ws.install_rtree(d_r)
    return ws, tree


# --------------------------------------------------------------------- #
# Resolution
# --------------------------------------------------------------------- #


def test_resolution_tristate(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert not sanitizer_enabled()
    assert resolve_sanitizer(None) is None
    assert resolve_sanitizer(False) is None
    assert isinstance(resolve_sanitizer(True), Sanitizer)

    monkeypatch.setenv(ENV_VAR, "1")
    assert sanitizer_enabled()
    assert isinstance(resolve_sanitizer(None), Sanitizer)
    assert resolve_sanitizer(False) is None

    monkeypatch.setenv(ENV_VAR, "off")
    assert not sanitizer_enabled()


def test_existing_instance_passes_through():
    s = Sanitizer()
    assert resolve_sanitizer(s) is s  # degradation re-entry keeps history


# --------------------------------------------------------------------- #
# Detection
# --------------------------------------------------------------------- #


def test_clean_tree_passes():
    _ws, tree = _installed_tree()
    Sanitizer().check_tree(tree)
    tree.validate()  # agree with the tree's own structural check


def test_detects_wrong_parent_mbr():
    _ws, tree = _installed_tree()
    root = tree._node_unaccounted(tree.root_id)
    assert not root.is_leaf, "workload too small to corrupt an inner entry"
    root.entries[0].mbr = Rect(0.0, 0.0, 1e-6, 1e-6)
    with pytest.raises(InvariantViolation, match="MBR"):
        Sanitizer().check_tree(tree)


def test_detects_fanout_overflow():
    _ws, tree = _installed_tree()
    leaf_id = None
    stack = [tree.root_id]
    while stack:
        node = tree._node_unaccounted(stack.pop())
        if node.is_leaf:
            leaf_id = node.page_id
            break
        stack.extend(e.ref for e in node.entries)
    node = tree._node_unaccounted(leaf_id)
    node.entries.extend(node.entries[:1] * (tree.capacity + 1))
    with pytest.raises(InvariantViolation, match="capacity"):
        Sanitizer().check_tree(tree)


def _first_leaf(tree):
    stack = [tree.root_id]
    while stack:
        node = tree._node_unaccounted(stack.pop())
        if node.is_leaf:
            return node
        stack.extend(e.ref for e in node.entries)
    raise AssertionError("tree has no leaf")


def test_detects_stale_snapshot():
    """An entry MBR edited in place with neither ``invalidate_caches()``
    nor a stamp bump leaves the memoised snapshot stale; the snapshot
    check finds it although every tree invariant still holds (the
    leaf's two boxes trade places, so its union is unchanged)."""
    _ws, tree = _installed_tree()
    leaf = _first_leaf(tree)
    a, b = leaf.entries[0], leaf.entries[1]
    assert a.mbr != b.mbr
    leaf.invalidate_caches()  # no warm column cache to trip first
    column_tree_of(tree)
    Sanitizer().check_tree(tree)
    a.mbr, b.mbr = b.mbr, a.mbr
    with pytest.raises(InvariantViolation, match="snapshot"):
        Sanitizer().check_tree(tree)


def test_assembled_snapshot_after_a_write_is_clean():
    _ws, tree = _installed_tree()
    column_tree_of(tree)
    tree.insert(Rect(0.5, 0.5, 0.51, 0.51), 777_777)
    column_tree_of(tree)
    record = snapshot_record(tree)
    assert record.reread < record.nodes
    Sanitizer().check_tree(tree)


def test_detects_leaked_pin():
    ws, tree = _installed_tree()
    ws.buffer.fetch(tree.root_id, pin=True)
    with pytest.raises(InvariantViolation, match="pin"):
        Sanitizer().check_buffer(ws.buffer)
    ws.buffer.unpin(tree.root_id)
    Sanitizer().check_buffer(ws.buffer)  # balanced again -> clean


def test_detects_a_frame_holding_a_freed_page():
    ws, tree = _installed_tree()
    Sanitizer().check_freed(ws.buffer, (tree,))
    ws.buffer.fetch(tree.root_id)
    ws.disk.free([tree.root_id])   # the image goes, the frame stays
    with pytest.raises(InvariantViolation, match="freed page"):
        Sanitizer().check_freed(ws.buffer, (tree,))


def test_detects_a_live_tree_page_that_was_freed():
    ws, tree = _installed_tree()
    leaf = next(n for n in tree.iter_nodes() if n.is_leaf)
    ws.buffer.free([leaf.page_id])
    with pytest.raises(InvariantViolation, match="lost a page"):
        Sanitizer().check_freed(ws.buffer, (tree, None, "index"))


def test_detects_counter_decrease():
    ws, _tree = _installed_tree()
    s = Sanitizer()
    s.check_counters(ws.metrics)  # baseline snapshot
    ws.metrics.reset()  # counters go backwards
    with pytest.raises(InvariantViolation, match="decreased"):
        s.check_counters(ws.metrics)


def test_counter_growth_is_clean():
    ws, tree = _installed_tree()
    s = Sanitizer()
    s.check_counters(ws.metrics)
    tree.window_query(Rect(0.0, 0.0, 1.0, 1.0))  # accrues reads/tests
    s.check_counters(ws.metrics)


# --------------------------------------------------------------------- #
# Transparency: identical cost model, identical answers
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "method", ("BFJ", "RTJ", "STJ", "STJ1-2F", "NAIVE", "ZJOIN", "2STJ")
)
def test_sanitized_run_is_bit_identical(method):
    d_r, d_s = _workload()
    outputs = []
    for sanitize in (False, True):
        ws = Workspace(CFG)
        tree_r = ws.install_rtree(d_r)
        file_s = ws.install_datafile(d_s)
        ws.start_measurement()
        result = spatial_join(
            file_s, tree_r, ws.buffer, ws.config, ws.metrics,
            method=method, sanitize=sanitize,
        )
        outputs.append((sorted(result.pairs), ws.metrics.summary()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_sanitized_parallel_run_is_bit_identical():
    d_r, d_s = _workload()
    outputs = []
    for sanitize in (False, True):
        ws = Workspace(CFG)
        tree_r = ws.install_rtree(d_r)
        file_s = ws.install_datafile(d_s)
        ws.start_measurement()
        result = spatial_join(
            file_s, tree_r, ws.buffer, ws.config, ws.metrics,
            method="STJ", workers=2, partitions=4, sanitize=sanitize,
        )
        outputs.append((sorted(result.pairs), ws.metrics.summary()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_env_var_arms_the_default_path(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "1")
    d_r, d_s = _workload()
    ws = Workspace(CFG)
    tree_r = ws.install_rtree(d_r)
    file_s = ws.install_datafile(d_s)
    ws.start_measurement()
    # No sanitize kwarg at all: the env var alone must arm the checks,
    # and a healthy run must sail through them.
    result = spatial_join(file_s, tree_r, ws.buffer, ws.config, ws.metrics,
                          method="STJ")
    assert result.pairs is not None
