"""Unit tests for the partition-parallel executor.

The differential suite (``tests/test_differential.py``) establishes
end-to-end equivalence with sequential runs; this module pins down the
executor's own contract — planning edge cases, the in-process
``workers=1`` path, per-partition statistics, trace structure, method
adaptation on shallow shard trees, and degradation propagation.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.join import spatial_join
from repro.join.engine import ParallelExecutor, _adapt_method, _PartitionTask
from repro.metrics import validate_chrome_trace
from repro.workload import ClusteredConfig, generate_clustered
from repro.workspace import Workspace

from ..conftest import random_entries

CFG = SystemConfig(page_size=104, buffer_pages=64)


def _env(n_r: int = 200, n_s: int = 120, seed: int = 5):
    ws = Workspace(CFG)
    d_r = generate_clustered(ClusteredConfig(
        n_r, cover_quotient=2.0, objects_per_cluster=10, seed=seed,
    ))
    d_s = generate_clustered(ClusteredConfig(
        n_s, cover_quotient=2.0, objects_per_cluster=10, seed=seed + 1,
        oid_start=10**6,
    ))
    tree_r = ws.install_rtree(d_r)
    file_s = ws.install_datafile(d_s)
    ws.start_measurement()
    return ws, tree_r, file_s


def _join(ws, tree_r, file_s, **kw):
    return spatial_join(
        file_s, tree_r, ws.buffer, ws.config, ws.metrics, **kw,
    )


# --------------------------------------------------------------------- #
# Construction and planning
# --------------------------------------------------------------------- #


def test_invalid_shapes_rejected():
    from repro.errors import ExperimentError

    with pytest.raises(ExperimentError):
        ParallelExecutor("STJ", CFG, workers=0)
    with pytest.raises(ExperimentError):
        ParallelExecutor("STJ", CFG, workers=2, partitions=0)


def test_partitions_default_scales_with_workers():
    assert ParallelExecutor("STJ", CFG, workers=3).partitions == 12


def test_empty_input_short_circuits():
    ws = Workspace(CFG)
    tree_r = ws.install_rtree(random_entries(30, seed=3))
    empty = ws.install_datafile([])
    ws.start_measurement()
    res = _join(ws, tree_r, empty, method="STJ", workers=2, partitions=4,
                trace=True)
    assert res.pairs == []
    assert res.partitions == []
    assert not res.degraded
    (root,) = res.trace.roots
    assert root.name == "parallel[STJ]"


# --------------------------------------------------------------------- #
# workers=1 in-process path
# --------------------------------------------------------------------- #


def test_workers_one_matches_pool(monkeypatch):
    """The in-process fallback and the pool produce identical results,
    and the fallback never touches multiprocessing."""
    ws, tree_r, file_s = _env()
    pooled = _join(ws, tree_r, file_s, method="BFJ", workers=2, partitions=9)

    import repro.parallel as parallel_mod

    def _no_pool(*_args):  # pragma: no cover - failure path
        raise AssertionError("workers=1 must not use a pool")

    monkeypatch.setattr(parallel_mod, "get_default_pool", _no_pool)
    ws.start_measurement()
    serial = _join(ws, tree_r, file_s, method="BFJ", workers=1, partitions=9)
    assert serial.pair_set() == pooled.pair_set()
    assert [s.index for s in serial.partitions] == [
        s.index for s in pooled.partitions
    ]


# --------------------------------------------------------------------- #
# Partition statistics
# --------------------------------------------------------------------- #


def test_partition_stats_are_consistent():
    ws, tree_r, file_s = _env()
    res = _join(ws, tree_r, file_s, method="STJ", workers=2, partitions=8)
    stats = res.partitions
    assert stats
    assert [s.index for s in stats] == sorted(s.index for s in stats)
    for s in stats:
        assert s.n_r > 0 and s.n_s > 0, "unproductive shard was executed"
        assert 0 <= s.pairs <= s.raw_pairs, "dedup cannot add pairs"
        assert s.wall_s >= 0.0
        assert len(s.tile) == 4
    assert sum(s.pairs for s in stats) == len(res.pairs)
    # Replication: shard sizes sum to >= the input sizes.
    assert sum(s.n_s for s in stats) >= len(file_s)


def test_variant_label_survives_merging():
    ws, tree_r, file_s = _env()
    res = _join(ws, tree_r, file_s, method="STJ1-2N", workers=1,
                partitions=4)
    assert res.algorithm == "STJ1-2N"
    # Workers ran plain STJ (possibly clamped) on their shard trees.
    assert {s.algorithm for s in res.partitions} <= {"STJ", "BFJ"}


# --------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------- #


def test_trace_structure_and_chrome_export():
    ws, tree_r, file_s = _env()
    res = _join(ws, tree_r, file_s, method="STJ", workers=2, partitions=4,
                trace=True)
    (root,) = res.trace.roots
    assert root.name == "parallel[STJ]" and root.kind == "join"
    prepare = root.children[0]
    assert prepare.name == "prepare-shards" and prepare.kind == "phase"
    partition_spans = [c for c in root.children if c.kind == "partition"]
    assert [p.name for p in partition_spans] == [
        f"partition[{s.index}]" for s in res.partitions
    ]
    for span in partition_spans:
        # Worker subtrees were rebased onto the parent timeline: the
        # child join span starts at the partition span's start.
        assert span.start_s >= prepare.end_s
        for child in span.children:
            assert child.start_s == pytest.approx(span.start_s)
            assert child.end_s <= root.end_s + 1e-6
    validate_chrome_trace(res.trace.to_chrome_trace())


# --------------------------------------------------------------------- #
# Method adaptation
# --------------------------------------------------------------------- #


def _task(method: str, options: dict | None = None) -> _PartitionTask:
    return _PartitionTask(
        index=0, method=method, config=CFG,
        universe=(0.0, 0.0, 1.0, 1.0), rows=1, cols=1,
        entries_r=[], entries_s=[], options=options or {},
        seed=99, want_trace=False,
    )


def test_adapt_single_leaf_shard_falls_back_to_bfj():
    method, options = _adapt_method(_task("STJ"), tree_height=1)
    assert method == "BFJ" and options == {}


def test_adapt_clamps_seed_levels_to_shard_height():
    method, options = _adapt_method(
        _task("STJ", {"seed_levels": 3}), tree_height=3,
    )
    assert method == "STJ"
    assert options["seed_levels"] == 2


def test_adapt_leaves_feasible_request_alone():
    method, options = _adapt_method(
        _task("STJ", {"seed_levels": 1}), tree_height=4,
    )
    assert options["seed_levels"] == 1


def test_adapt_pins_two_stj_sample_seed():
    method, options = _adapt_method(_task("2STJ"), tree_height=4)
    assert method == "2STJ"
    assert options["sample_seed"] == 99


# --------------------------------------------------------------------- #
# Degradation propagation
# --------------------------------------------------------------------- #


def test_partition_degradation_propagates(monkeypatch):
    import repro.join.engine as engine_mod

    real = engine_mod.run_partition_task

    def degrade_all(task):
        outcome = real(task)
        outcome.degraded = True
        return outcome

    monkeypatch.setattr(engine_mod, "run_partition_task", degrade_all)
    ws, tree_r, file_s = _env(n_r=80, n_s=60)
    res = _join(ws, tree_r, file_s, method="BFJ", workers=1, partitions=4)
    assert res.degraded
    assert res.fallback_from == "BFJ"
    assert "partition" in res.degraded_reason
    assert any(s.degraded for s in res.partitions)
