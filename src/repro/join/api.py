"""The public join facade and the paper's variant naming scheme.

The paper names its seeded-tree variants like ``STJ1-2F``: flavour 1 or 2
(STJ1 = copy strategy C3 with update policy U3, STJ2 = C3 with U4), the
number of seed levels after the hyphen, and a trailing ``F``/``N`` for
seed-level filtering on/off. :class:`STJVariant` parses and renders those
names; :func:`spatial_join` accepts them directly, so experiment code can
say ``spatial_join(data, tree, ..., method="STJ2-3F")`` and get exactly
the paper's configuration.

Beyond the paper's three evaluated methods, the facade dispatches the
whole algorithm shelf through the execution engine: ``"NAIVE"`` (the
quadratic oracle), ``"ZJOIN"`` (the z-order merge join), and ``"2STJ"``
(the two-seeded-tree join of Section 5). These need the indexed side's
raw rectangles, not its R-tree; pass them as ``data_r`` (a
:class:`~repro.storage.DataFile`) or let the facade lift them out of
``tree_r`` — an oracle-style extraction that charges no read I/O, since
no real system would join through an index it is simultaneously
dismantling.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..config import SystemConfig
from ..errors import ExperimentError
from ..metrics import MetricsCollector, Phase
from ..metrics.tracing import JoinTrace
from ..rtree import RTree
from ..rtree.split import quadratic_split
from ..seeded import CopyStrategy, UpdatePolicy
from ..storage import BufferPool, DataFile, RecoveryPolicy
from ..storage.datafile import DataEntry
from ..zorder.zfile import ObjectColumns, ZFile
from .batch import column_tree_of, snapshot_record
from .bfj import brute_force_join
from .engine import (
    ExecutionContext,
    ExecutionMode,
    JoinPhase,
    JoinPipeline,
    ParallelExecutor,
)
from .naive import naive_pipeline
from .result import JoinResult
from .rtj import rtree_join
from .stj import seeded_tree_join
from .two_seeded import two_seeded_phases
from .zjoin import zjoin_phases

_VARIANT_RE = re.compile(r"^STJ([12])-(\d+)([FN])$", re.IGNORECASE)

#: Flavour number -> (copy strategy, update policy), per Section 4.1.
_FLAVOURS = {
    1: (CopyStrategy.CENTER_AT_SLOTS, UpdatePolicy.ENCLOSE_DATA_ONLY),
    2: (CopyStrategy.CENTER_AT_SLOTS, UpdatePolicy.SLOT_WITH_SEED),
}


@dataclass(frozen=True)
class STJVariant:
    """One named STJ configuration, e.g. ``STJ1-2N`` or ``STJ2-3F``."""

    flavour: int
    seed_levels: int
    filtering: bool

    @classmethod
    def parse(cls, name: str) -> "STJVariant":
        match = _VARIANT_RE.match(name.strip())
        if not match:
            raise ExperimentError(
                f"not an STJ variant name: {name!r} (expected e.g. 'STJ1-2F')"
            )
        return cls(
            flavour=int(match.group(1)),
            seed_levels=int(match.group(2)),
            filtering=match.group(3).upper() == "F",
        )

    @property
    def name(self) -> str:
        return (
            f"STJ{self.flavour}-{self.seed_levels}"
            f"{'F' if self.filtering else 'N'}"
        )

    @property
    def copy_strategy(self) -> CopyStrategy:
        return _FLAVOURS[self.flavour][0]

    @property
    def update_policy(self) -> UpdatePolicy:
        return _FLAVOURS[self.flavour][1]


def _make_trace(
    trace: bool | JoinTrace,
    metrics: MetricsCollector,
    buffer: BufferPool | None,
) -> JoinTrace | None:
    if isinstance(trace, JoinTrace):
        return trace
    return JoinTrace(metrics, buffer) if trace else None


def _indexed_side_entries(tree_r: RTree, data_r: DataFile | None):
    """The raw (rect, oid) entries of the indexed side.

    A supplied ``data_r`` file is scanned through the accounted path;
    otherwise the entries are lifted out of ``tree_r`` uncharged.
    """
    if data_r is not None:
        return data_r
    return tree_r.all_objects()


def _naive_join(
    data_s: DataFile,
    tree_r: RTree,
    metrics: MetricsCollector,
    data_r: DataFile | None,
    trace: JoinTrace | None,
    mode: ExecutionMode | None = None,
) -> JoinResult:
    ctx = ExecutionContext(
        data_s=data_s, metrics=metrics, tree_r=tree_r, trace=trace,
        options={"data_r": _indexed_side_entries(tree_r, data_r)},
        mode=mode,
    )
    return naive_pipeline("NAIVE").execute(ctx)


def _snapshot_objects(tree_r: RTree) -> ObjectColumns | None:
    """``tree_r``'s objects as columns, from the snapshot it holds.

    The snapshot is the one carried from the tree's build or memoised
    by an earlier join, reassembled if the tree was written since
    (:func:`~repro.join.batch.column_tree_of`). Its nodes are in
    ``iter_nodes`` order, so its leaf entries are in ``all_objects()``
    order. ``None`` when the tree has no snapshot record, or has none
    because an object id does not fit int64.
    """
    if snapshot_record(tree_r) is None:
        return None
    snapshot = column_tree_of(tree_r)
    if snapshot is None:
        return None
    leaf = snapshot.echild < 0
    corners = np.stack((snapshot.exlo[leaf], snapshot.eylo[leaf],
                        snapshot.exhi[leaf], snapshot.eyhi[leaf]), axis=1)
    return ObjectColumns(corners, snapshot.eref[leaf])


def _prepare_zfile_r(ctx: ExecutionContext) -> None:
    """Derive the indexed side's z-file at join time (charged).

    A supplied ``data_r`` is scanned through the accounted path; the
    tree's objects are lifted uncharged, as columns from its snapshot
    on the fast path (:func:`_snapshot_objects`), else with
    ``all_objects()``.
    """
    data_r = ctx.options.get("data_r")
    columns: ObjectColumns | None = None
    if data_r is None and ctx.mode.fast:
        columns = _snapshot_objects(ctx.tree_r)
    if columns is not None:
        entries: Iterable[DataEntry] | ObjectColumns = columns
    elif data_r is not None:
        entries = data_r.scan()
    else:
        entries = ctx.tree_r.all_objects()
    ctx.options["zfile_r"] = ZFile.build(
        ctx.buffer.disk, ctx.config, entries,
        max_elements=ctx.options["max_elements"], name="Z_R",
        fast=ctx.mode.fast,
    )


def _zorder_join(
    data_s: DataFile,
    tree_r: RTree,
    buffer: BufferPool,
    config: SystemConfig,
    metrics: MetricsCollector,
    data_r: DataFile | None,
    trace: JoinTrace | None,
    mode: ExecutionMode | None = None,
    max_elements: int = 4,
) -> JoinResult:
    # The indexed side has an R-tree but no z-file, so a prepare phase
    # derives one at join time, charged to construction alongside Z_S.
    pipeline = JoinPipeline("ZJOIN", [
        JoinPhase("prepare", _prepare_zfile_r, metrics_phase=Phase.CONSTRUCT),
        *zjoin_phases(),
    ])
    ctx = ExecutionContext(
        data_s=data_s, metrics=metrics, tree_r=tree_r, buffer=buffer,
        config=config, trace=trace,
        options={"data_r": data_r, "max_elements": max_elements},
        mode=mode,
    )
    return pipeline.execute(ctx)


def _prepare_data_b(ctx: ExecutionContext) -> None:
    """Materialise the indexed side as a derived data file if needed.

    Section 5's scenario treats both inputs as index-less, so the write
    is join-time construction work.
    """
    if ctx.options.get("data_b") is None:
        ctx.options["data_b"] = DataFile.create(
            ctx.buffer.disk, ctx.config, ctx.tree_r.all_objects(),
            name="D_R(2stj)",
        )


def _two_seeded_from_facade(
    data_s: DataFile,
    tree_r: RTree,
    buffer: BufferPool,
    config: SystemConfig,
    metrics: MetricsCollector,
    data_r: DataFile | None,
    trace: JoinTrace | None,
    mode: ExecutionMode | None = None,
    *,
    seeds: str = "grid",
    grid_cells: int = 16,
    sample_size: int = 256,
    map_area=None,
    copy_strategy: CopyStrategy = CopyStrategy.CENTER_AT_SLOTS,
    update_policy: UpdatePolicy = UpdatePolicy.ENCLOSE_DATA_ONLY,
    use_linked_lists: bool | None = None,
    split=None,
    sample_seed: int = 0,
) -> JoinResult:
    pipeline = JoinPipeline("2STJ", [
        JoinPhase("prepare", _prepare_data_b, metrics_phase=Phase.CONSTRUCT),
        *two_seeded_phases(),
    ])
    ctx = ExecutionContext(
        data_s=data_s, metrics=metrics, tree_r=tree_r, buffer=buffer,
        config=config, trace=trace,
        options={
            "data_b": data_r,
            "seeds": seeds,
            "grid_cells": grid_cells,
            "sample_size": sample_size,
            "map_area": map_area,
            "copy_strategy": copy_strategy,
            "update_policy": update_policy,
            "use_linked_lists": use_linked_lists,
            "split": split if split is not None else quadratic_split,
            "sample_seed": sample_seed,
        },
        mode=mode,
    )
    return pipeline.execute(ctx)


def _canonical_parallel_method(
    upper: str, method_options: dict
) -> tuple[str, dict, str]:
    """Resolve a facade method name for per-partition dispatch.

    Returns ``(worker_method, worker_options, display_label)``. Paper
    variant names are lowered to plain STJ keyword arguments so workers
    can clamp seed levels against their (smaller) shard trees while the
    merged result still reports the variant name.
    """
    if upper in ("BFJ", "RTJ", "NAIVE", "ZJOIN", "2STJ"):
        return upper, dict(method_options), upper
    if upper == "STJ":
        return "STJ", dict(method_options), "STJ"
    variant = STJVariant.parse(upper)
    options = dict(
        copy_strategy=variant.copy_strategy,
        update_policy=variant.update_policy,
        seed_levels=variant.seed_levels,
        filtering=variant.filtering,
    )
    options.update(method_options)
    return "STJ", options, variant.name


def _sequential_join(
    method: str,
    data_s: DataFile,
    tree_r: RTree,
    buffer: BufferPool,
    config: SystemConfig,
    metrics: MetricsCollector,
    mode: ExecutionMode,
    recovery: RecoveryPolicy | None,
    trace: JoinTrace | None,
    data_r: DataFile | None,
    method_options: dict,
) -> JoinResult:
    """Dispatch one single-substrate join, run wholly in ``mode``: for
    :func:`spatial_join`, and for each tile of a parallel join."""
    upper = method.strip().upper()
    if upper == "BFJ":
        return brute_force_join(data_s, tree_r, metrics, trace=trace,
                                mode=mode)
    if upper == "RTJ":
        return rtree_join(data_s, tree_r, buffer, config, metrics,
                          recovery=recovery, trace=trace, mode=mode)
    if upper == "NAIVE":
        return _naive_join(data_s, tree_r, metrics, data_r, trace, mode=mode)
    if upper == "ZJOIN":
        return _zorder_join(data_s, tree_r, buffer, config, metrics,
                            data_r, trace, mode=mode, **method_options)
    if upper == "2STJ":
        return _two_seeded_from_facade(
            data_s, tree_r, buffer, config, metrics, data_r, trace,
            mode=mode, **method_options,
        )
    if upper == "STJ":
        return seeded_tree_join(
            data_s, tree_r, buffer, config, metrics,
            recovery=recovery, trace=trace, mode=mode, **method_options,
        )
    variant = STJVariant.parse(upper)
    result = seeded_tree_join(
        data_s, tree_r, buffer, config, metrics,
        copy_strategy=variant.copy_strategy,
        update_policy=variant.update_policy,
        seed_levels=variant.seed_levels,
        filtering=variant.filtering,
        recovery=recovery,
        trace=trace,
        mode=mode,
        **method_options,
    )
    if not result.degraded:
        result.algorithm = variant.name
    else:
        result.fallback_from = variant.name
    return result


def spatial_join(
    data_s: DataFile,
    tree_r: RTree,
    buffer: BufferPool,
    config: SystemConfig,
    metrics: MetricsCollector,
    method: str = "STJ1-2N",
    recovery: RecoveryPolicy | None = None,
    trace: bool | JoinTrace = False,
    data_r: DataFile | None = None,
    workers: int | None = None,
    partitions: int | None = None,
    parallel_seed: int = 0,
    parallel_guard: bool | None = None,
    parallel_start_method: str | None = None,
    sanitize: bool | None = None,
    **method_options,
) -> JoinResult:
    """Join a derived data set with an R-tree-indexed one.

    ``method`` selects the algorithm: ``"BFJ"``, ``"RTJ"``, a paper
    variant name like ``"STJ1-2F"``, plain ``"STJ"`` (which uses the
    keyword arguments of :func:`~repro.join.stj.seeded_tree_join`), or
    one of the extended methods ``"NAIVE"``, ``"ZJOIN"``, ``"2STJ"``
    (which accept the keyword arguments of their drivers and use
    ``data_r`` — or rectangles lifted from ``tree_r`` — as the indexed
    side's raw data).

    ``recovery`` arms fault tolerance for the construction-based
    methods: checkpointed builds, bounded crash recovery, and (for STJ)
    graceful degradation to BFJ when construction fails irrecoverably —
    the downgrade is recorded on the returned result. BFJ builds nothing
    and ignores the policy. ``None`` (the default) runs the legacy
    non-recovering paths, byte-identical in cost.

    ``trace=True`` records a :class:`~repro.metrics.tracing.JoinTrace`
    span tree on the result (``result.trace``); tracing observes the
    metrics collector without perturbing any counter.

    ``workers``/``partitions`` switch to partition-parallel execution:
    the universe is tiled into ``partitions`` grid cells (default
    ``4 * workers``), both inputs are split into boundary-replicated
    shards, and per-tile joins run across a ``workers``-process pool
    (in-process when ``workers=1``), each in its own seeded disk/buffer
    substrate. Reference-point dedup makes the merged pair set exactly
    equal to a sequential run's, and the merged counters are exactly
    the sum of the per-partition counters (``result.partitions``).
    Available for every method; ``None`` (the default) is the
    single-substrate sequential path, byte-identical to before.
    ``parallel_seed`` feeds the stable per-partition seed derivation.

    Parallel runs use the **persistent worker pool**
    (:mod:`repro.parallel`): inputs are published once into
    shared-memory columns and workers stay warm across joins on the
    same data. A join the pool does not take runs in-process.
    ``parallel_guard`` controls the planner guard, which predicts the
    elapsed speedup from a deterministic cost model and falls back to
    in-process execution when parallelism would lose (``None``, the
    default, leaves it on; ``False`` forces the pool); the decision and
    its reason land on ``result.parallel_decision``.
    ``parallel_start_method`` pins the multiprocessing start method
    (default: ``REPRO_POOL_START_METHOD``, else fork where available,
    else the platform default).

    ``sanitize`` arms the runtime invariant sanitizer
    (:mod:`repro.analysis.sanitizer`): ``True`` forces it on, ``False``
    off, and ``None`` (the default) defers to the ``REPRO_SANITIZE``
    environment variable. All checks run through unaccounted paths, so
    the returned cost summary is bit-identical either way.

    The join reads ``REPRO_KERNELS`` and ``REPRO_SANITIZE`` once, here,
    and runs wholly in that :class:`~repro.join.engine.ExecutionMode`.
    """
    mode = ExecutionMode.from_env(sanitize)
    join_trace = _make_trace(trace, metrics, buffer)
    if workers is None and partitions is None:
        return _sequential_join(
            method, data_s, tree_r, buffer, config, metrics, mode, recovery,
            join_trace, data_r, method_options,
        )
    worker_method, options, label = _canonical_parallel_method(
        method.strip().upper(), method_options
    )
    executor = ParallelExecutor(
        method=worker_method,
        config=config,
        workers=workers if workers is not None else 1,
        partitions=partitions,
        options=options,
        seed=parallel_seed,
        label=label,
        start_method=parallel_start_method,
        guard=parallel_guard,
    )
    return executor.run(
        data_s, tree_r, metrics, trace=join_trace, data_r=data_r,
        recovery=recovery, mode=mode,
    )
