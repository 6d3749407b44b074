"""The two-seeded-tree join (Section 5 of the paper).

When *both* join inputs are derived data sets — outputs of earlier joins
or selections — no pre-computed R-tree is closely related to either, and
the paper suggests constructing *two* seeded trees over a *common* set of
artificial seed levels, built either from a uniform grid of slots or from
spatially sampled data. Matching two trees seeded identically preserves
the alignment benefit of seeding: corresponding regions of the two data
sets land under corresponding slots.

As a pipeline: ``prepare`` derives the common seed boxes, ``construct``
builds both seeded trees over them, ``match`` runs TM; prepare and
construct are both charged to the construction accounting phase (the
sampling scans are join-time work). Both variants proposed in the
paper's discussion are implemented:

* ``seeds="grid"`` — slot boxes uniformly tile the map area;
* ``seeds="sample"`` — slot boxes are a spatial sample of both inputs
  (the sampling scans are charged as construction I/O).
"""

from __future__ import annotations

import random

from ..config import SystemConfig
from ..errors import ExperimentError
from ..geometry import Rect
from ..metrics import MetricsCollector, Phase
from ..metrics.tracing import JoinTrace
from ..rtree.split import SplitFunction, quadratic_split
from ..seeded import CopyStrategy, SeededTree, UpdatePolicy
from ..seeded.builder import build_seeded_tree
from ..seeded.replay import log_first
from ..storage import BufferPool, DataFile
from .engine import ExecutionContext, JoinPhase, JoinPipeline
from .matching import match_trees
from .result import JoinResult


def grid_boxes(map_area: Rect, cells_per_side: int) -> list[Rect]:
    """A uniform ``cells_per_side`` x ``cells_per_side`` tiling of the map."""
    if cells_per_side < 1:
        raise ExperimentError("grid needs at least one cell per side")
    xs = map_area.width / cells_per_side
    ys = map_area.height / cells_per_side
    boxes = []
    for i in range(cells_per_side):
        for j in range(cells_per_side):
            boxes.append(
                Rect(
                    map_area.xlo + i * xs,
                    map_area.ylo + j * ys,
                    map_area.xlo + (i + 1) * xs,
                    map_area.ylo + (j + 1) * ys,
                )
            )
    return boxes


def sample_boxes(
    data_a: DataFile,
    data_b: DataFile,
    sample_size: int,
    seed: int = 0,
) -> list[Rect]:
    """Reservoir-sample bounding boxes from both inputs (accounted scans)."""
    rng = random.Random(seed)
    reservoir: list[Rect] = []
    seen = 0
    for source in (data_a, data_b):
        for rect, _oid in source.scan():
            seen += 1
            if len(reservoir) < sample_size:
                reservoir.append(rect)
            else:
                j = rng.randrange(seen)
                if j < sample_size:
                    reservoir[j] = rect
    if not reservoir:
        raise ExperimentError("cannot sample seed boxes from empty inputs")
    return reservoir


def _prepare(ctx: ExecutionContext) -> None:
    opts = ctx.options
    if opts["seeds"] == "grid":
        area = opts["map_area"] or Rect(0.0, 0.0, 1.0, 1.0)
        boxes = grid_boxes(area, opts["grid_cells"])
    elif opts["seeds"] == "sample":
        boxes = sample_boxes(
            ctx.data_s, opts["data_b"], opts["sample_size"],
            opts["sample_seed"],
        )
    else:
        raise ExperimentError(
            f"unknown seed source {opts['seeds']!r}; use 'grid' or 'sample'"
        )
    ctx.state["seed_boxes"] = boxes


def _construct(ctx: ExecutionContext) -> None:
    opts = ctx.options
    boxes = ctx.state["seed_boxes"]
    # Both trees build log-first (repro.seeded.builder) where
    # construction replay may run and both inputs are data files.
    log = log_first(ctx) and isinstance(opts["data_b"], DataFile)
    trees = []
    for data, label in ((ctx.data_s, "T_A"), (opts["data_b"], "T_B")):
        kwargs = dict(
            copy_strategy=opts["copy_strategy"],
            update_policy=opts["update_policy"],
            use_linked_lists=opts["use_linked_lists"],
            split=opts["split"],
            name=label,
        )
        if log:
            tree, _ = build_seeded_tree(
                ctx.buffer, ctx.config, ctx.metrics, data, boxes,
                fast=ctx.mode.fast, **kwargs,
            )
        else:
            tree = SeededTree(ctx.buffer, ctx.config, ctx.metrics,
                              fast=ctx.mode.fast, **kwargs)
            tree.seed_from_boxes(boxes)
            tree.grow_from(data)
            tree.cleanup()
        trees.append(tree)
    ctx.state["tree_a"], ctx.state["tree_b"] = trees
    ctx.state["index"] = trees[0]


def _match(ctx: ExecutionContext) -> None:
    ctx.state["pairs"] = match_trees(
        ctx.state["tree_a"], ctx.state["tree_b"], ctx.metrics,
        fast=ctx.mode.fast,
    )


def two_seeded_phases() -> list[JoinPhase]:
    """The prepare/construct/match steps, for composition by the facade."""
    return [
        JoinPhase("prepare", _prepare, metrics_phase=Phase.CONSTRUCT),
        JoinPhase("construct", _construct, metrics_phase=Phase.CONSTRUCT),
        JoinPhase("match", _match, metrics_phase=Phase.MATCH),
    ]


def two_seeded_pipeline(algorithm: str = "2STJ") -> JoinPipeline:
    """Common seed levels, two seeded trees, one TM match."""
    return JoinPipeline(algorithm, two_seeded_phases())


def two_seeded_join(
    data_a: DataFile,
    data_b: DataFile,
    buffer: BufferPool,
    config: SystemConfig,
    metrics: MetricsCollector,
    *,
    seeds: str = "grid",
    grid_cells: int = 16,
    sample_size: int = 256,
    map_area: Rect | None = None,
    copy_strategy: CopyStrategy = CopyStrategy.CENTER_AT_SLOTS,
    update_policy: UpdatePolicy = UpdatePolicy.ENCLOSE_DATA_ONLY,
    use_linked_lists: bool | None = None,
    split: SplitFunction = quadratic_split,
    sample_seed: int = 0,
    trace: JoinTrace | None = None,
) -> JoinResult:
    """Join two index-less data sets via a common artificial seeding.

    Returns pairs oriented (``data_a`` oid, ``data_b`` oid).
    """
    ctx = ExecutionContext(
        data_s=data_a, metrics=metrics, buffer=buffer, config=config,
        trace=trace,
        options={
            "data_b": data_b,
            "seeds": seeds,
            "grid_cells": grid_cells,
            "sample_size": sample_size,
            "map_area": map_area,
            "copy_strategy": copy_strategy,
            "update_policy": update_policy,
            "use_linked_lists": use_linked_lists,
            "split": split,
            "sample_seed": sample_seed,
        },
    )
    return two_seeded_pipeline().execute(ctx)
