"""STJ — the seeded tree join (the paper's algorithm).

Constructs a seeded tree for the derived data set ``D_S``, seeding it
from the existing R-tree ``T_R``, then matches the two trees with TM.
All of Section 2's policy knobs and Section 3's construction techniques
are exposed; the paper's named variants are::

    STJ1 = (C3, U3)        STJ2 = (C3, U4)
    STJ1-2N  two seed levels, no filtering
    STJ1-3F  three seed levels, seed-level filtering on

The pipeline has two phases: ``construct`` (seeding + growing +
clean-up, including all linked-list traffic) and ``match``, with the
buffer kept warm in between, as in the paper's protocol.

Under a :class:`~repro.storage.RecoveryPolicy` the engine runs the
construct phase through its checkpoint/resume loop: the growing phase
takes durable checkpoints (see :mod:`repro.seeded.recovery`), a
simulated crash discards the buffer and resumes from the last salvage
within a bounded crash budget — each attempt re-seeds a fresh tree,
which is deterministic, so the salvage record's slot indices line up —
and if construction still fails with a storage error the engine degrades
the join to BFJ against the pre-computed ``T_R``: the answers stay
exact, only the cost profile changes, and the downgrade is recorded on
the result and in the fault counters. With ``recovery=None`` (the
default) the legacy non-recovering path runs, byte-identical in cost.
"""

from __future__ import annotations

from typing import Any

from ..config import SystemConfig
from ..metrics import MetricsCollector, Phase
from ..metrics.tracing import JoinTrace
from ..rtree import RTree
from ..rtree.split import SplitFunction, quadratic_split
from ..seeded import CopyStrategy, GrowCheckpointer, SeededTree, UpdatePolicy
from ..seeded.builder import build_seeded_tree
from ..seeded.replay import BuildRecording, cached_construct, log_first
from ..storage import BufferPool, DataFile, RecoveryPolicy
from .bfj import bfj_pipeline
from .engine import ExecutionContext, ExecutionMode, JoinPhase, JoinPipeline
from .matching import match_trees
from .result import JoinResult


def _build_tree(ctx: ExecutionContext, checkpointer: Any, salvage: Any) -> None:
    tree_s = SeededTree(
        ctx.buffer, ctx.config, ctx.metrics, fast=ctx.mode.fast,
        **ctx.options["tree_kwargs"],
    )
    tree_s.seed(ctx.tree_r)
    tree_s.grow_from(ctx.data_s, checkpointer=checkpointer, resume=salvage)
    tree_s.cleanup()
    ctx.state["index"] = tree_s


def _build(ctx: ExecutionContext) -> BuildRecording | None:
    """The construct body: the log-first builder where it may run,
    returning its log as the warm recording; else the per-object loop."""
    if not log_first(ctx):
        _build_tree(ctx, None, None)
        return None
    ctx.state["index"], rec = build_seeded_tree(
        ctx.buffer, ctx.config, ctx.metrics, ctx.data_s, ctx.tree_r,
        fast=ctx.mode.fast, **ctx.options["tree_kwargs"],
    )
    return rec


def _construct(ctx: ExecutionContext) -> None:
    # The non-recovering construct is a pure function of (T_R, D_S,
    # knobs): a cold build runs off the buffer and replays its own
    # effect log (repro.seeded.builder), and a resident workspace
    # re-joining the same inputs replays that log again instead of
    # building (repro.seeded.replay). Recovery, fault-injected,
    # deadline-bound and kernels-off runs take the per-object body.
    cached_construct(ctx, _build)


def _make_checkpointer(ctx: ExecutionContext) -> GrowCheckpointer:
    assert ctx.buffer is not None and ctx.recovery is not None
    return GrowCheckpointer(ctx.buffer.disk, ctx.recovery.checkpoint_every)


def _load_resume(ctx: ExecutionContext, checkpointer: Any) -> Any:
    return checkpointer.load_latest()


def _match(ctx: ExecutionContext) -> None:
    ctx.state["pairs"] = match_trees(
        ctx.state["index"], ctx.tree_r, ctx.metrics, fast=ctx.mode.fast,
    )


def stj_pipeline() -> JoinPipeline:
    """Seeded-tree build then TM matching, degradable to BFJ."""
    return JoinPipeline(
        "STJ",
        [
            JoinPhase(
                "construct", _construct, metrics_phase=Phase.CONSTRUCT,
                recoverable_body=_build_tree,
                make_checkpointer=_make_checkpointer,
                load_resume=_load_resume,
                recovery_label="seeded-tree construction",
                allow_fallback=True,
            ),
            JoinPhase("match", _match, metrics_phase=Phase.MATCH),
        ],
        fallback=bfj_pipeline,
    )


def seeded_tree_join(
    data_s: DataFile,
    tree_r: RTree,
    buffer: BufferPool,
    config: SystemConfig,
    metrics: MetricsCollector,
    *,
    copy_strategy: CopyStrategy = CopyStrategy.CENTER_AT_SLOTS,
    update_policy: UpdatePolicy = UpdatePolicy.ENCLOSE_DATA_ONLY,
    seed_levels: int = 2,
    filtering: bool = False,
    use_linked_lists: bool | None = None,
    split: SplitFunction = quadratic_split,
    recovery: RecoveryPolicy | None = None,
    trace: JoinTrace | None = None,
    mode: ExecutionMode | None = None,
) -> JoinResult:
    """Join ``data_s`` with ``tree_r`` by constructing a seeded tree.

    Defaults give the paper's STJ1 with two seed levels and no filtering.
    """
    tree_kwargs = dict(
        copy_strategy=copy_strategy,
        update_policy=update_policy,
        seed_levels=seed_levels,
        filtering=filtering,
        use_linked_lists=use_linked_lists,
        split=split,
        name="T_S(stj)",
    )
    ctx = ExecutionContext(
        data_s=data_s, metrics=metrics, tree_r=tree_r, buffer=buffer,
        config=config, recovery=recovery, trace=trace,
        options={"tree_kwargs": tree_kwargs},
        mode=mode,
    )
    return stj_pipeline().execute(ctx)
