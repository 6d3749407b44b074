"""RTJ — R-tree join with a join-time index (Section 4).

"Algorithm RTJ first constructs an R-tree ``T_S`` for ``D_S``, and then
matches ``T_S`` with ``T_R``" — i.e. Brinkhoff et al.'s join, adapted to
the situation where ``D_S`` has no index by paying for a straightforward
R-tree construction at join time. The paper's key negative finding is
that this construction thrashes the buffer once the tree outgrows it,
making RTJ lose even to BFJ on total I/O.

The pipeline has two phases: ``construct`` (the join-time build) and
``match`` (tree matching, with the buffer kept warm in between, so dirty
``T_S`` pages written back during matching appear in the match ``wr``
column exactly as in the paper's tables).

Under a :class:`~repro.storage.RecoveryPolicy` the engine runs the
construct phase through its checkpoint/resume loop: the build snapshots
itself periodically (see :mod:`repro.rtree.checkpoint`) and a simulated
crash resumes from the last snapshot within a bounded crash budget;
exhausting the budget raises :class:`~repro.errors.RecoveryError`. RTJ
declares no BFJ fallback of its own — callers wanting degradation use
STJ, whose seeded construction is the paper's subject. With
``recovery=None`` (the default) the legacy path runs, byte-identical in
cost.
"""

from __future__ import annotations

from typing import Any

from ..config import SystemConfig
from ..metrics import MetricsCollector, Phase
from ..metrics.tracing import JoinTrace
from ..rtree import RTree, RTreeCheckpointer, build_with_checkpoints
from ..rtree.split import SplitFunction, quadratic_split
from ..seeded.builder import build_rtree
from ..seeded.replay import log_first
from ..storage import BufferPool, DataFile, RecoveryPolicy
from .engine import ExecutionContext, ExecutionMode, JoinPhase, JoinPipeline
from .matching import match_trees
from .result import JoinResult

_TREE_NAME = "T_S(rtj)"


def _construct(ctx: ExecutionContext) -> None:
    if log_first(ctx):
        # Same tree, pages and counters as the per-object build below,
        # computed off the buffer and replayed as one effect log.
        ctx.state["index"] = build_rtree(
            ctx.buffer, ctx.config, ctx.metrics, ctx.data_s,
            split=ctx.options["split"], name=_TREE_NAME, fast=ctx.mode.fast,
        )
        return
    ctx.state["index"] = RTree.build(
        ctx.buffer, ctx.config, ctx.data_s.scan(), metrics=ctx.metrics,
        split=ctx.options["split"], name=_TREE_NAME, fast=ctx.mode.fast,
    )


def _construct_recoverable(
    ctx: ExecutionContext, checkpointer: Any, resume: Any
) -> None:
    ctx.state["index"] = build_with_checkpoints(
        ctx.buffer, ctx.config, ctx.data_s.scan(), ctx.metrics,
        checkpointer=checkpointer, resume=resume,
        split=ctx.options["split"], name=_TREE_NAME, fast=ctx.mode.fast,
    )


def _make_checkpointer(ctx: ExecutionContext) -> RTreeCheckpointer:
    assert ctx.buffer is not None and ctx.recovery is not None
    return RTreeCheckpointer(
        ctx.buffer.disk, ctx.config, ctx.recovery.checkpoint_every
    )


def _load_resume(ctx: ExecutionContext, checkpointer: Any) -> Any:
    return checkpointer.load_latest(
        ctx.buffer, ctx.metrics, name=_TREE_NAME, fast=ctx.mode.fast,
    )


def _match(ctx: ExecutionContext) -> None:
    ctx.state["pairs"] = match_trees(
        ctx.state["index"], ctx.tree_r, ctx.metrics, fast=ctx.mode.fast,
    )


def rtj_pipeline() -> JoinPipeline:
    """Join-time R-tree build, then TM matching."""
    return JoinPipeline("RTJ", [
        JoinPhase(
            "construct", _construct, metrics_phase=Phase.CONSTRUCT,
            recoverable_body=_construct_recoverable,
            make_checkpointer=_make_checkpointer,
            load_resume=_load_resume,
            recovery_label="join-time R-tree construction",
        ),
        JoinPhase("match", _match, metrics_phase=Phase.MATCH),
    ])


def rtree_join(
    data_s: DataFile,
    tree_r: RTree,
    buffer: BufferPool,
    config: SystemConfig,
    metrics: MetricsCollector,
    split: SplitFunction = quadratic_split,
    recovery: RecoveryPolicy | None = None,
    trace: JoinTrace | None = None,
    mode: ExecutionMode | None = None,
) -> JoinResult:
    """Build an R-tree for ``data_s`` and TM-match it against ``tree_r``."""
    ctx = ExecutionContext(
        data_s=data_s, metrics=metrics, tree_r=tree_r, buffer=buffer,
        config=config, recovery=recovery, trace=trace,
        options={"split": split},
        mode=mode,
    )
    return rtj_pipeline().execute(ctx)
