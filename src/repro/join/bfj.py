"""BFJ — the brute-force join (Section 4).

"Algorithm BFJ simply performs a series of window queries on the R-tree
``T_R``, using the data rectangles in ``D_S`` as query windows. The
aggregation of answers to these window queries is equivalent to a spatial
join between ``D_R`` and ``D_S``."

BFJ creates no structures, so its pipeline is a single ``match`` phase:
the sequential scan of ``D_S`` and all ``T_R`` node reads are charged to
matching. It profits fully from the buffer — when the set of touched
``T_R`` nodes fits in the buffer, repeat queries hit memory, which is
exactly the boundary case in which the paper observed BFJ winning
(Table 1). The same pipeline serves as the engine's degradation target
when STJ construction fails irrecoverably.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..metrics import MetricsCollector, Phase
from ..metrics.tracing import JoinTrace
from ..rtree import RTree
from ..rtree.query import window_query
from ..storage import DataFile
from ..storage.datafile import DataEntry
from .batch import window_join_batch
from .engine import ExecutionContext, ExecutionMode, JoinPhase, JoinPipeline
from .result import JoinPair, JoinResult


def _window_queries(rows: Iterable[DataEntry], tree_r: Any) -> list[JoinPair]:
    """The scalar reference: one window query per D_S rectangle."""
    pairs = []
    for rect, oid_s in rows:
        for oid_r in window_query(tree_r, rect):
            pairs.append((oid_s, oid_r))
    return pairs


def _match(ctx: ExecutionContext) -> None:
    if ctx.mode.fast:
        # The scan is materialised first — the scalar loop charges every
        # run read on its first iteration anyway. All window queries then
        # descend the columnar snapshot together; the replay fetches the
        # same pages in the same order and emits identical pairs (see
        # repro.join.batch). Oids beyond int64 leave the batch path
        # nothing to plan with, and the scalar loop answers instead.
        rows = list(ctx.data_s.scan())
        source = ctx.data_s if isinstance(ctx.data_s, DataFile) else None
        pairs = window_join_batch(rows, ctx.tree_r, source)
        if pairs is None:
            pairs = _window_queries(rows, ctx.tree_r)
        ctx.state["pairs"] = pairs
        return
    ctx.state["pairs"] = _window_queries(ctx.data_s.scan(), ctx.tree_r)


def bfj_pipeline() -> JoinPipeline:
    """One window query per ``D_S`` rectangle, all charged to matching."""
    return JoinPipeline("BFJ", [
        JoinPhase("match", _match, metrics_phase=Phase.MATCH),
    ])


def brute_force_join(
    data_s: DataFile,
    tree_r: RTree,
    metrics: MetricsCollector,
    trace: JoinTrace | None = None,
    mode: ExecutionMode | None = None,
) -> JoinResult:
    """Join ``data_s`` with the data indexed by ``tree_r`` via window queries."""
    ctx = ExecutionContext(
        data_s=data_s, metrics=metrics, tree_r=tree_r, trace=trace,
        mode=mode,
    )
    return bfj_pipeline().execute(ctx)
