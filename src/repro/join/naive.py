"""Quadratic reference join — the correctness oracle.

Not one of the paper's algorithms; it exists so every other join can be
checked against an implementation too simple to be wrong. It still runs
through the :class:`~repro.join.engine.JoinPipeline` (a single ``match``
phase) so the facade can dispatch it and traces can cover it, but no CPU
test accounting is attached: oracle comparisons must stay free of the
cost model they are checking. When the inputs are plain in-memory
iterables no I/O is charged either; a :class:`~repro.storage.DataFile`
input is scanned through the accounted path like any other join.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..geometry import Rect
from ..kernels import RectArray, intersect_indices
from ..metrics import MetricsCollector, Phase
from .engine import ExecutionContext, JoinPhase, JoinPipeline
from .result import JoinResult


def _entries(source: Any) -> Iterable[tuple[Rect, int]]:
    """Entries of either a DataFile-like object or a plain iterable."""
    scan = getattr(source, "scan", None)
    return scan() if callable(scan) else source


def _match(ctx: ExecutionContext) -> None:
    list_r = list(_entries(ctx.options["data_r"]))
    pairs = []
    if ctx.mode.fast and list_r:
        # Block-intersect through the RectArray columns: one vectorized
        # pass over the whole inner set per outer rectangle, emitting
        # hits in the same row-major order as the scalar loop. No CPU
        # accounting either way — the oracle stays outside the cost
        # model it checks.
        arr = RectArray.from_rects([rect for rect, _ in list_r])
        oids_r = [oid for _, oid in list_r]
        append = pairs.append
        for rect_s, oid_s in _entries(ctx.data_s):
            for i in intersect_indices(arr, rect_s):
                append((oid_s, oids_r[i]))
    else:
        for rect_s, oid_s in _entries(ctx.data_s):
            for rect_r, oid_r in list_r:
                if rect_s.intersects(rect_r):
                    pairs.append((oid_s, oid_r))
    ctx.state["pairs"] = pairs


def naive_pipeline(algorithm: str = "naive") -> JoinPipeline:
    """All-pairs rectangle test; ``ctx.options['data_r']`` is the inner set."""
    return JoinPipeline(algorithm, [
        JoinPhase("match", _match, metrics_phase=Phase.MATCH),
    ])


def naive_join(
    data_s: Iterable[tuple[Rect, int]],
    data_r: Iterable[tuple[Rect, int]],
    metrics: MetricsCollector | None = None,
) -> JoinResult:
    """All (oid_s, oid_r) pairs with overlapping rectangles, by brute force."""
    ctx = ExecutionContext(
        data_s=data_s,
        metrics=metrics if metrics is not None else MetricsCollector(),
        options={"data_r": data_r},
    )
    return naive_pipeline().execute(ctx)
