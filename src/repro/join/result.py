"""The common result record of all join algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: One join answer: (oid from the derived data set D_S, oid from D_R).
JoinPair = tuple[int, int]


@dataclass(frozen=True)
class ParallelDecision:
    """How the parallel planner resolved a ``workers=N`` request.

    ``predicted_speedup`` is the planner guard's deterministic
    entry-unit estimate of elapsed speedup versus a sequential run
    (``None`` when the guard never modelled the join — single worker,
    single tile, or empty input). A join runs either on the persistent
    worker pool (``pooled``) or in-process: when the prediction lands
    below 1.0, or the pool cannot take the inputs, ``effective_workers``
    drops to 1 while ``requested_workers`` keeps the caller's ask, and
    ``reason`` says why it ran in-process.
    """

    requested_workers: int
    effective_workers: int
    partitions: int
    pooled: bool
    predicted_speedup: float | None
    reason: str


@dataclass
class JoinResult:
    """What a join algorithm hands back.

    ``pairs`` always orients answers as (D_S object id, D_R object id) so
    results from different algorithms compare directly. ``index`` is the
    join-time structure an algorithm built (a seeded tree or R-tree),
    retained because Section 5 notes it can serve later selections; BFJ
    builds nothing and leaves it ``None``. Every other page the join
    built is freed when it ends; the index's pages stay while anything
    holds the index and are freed at the buffer's next safe point after
    the last handle goes (:mod:`repro.join.lifetime`).

    ``degraded`` records graceful degradation under fault injection: the
    requested algorithm's construction failed irrecoverably and the join
    was answered by brute force instead. ``fallback_from`` names the
    algorithm that was abandoned and ``degraded_reason`` carries the
    storage error that forced the downgrade. The *answers* of a degraded
    result are still exact — only the cost profile changed.

    ``trace`` is the :class:`~repro.metrics.tracing.JoinTrace` span tree
    the engine recorded, when tracing was requested (``None`` otherwise):
    per-phase wall time, I/O deltas, buffer hit rates and fault counters,
    exportable as Chrome trace-event JSON via ``trace.to_chrome_trace()``.

    ``phase_walls`` maps each engine phase name to its wall-clock
    seconds, recorded unconditionally (a dict read costs nothing, and
    unlike ``trace`` it never changes which execution path runs).
    Accumulated, not overwritten: a degraded run keeps the abandoned
    construction attempt's time alongside the fallback's phases.

    ``partitions`` is filled by partition-parallel runs only: one
    :class:`~repro.partition.PartitionStats` per executed tile, carrying
    that tile's pair counts and its full counter snapshot. The merged
    collector totals equal the sum of these snapshots exactly —
    :func:`repro.partition.summed_summary` recomputes the right-hand
    side of that equality.

    ``parallel_decision`` is likewise parallel-only: the
    :class:`ParallelDecision` recording what the planner guard
    predicted and which route (pooled or in-process) actually ran.
    """

    pairs: list[JoinPair] = field(default_factory=list)
    index: Any | None = None
    algorithm: str = ""
    degraded: bool = False
    fallback_from: str = ""
    degraded_reason: str = ""
    trace: Any | None = None
    phase_walls: dict[str, float] = field(default_factory=dict)
    partitions: list[Any] | None = None
    parallel_decision: ParallelDecision | None = None

    def __len__(self) -> int:
        return len(self.pairs)

    def pair_set(self) -> set[JoinPair]:
        """Deduplicated answers, for comparisons between algorithms."""
        return set(self.pairs)

    def __repr__(self) -> str:
        return f"JoinResult({self.algorithm or 'join'}: {len(self.pairs)} pairs)"
