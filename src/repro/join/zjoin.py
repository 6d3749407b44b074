"""ZOJ — the z-order merge join (Orenstein; the paper's related work).

"Joining two spatial data sets amounts to merging two z-value streams."
Both inputs are represented as z-files (sorted element runs). Because
quadtree cells nest, two elements overlap exactly when one's z-interval
contains the other's, and the merge is the classic stack-based
algorithm:

* consume the two streams in ``zlo`` order;
* keep a stack per stream holding the elements whose intervals contain
  the current position (ancestors along the quad hierarchy);
* when an element arrives, every element on the *other* stream's stack
  contains it — emit those candidate pairs, then push it.

Candidates are then filtered with an exact bounding-box test (element
covers are conservative) and deduplicated (one object pair can meet
through several element pairs).

:func:`stack_merge` is that algorithm, the scalar reference;
:func:`batch_merge` gets the same pairs and charges from the files'
columns at once.

As a pipeline: ``construct`` builds the derived side's z-file (one data
scan plus one sequential write), ``match`` is one sequential sweep of
each z-file; the indexed side's z-file pre-exists like ``T_R``. The
price is *redundancy*: each object appears once per element, inflating
the files ([Ore89]); the trade-off is benchmarked in
``benchmarks/test_ablation_zorder.py``.
"""

from __future__ import annotations

import numpy as np

from ..config import SystemConfig
from ..kernels import kernels_enabled
from ..metrics import MetricsCollector, Phase
from ..metrics.tracing import JoinTrace
from ..storage import DataFile
from ..storage.disk import DiskSimulator
from ..zorder.zfile import ZEntry, ZFile, merge_key
from .engine import ExecutionContext, JoinPhase, JoinPipeline
from .result import JoinResult


def merge_z_streams(
    zfile_s: ZFile,
    zfile_r: ZFile,
    metrics: MetricsCollector,
    fast: bool | None = None,
) -> list[tuple[int, int]]:
    """Merge two z-files into their sorted, deduplicated object pairs.

    ``fast`` runs :func:`batch_merge`, ``False`` the scalar reference
    :func:`stack_merge`; both read the same pages and charge the same
    tests. ``None`` reads ``REPRO_KERNELS`` once.
    """
    if fast is None:
        fast = kernels_enabled()
    if fast:
        return batch_merge(zfile_s, zfile_r, metrics)
    return stack_merge(zfile_s, zfile_r, metrics)


def stack_merge(
    zfile_s: ZFile, zfile_r: ZFile, metrics: MetricsCollector
) -> list[tuple[int, int]]:
    """Stack-based merge of two z-files into deduplicated object pairs."""
    pairs: set[tuple[int, int]] = set()
    cpu = metrics.cpu
    stack_s: list[ZEntry] = []
    stack_r: list[ZEntry] = []
    iter_s = zfile_s.scan()
    iter_r = zfile_r.scan()
    head_s = next(iter_s, None)
    head_r = next(iter_r, None)

    def pop_expired(stack: list[ZEntry], zlo: int) -> None:
        while stack and stack[-1].element.zhi < zlo:
            stack.pop()

    while head_s is not None or head_r is not None:
        # Merge order must put containing intervals before contained
        # ones on zlo ties (ancestors first), or a parent arriving
        # second would never see its already-consumed child.
        if head_r is None:
            take_s = True
        elif head_s is None:
            take_s = False
        else:
            key_s = (head_s.element.zlo, -head_s.element.zhi)
            key_r = (head_r.element.zlo, -head_r.element.zhi)
            take_s = key_s <= key_r
        entry = head_s if take_s else head_r
        assert entry is not None
        zlo = entry.element.zlo
        pop_expired(stack_s, zlo)
        pop_expired(stack_r, zlo)

        own_stack, other_stack = (
            (stack_s, stack_r) if take_s else (stack_r, stack_s)
        )
        # Every element still on the other stack contains this one:
        # candidate pairs, subject to the exact rectangle test.
        for other in other_stack:
            cpu.xy_tests += 1           # interval containment check
            cpu.bbox_tests += 1         # exact bbox test
            if entry.mbr.intersects(other.mbr):
                if take_s:
                    pairs.add((entry.oid, other.oid))
                else:
                    pairs.add((other.oid, entry.oid))
        own_stack.append(entry)

        if take_s:
            head_s = next(iter_s, None)
        else:
            head_r = next(iter_r, None)

    return sorted(pairs)


def batch_merge(
    zfile_s: ZFile, zfile_r: ZFile, metrics: MetricsCollector
) -> list[tuple[int, int]]:
    """:func:`stack_merge`'s pairs and charges, from the files' columns.

    It reads the two files as the stack merge does (one sweep each, S
    first). A stack hit is an element meeting an element of the other
    file that is still on its stack, and that element contains it, so
    every hit is a cross pair of nested cells. Conversely every nested
    cross pair is hit exactly once: the container comes first in merge
    order (an equal S cell comes first too: ties go to S) and is never
    popped before the contained cell arrives. So the merge charges one
    ``xy_tests`` and one ``bbox_tests`` per nested cross pair, and its
    pairs are those nested pairs whose rectangles meet (closed test),
    deduplicated and sorted; this function counts and tests the pairs
    directly.
    """
    s = zfile_s.read_columns()
    r = zfile_r.read_columns()
    key_s = merge_key(s.zlo, s.zhi)
    key_r = merge_key(r.zlo, r.zhi)
    # Each file's merge keys are sorted, so the cells nested in a cell
    # are one slice of the other file: those at or past its own key,
    # up to its last z-value. R cells inside (or equal to) an S cell,
    # then S cells strictly inside an R cell, so that no pair is
    # counted twice.
    s_outer, r_inner = _expand(
        np.searchsorted(key_r, key_s, "left"),
        np.searchsorted(r.zlo, s.zhi, "right"),
    )
    r_outer, s_inner = _expand(
        np.searchsorted(key_s, key_r, "right"),
        np.searchsorted(s.zlo, r.zhi, "right"),
    )
    si = np.concatenate((s_outer, s_inner))
    ri = np.concatenate((r_inner, r_outer))
    cpu = metrics.cpu
    cpu.xy_tests += si.size      # interval containment checks
    cpu.bbox_tests += si.size    # exact bbox tests
    # Rect.intersects over every candidate pair.
    hit = ((s.xlo[si] <= r.xhi[ri]) & (r.xlo[ri] <= s.xhi[si])
           & (s.ylo[si] <= r.yhi[ri]) & (r.ylo[ri] <= s.yhi[si]))
    return sorted(set(zip(
        map(s.oids.__getitem__, si[hit].tolist()),
        map(r.oids.__getitem__, ri[hit].tolist()),
    )))


def _expand(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(i, j)`` for every ``i`` and every ``lo[i] <= j < hi[i]``."""
    counts = hi - lo
    i = np.repeat(np.arange(lo.size), counts)
    starts = np.cumsum(counts) - counts
    j = np.arange(i.size) + np.repeat(lo - starts, counts)
    return i, j


def _construct(ctx: ExecutionContext) -> None:
    zfile_r: ZFile = ctx.options["zfile_r"]
    disk: DiskSimulator = zfile_r.disk
    ctx.state["index"] = ZFile.build(
        disk, ctx.config, ctx.data_s.scan(),
        max_elements=ctx.options["max_elements"], name="Z_S",
        fast=ctx.mode.fast,
    )


def _match(ctx: ExecutionContext) -> None:
    ctx.state["pairs"] = merge_z_streams(
        ctx.state["index"], ctx.options["zfile_r"], ctx.metrics,
        fast=ctx.mode.fast,
    )


def zjoin_phases() -> list[JoinPhase]:
    """The construct/match steps, for composition by the facade."""
    return [
        JoinPhase("construct", _construct, metrics_phase=Phase.CONSTRUCT),
        JoinPhase("match", _match, metrics_phase=Phase.MATCH),
    ]


def zjoin_pipeline(algorithm: str = "ZOJ") -> JoinPipeline:
    """Build the derived side's z-file, then merge the two streams."""
    return JoinPipeline(algorithm, zjoin_phases())


def z_order_join(
    data_s: DataFile,
    zfile_r: ZFile,
    config: SystemConfig,
    metrics: MetricsCollector,
    max_elements: int = 4,
    trace: JoinTrace | None = None,
) -> JoinResult:
    """Join a derived data set with a z-indexed one by stream merging.

    ``zfile_r`` plays the role of the pre-existing index (build it in
    the SETUP phase with :meth:`ZFile.build`); the z-file for ``data_s``
    is constructed at join time.
    """
    ctx = ExecutionContext(
        data_s=data_s, metrics=metrics, config=config, trace=trace,
        options={"zfile_r": zfile_r, "max_elements": max_elements},
    )
    return zjoin_pipeline().execute(ctx)
