"""The phase-based join execution engine.

Every join algorithm in this package is expressed as a
:class:`JoinPipeline` — an ordered list of named :class:`JoinPhase`
steps (``prepare`` → ``construct`` → ``filter`` → ``match`` →
``cleanup``; algorithms use the subset they need) — executed by one
engine that owns everything the drivers used to re-implement by hand:

* :meth:`~repro.metrics.MetricsCollector.phase` transitions, so cost
  attribution lives in exactly one place;
* checkpoint/resume crash recovery for construction phases (the loop
  previously duplicated between ``rtj._build_with_recovery`` and
  ``stj._construct_with_recovery``);
* the STJ→BFJ graceful-degradation path under a
  :class:`~repro.storage.RecoveryPolicy`;
* structured tracing (:mod:`repro.metrics.tracing`): one root span per
  join, one child span per phase, attached to the returned
  :class:`~repro.join.result.JoinResult`;
* page lifetime (:mod:`repro.join.lifetime`): the join owns every page
  it allocates, frees its scratch when it ends, and leaves the index's
  pages to a finalizer.

Drivers declare *what* each phase does through plain callables on an
:class:`ExecutionContext`; the engine decides *how* phases run. This is
the seam later work attaches to — per-phase scheduling, batching, and
parallel matching all wrap the executor, not six drivers.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

from ..analysis.sanitizer import Sanitizer, sanitizer_enabled
from ..config import SystemConfig
from ..errors import (
    ExperimentError,
    InvariantViolation,
    ParallelError,
    RecoveryError,
    SimulatedCrashError,
    StorageError,
)
from ..geometry import Rect
from ..kernels import kernels_enabled
from ..metrics import CollectorSnapshot, MetricsCollector, Phase
from ..metrics.tracing import JoinTrace, TraceSpan, shift_span_times
from ..partition import (
    GridPartitioner,
    PartitionStats,
    ShardDescriptor,
    joint_universe,
    make_shard_descriptors,
)
from ..storage import BufferPool, RecoveryPolicy
from ..storage.datafile import DataEntry
from ..workload.seeding import derive_seed
from .lifetime import end_join, join_buffer
from .result import JoinResult, ParallelDecision

__all__ = [
    "ExecutionContext",
    "ExecutionMode",
    "JoinPhase",
    "JoinPipeline",
    "ParallelExecutor",
    "PHASE_ORDER",
]

#: Canonical pipeline phase names, in execution order. Algorithms use a
#: subset; the engine checks declared phases respect this order so every
#: pipeline reads the same way.
PHASE_ORDER = ("prepare", "construct", "filter", "match", "cleanup")


@dataclass(frozen=True)
class ExecutionMode:
    """How one join runs: ``fast`` (``REPRO_KERNELS``) picks the fast
    path over the scalar reference, ``sanitize`` (``REPRO_SANITIZE``)
    arms the runtime sanitizer. Read once when the join starts, then
    passed down — on the :class:`ExecutionContext`, as a plain ``fast``
    into the trees the join builds, and inside each pool task."""

    fast: bool
    sanitize: bool

    @classmethod
    def from_env(cls, sanitize: bool | None = None) -> "ExecutionMode":
        """Read both switches once; an explicit ``sanitize`` wins."""
        return cls(
            fast=kernels_enabled(),
            sanitize=sanitizer_enabled() if sanitize is None else sanitize,
        )


@dataclass
class ExecutionContext:
    """Everything a pipeline run needs, plus scratch state between phases.

    ``options`` holds per-algorithm knobs (split function, variant
    policies, seed sources); ``state`` is the hand-off area phases write
    to and read from — conventionally ``state["index"]`` for the
    join-time structure and ``state["pairs"]`` for the answer set.

    ``mode`` is the join's :class:`ExecutionMode`; a context built
    without one reads the environment once, here. When it arms the
    sanitizer (:mod:`repro.analysis.sanitizer`) the engine creates a
    :class:`~repro.analysis.sanitizer.Sanitizer` on first execution and
    keeps it in ``sanitizer``, so a degradation re-entry continues the
    same counter-snapshot history.
    """

    data_s: Any
    metrics: MetricsCollector
    tree_r: Any | None = None
    buffer: BufferPool | None = None
    config: SystemConfig | None = None
    recovery: RecoveryPolicy | None = None
    trace: JoinTrace | None = None
    options: dict[str, Any] = field(default_factory=dict)
    state: dict[str, Any] = field(default_factory=dict)
    mode: ExecutionMode = None  # type: ignore[assignment]
    sanitizer: Sanitizer | None = None

    def __post_init__(self) -> None:
        if self.mode is None:
            self.mode = ExecutionMode.from_env()


#: A phase body: mutates ``ctx.state``, returns nothing.
PhaseBody = Callable[[ExecutionContext], None]
#: A recoverable construction body: ``(ctx, checkpointer, resume)``.
RecoverableBody = Callable[[ExecutionContext, Any, Any], None]


@dataclass
class JoinPhase:
    """One named step of a pipeline.

    ``metrics_phase`` selects the accounting phase the engine charges the
    step's I/O to (``None`` leaves the collector's current phase alone —
    used by oracle pipelines that account nothing).

    Construction phases may declare the recovery protocol:
    ``recoverable_body`` runs instead of ``body`` whenever the context
    carries a :class:`~repro.storage.RecoveryPolicy`, inside the
    engine's checkpoint/resume loop, with ``make_checkpointer`` /
    ``load_resume`` supplying the algorithm-specific snapshot machinery.
    ``fallback_errors`` (with a pipeline-level fallback factory) marks
    the phase as degradable: a :class:`~repro.errors.StorageError`
    escaping it downgrades the join instead of failing it.
    """

    name: str
    body: PhaseBody
    metrics_phase: Phase | None = None
    recoverable_body: RecoverableBody | None = None
    make_checkpointer: Callable[[ExecutionContext], Any] | None = None
    load_resume: Callable[[ExecutionContext, Any], Any] | None = None
    recovery_label: str = "construction"
    allow_fallback: bool = False


class JoinPipeline:
    """An ordered list of phases plus the executor that runs them.

    Parameters
    ----------
    algorithm:
        Name stamped on the :class:`~repro.join.result.JoinResult`.
    phases:
        The steps, in an order consistent with :data:`PHASE_ORDER`.
    fallback:
        Factory returning the degradation pipeline (BFJ) used when a
        phase with ``allow_fallback`` fails irrecoverably under a policy
        with ``fallback_to_bfj``. ``None`` disables degradation.
    """

    def __init__(
        self,
        algorithm: str,
        phases: list[JoinPhase],
        fallback: Callable[[], "JoinPipeline"] | None = None,
    ):
        ranks = {name: i for i, name in enumerate(PHASE_ORDER)}
        last = -1
        for phase in phases:
            rank = ranks.get(phase.name)
            if rank is None:
                raise ValueError(
                    f"unknown pipeline phase {phase.name!r}; "
                    f"expected one of {PHASE_ORDER}"
                )
            if rank < last:
                raise ValueError(
                    f"phase {phase.name!r} out of order; pipelines follow "
                    f"{PHASE_ORDER}"
                )
            last = rank
        self.algorithm = algorithm
        self.phases = phases
        self.fallback = fallback

    # ----------------------------------------------------------------- #
    # Execution
    # ----------------------------------------------------------------- #

    def execute(self, ctx: ExecutionContext) -> JoinResult:
        """Run the phases and assemble the result.

        The engine — never a driver — enters accounting phases, drives
        the crash-recovery loop, performs BFJ degradation, records trace
        spans, and (when enabled) runs the invariant sanitizer at every
        phase boundary.

        The join owns the pages it allocates. It first frees the index
        pages queued on its buffer (a safe point), and when it returns
        or fails frees the pages it allocated that the result's index
        does not hold (:mod:`repro.join.lifetime`). That runs after the
        result is built and is not I/O, so no counter of this join
        moves.
        """
        buffer = join_buffer(ctx)
        if buffer is None:
            return self._run(ctx)
        buffer.free_pending()
        start = buffer.disk.allocated_pages
        try:
            result = self._run(ctx)
        except Exception:
            # A failed join keeps nothing. (An interrupt is left alone:
            # it may land inside a pinned section.)
            end_join(buffer, start, None)
            raise
        end_join(buffer, start, result.index)
        if ctx.sanitizer is not None:
            ctx.sanitizer.check_freed(buffer, (ctx.tree_r, result.index))
        return result

    def _run(self, ctx: ExecutionContext) -> JoinResult:
        """The phase loop; a degradation re-enters here, inside the
        outermost :meth:`execute`."""
        if ctx.sanitizer is None and ctx.mode.sanitize:
            ctx.sanitizer = Sanitizer()
        sanitizer = ctx.sanitizer
        if ctx.trace is not None and ctx.trace.depth == 0:
            root_cm = ctx.trace.span(self.algorithm, kind="join")
        elif ctx.trace is not None:
            # Degradation re-enters execute() under the original root.
            root_cm = ctx.trace.span(f"join:{self.algorithm}", kind="join")
        else:
            root_cm = nullcontext()
        with root_cm:
            for phase in self.phases:
                # Cooperative request cancellation: a deadline installed
                # on the substrate (by the resident join service) is
                # honoured between phases too, so a CPU-bound phase over
                # a warm buffer cannot run on long after its request was
                # cancelled. No deadline, no behaviour change.
                if ctx.buffer is not None:
                    ctx.buffer.disk.check_deadline()
                try:
                    self._run_phase(ctx, phase)
                except StorageError as exc:
                    if (
                        phase.allow_fallback
                        and self.fallback is not None
                        and ctx.recovery is not None
                        and ctx.recovery.fallback_to_bfj
                    ):
                        return self._degrade(ctx, exc)
                    raise
                # Outside the phase's accounting context, so the checks
                # could not perturb attribution even if they charged
                # anything (they don't: all access is peek-only).
                if sanitizer is not None:
                    sanitizer.after_phase(ctx, phase.name)
            return self._assemble(ctx)

    def _run_phase(self, ctx: ExecutionContext, phase: JoinPhase) -> None:
        metrics_cm = (
            ctx.metrics.phase(phase.metrics_phase)
            if phase.metrics_phase is not None
            else nullcontext()
        )
        span_cm = (
            ctx.trace.span(phase.name, kind="phase",
                           phase=phase.metrics_phase)
            if ctx.trace is not None
            else nullcontext()
        )
        started = time.perf_counter()
        with span_cm, metrics_cm:
            if phase.recoverable_body is not None and ctx.recovery is not None:
                self._run_with_recovery(ctx, phase)
            else:
                phase.body(ctx)
        # Accumulated (not overwritten): a degraded run keeps the failed
        # attempt's time alongside the fallback pipeline's phases.
        walls = ctx.state.setdefault("phase_walls", {})
        walls[phase.name] = (
            walls.get(phase.name, 0.0) + time.perf_counter() - started
        )

    def _run_with_recovery(
        self, ctx: ExecutionContext, phase: JoinPhase
    ) -> None:
        """Checkpointed construction surviving crashes within the budget.

        Each simulated crash discards the buffer (dirty pages die, the
        disk survives), resets the arm, and resumes the next attempt from
        the latest durable snapshot — a charged read. Non-crash storage
        errors (corruption, exhausted retries) propagate to the caller's
        fallback handling. Exhausting the crash budget raises
        :class:`~repro.errors.RecoveryError`.
        """
        recovery = ctx.recovery
        assert recovery is not None and phase.recoverable_body is not None
        checkpointer = (
            phase.make_checkpointer(ctx)
            if recovery.checkpoint_every and phase.make_checkpointer
            else None
        )
        resume = None
        attempts = recovery.max_crash_recoveries + 1
        for attempt in range(attempts):
            try:
                phase.recoverable_body(ctx, checkpointer, resume)
                return
            except SimulatedCrashError as crash:
                assert ctx.buffer is not None
                ctx.buffer.crash_discard()
                ctx.buffer.disk.reset_arm()
                if attempt == attempts - 1:
                    raise RecoveryError(
                        f"{phase.recovery_label} crashed {attempts} times; "
                        f"crash budget "
                        f"({recovery.max_crash_recoveries} recoveries) "
                        f"exhausted"
                    ) from crash
                ctx.metrics.record_crash_recovery()
                resume = (
                    phase.load_resume(ctx, checkpointer)
                    if checkpointer is not None and phase.load_resume
                    else None
                )
        raise AssertionError("unreachable")  # pragma: no cover

    def _degrade(self, ctx: ExecutionContext, exc: StorageError) -> JoinResult:
        """Answer by brute force after irrecoverable construction failure.

        The answers stay exact — only the cost profile changes; the
        downgrade is recorded in the fault counters and on the result.
        """
        assert self.fallback is not None
        with ctx.metrics.phase(Phase.CONSTRUCT):
            ctx.metrics.record_fallback()
        result = self.fallback()._run(ctx)
        result.degraded = True
        result.fallback_from = self.algorithm
        result.degraded_reason = f"{type(exc).__name__}: {exc}"
        return result

    def _assemble(self, ctx: ExecutionContext) -> JoinResult:
        result = JoinResult(
            pairs=ctx.state.get("pairs", []),
            index=ctx.state.get("index"),
            algorithm=self.algorithm,
            phase_walls=ctx.state.get("phase_walls", {}),
        )
        result.trace = ctx.trace
        return result


# --------------------------------------------------------------------- #
# Partition-parallel execution
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class _PartitionTask:
    """Everything one tile's join needs.

    Built in-process from sliced shard descriptors, or inside a pool
    worker from a :class:`~repro.parallel.TileJob` and the shared
    columns. Either way the tile builds its own
    :class:`~repro.workspace.Workspace` from the entries, so no
    simulated disk, buffer, or tree is shared.
    """

    index: int
    method: str
    config: SystemConfig
    universe: tuple[float, float, float, float]
    rows: int
    cols: int
    entries_r: list[DataEntry]
    entries_s: list[DataEntry]
    options: dict[str, Any]
    seed: int
    want_trace: bool
    recovery: RecoveryPolicy | None = None
    mode: ExecutionMode = field(default_factory=ExecutionMode.from_env)


def needs_data_r(method: str) -> bool:
    """Does a tile's ``method`` join read ``D_R`` as a data file?"""
    return method in ("NAIVE", "ZJOIN", "2STJ")


@dataclass
class _PartitionOutcome:
    """What a worker sends back: answers, counters, spans."""

    index: int
    pairs: list[tuple[int, int]]
    raw_pairs: int
    snapshot: CollectorSnapshot
    algorithm: str
    n_r: int
    n_s: int
    wall_s: float
    setup_s: float = 0.0
    degraded: bool = False
    trace_roots: list[TraceSpan] | None = None
    trace_origin: float = 0.0


def _adapt_method(task: _PartitionTask, tree_height: int
                  ) -> tuple[str, dict[str, Any]]:
    """Fit the requested method to one shard's substrate.

    A tile's bulk-loaded ``T_R`` shard can be shallower than the seed
    levels the caller asked for (seeding requires strictly more tree
    levels than seed levels). The per-tile join then clamps the seed
    depth, or — when the shard tree is a single leaf and cannot seed at
    all — answers the tile by window queries (BFJ). Answers are
    unaffected either way; the effective method is recorded in the
    partition stats.
    """
    method = task.method
    options = dict(task.options)
    if method == "STJ":
        levels = options.get("seed_levels", 2)
        if tree_height < 2:
            return "BFJ", {}
        if levels >= tree_height:
            options["seed_levels"] = tree_height - 1
    elif method == "2STJ":
        options.setdefault("sample_seed", task.seed)
    return method, options


@dataclass
class _PartitionSubstrate:
    """One tile's private simulated-storage world, reusable across joins.

    The persistent worker pool keeps these warm: the workspace, the
    bulk-loaded shard ``T_R``, and the shard data files survive between
    joins on the same (dataset, grid, tile), so repeat joins skip the
    whole SETUP build. ``start_measurement`` before every join resets
    buffer and counters, which keeps warm-path cost accounting
    bit-identical to a cold build — the disk's page *contents* are the
    same either way, and counters track accesses, not page ids.
    """

    ws: Any
    tree_r: Any
    file_s: Any
    file_r: Any | None
    setup_s: float


def build_partition_substrate(task: _PartitionTask) -> _PartitionSubstrate:
    """Build one tile's substrate (shard data files, bulk ``T_R``).

    The build runs in the SETUP accounting phase and is later discarded
    from the counters by ``start_measurement`` — mirroring the
    sequential protocol, where inputs and ``T_R`` pre-exist and only
    the join is charged.
    """
    from ..workspace import Workspace

    setup_started = time.perf_counter()
    ws = Workspace(task.config)
    tree_r = ws.install_rtree(
        task.entries_r, name=f"T_R[p{task.index}]", bulk=True,
    )
    file_s = ws.install_datafile(task.entries_s, name=f"D_S[p{task.index}]")
    file_r = None
    if needs_data_r(task.method):
        file_r = ws.install_datafile(
            task.entries_r, name=f"D_R[p{task.index}]"
        )
    return _PartitionSubstrate(
        ws=ws, tree_r=tree_r, file_s=file_s, file_r=file_r,
        setup_s=time.perf_counter() - setup_started,
    )


def join_on_substrate(
    task: _PartitionTask, substrate: _PartitionSubstrate
) -> _PartitionOutcome:
    """Run one tile's (measured) join on an already-built substrate."""
    from .api import _make_trace, _sequential_join

    ws = substrate.ws
    method, options = _adapt_method(task, substrate.tree_r.height)
    ws.start_measurement()

    started = time.perf_counter()
    result = _sequential_join(
        method, substrate.file_s, substrate.tree_r, ws.buffer, ws.config,
        ws.metrics, task.mode, recovery=task.recovery,
        trace=_make_trace(task.want_trace, ws.metrics, ws.buffer),
        data_r=substrate.file_r, method_options=options,
    )
    wall_s = time.perf_counter() - started

    # Reference-point dedup: keep only the pairs this tile owns.
    partitioner = GridPartitioner(Rect(*task.universe), task.rows, task.cols)
    rect_s = {oid: rect for rect, oid in task.entries_s}
    rect_r = {oid: rect for rect, oid in task.entries_r}
    kept = [
        (oid_s, oid_r)
        for oid_s, oid_r in result.pairs
        if partitioner.owns_pair(task.index, rect_s[oid_s], rect_r[oid_r])
    ]
    return _PartitionOutcome(
        index=task.index,
        pairs=kept,
        raw_pairs=len(result.pairs),
        snapshot=CollectorSnapshot.capture(ws.metrics),
        algorithm=result.algorithm,
        n_r=len(task.entries_r),
        n_s=len(task.entries_s),
        wall_s=wall_s,
        setup_s=substrate.setup_s,
        degraded=result.degraded,
        trace_roots=result.trace.roots if result.trace is not None else None,
        trace_origin=(
            result.trace.origin if result.trace is not None else 0.0
        ),
    )


def run_partition_task(task: _PartitionTask) -> _PartitionOutcome:
    """Execute one tile's join in a fresh private substrate.

    The in-process route; the persistent pool's workers use the two
    halves (:func:`build_partition_substrate` /
    :func:`join_on_substrate`) separately so the substrate can stay warm
    between joins.
    """
    return join_on_substrate(task, build_partition_substrate(task))


# Planner-guard cost model, in "entry units" — the (amortized) work of
# pushing one entry through a per-tile join. The absolute scale cancels
# out of the speedup ratio; only the overhead constants matter, and they
# are deliberately calibrated coarse: the guard exists to catch joins
# that are *obviously* too small to parallelize, not to rank close
# calls. The model assumes workers can actually run concurrently (it
# does not consult the host's core count): its question is "is this
# workload big enough to cover the orchestration overhead", which is a
# property of the join, not of today's machine.
_GUARD_POOL_DISPATCH_UNITS = 400.0  # per-join round trip
_GUARD_POOL_TILE_UNITS = 80.0      # per tile message


def _lpt_makespan(costs: list[float], workers: int) -> float:
    """Longest-processing-time-first schedule length for ``costs``."""
    if not costs or workers < 1:
        return 0.0
    loads = [0.0] * min(workers, len(costs))
    for cost in sorted(costs, reverse=True):
        idx = min(range(len(loads)), key=loads.__getitem__)
        loads[idx] += cost
    return max(loads)


@dataclass
class _ParallelPlan:
    """One parallel join's resolved inputs.

    ``descriptors`` index the two lists in ``entries`` (``(entries_r,
    entries_s)``); a published dataset supplies its own lists, plus
    ``dataset``/``grid`` for the pool. When the inputs were not
    published, ``unpooled`` says why, and the join runs in-process.
    ``tile_counts`` and ``seq_units`` feed the planner guard either way.
    """

    partitioner: Any
    pooled: bool
    descriptors: list[ShardDescriptor]
    entries: tuple[list[DataEntry], list[DataEntry]]
    dataset: Any | None = None
    grid: Any | None = None
    unpooled: str = ""

    @property
    def seq_units(self) -> int:
        return len(self.entries[0]) + len(self.entries[1])

    @property
    def tile_counts(self) -> list[tuple[int, int]]:
        return [(d.n_r, d.n_s) for d in self.descriptors]


class ParallelExecutor:
    """Runs one logical join as per-tile joins across worker processes.

    The universe of both inputs is tiled into a uniform grid
    (:class:`~repro.partition.GridPartitioner`); both inputs are split
    into boundary-replicated shard descriptors (per-tile row indices);
    each productive tile becomes an independent per-partition pipeline
    run in its own seeded disk/buffer substrate (deterministic
    per-partition accounting); the reference-point rule dedups answers
    tile-locally; and the parent merges pair sets, I/O / CPU / fault
    counters, and trace spans into one
    :class:`~repro.join.result.JoinResult` whose accounting is the exact
    sum of the per-partition counters.

    Execution picks between two routes, recorded on the result as a
    :class:`~repro.join.result.ParallelDecision`:

    * **pooled** (default for ``workers > 1``): the persistent
      :class:`~repro.parallel.WorkerPool` — inputs published once into
      shared-memory columns, tile *descriptors* shipped over pipes,
      per-tile substrates kept warm between joins.
    * **in-process** (``workers=1``, the planner guard predicting a
      slowdown, or inputs the pool cannot publish — oids beyond
      int64): the same descriptors sliced into per-tile entry lists
      and run inline, no pool — the differential harness uses this to
      separate partitioning effects from multiprocessing effects.
    """

    def __init__(
        self,
        method: str,
        config: SystemConfig,
        workers: int = 1,
        partitions: int | None = None,
        options: dict[str, Any] | None = None,
        seed: int = 0,
        label: str | None = None,
        start_method: str | None = None,
        guard: bool | None = None,
    ):
        if workers < 1:
            raise ExperimentError("workers must be >= 1")
        if partitions is not None and partitions < 1:
            raise ExperimentError("partitions must be >= 1")
        self.method = method
        self.config = config
        self.workers = workers
        self.partitions = partitions if partitions is not None else 4 * workers
        self.options = dict(options or {})
        self.seed = seed
        self.label = label or method
        self.start_method = start_method
        # The planner guard is on unless the caller switches it off.
        self.guard = True if guard is None else guard

    # ----------------------------------------------------------------- #

    def run(
        self,
        data_s: Any,
        tree_r: Any,
        metrics: MetricsCollector,
        trace: JoinTrace | None = None,
        data_r: Any | None = None,
        recovery: RecoveryPolicy | None = None,
        mode: ExecutionMode | None = None,
    ) -> JoinResult:
        if mode is None:
            mode = ExecutionMode.from_env()
        sanitizer = Sanitizer() if mode.sanitize else None
        root_cm = (
            trace.span(f"parallel[{self.label}]", kind="join")
            if trace is not None
            else nullcontext()
        )
        with root_cm:
            plan = self._plan(data_s, tree_r, metrics, trace, data_r)
            base = trace.clock() if trace is not None else 0.0
            decision = self._decide(plan)
            outcomes = self._run_plan(
                plan, decision, trace is not None, recovery, mode,
            )
            result = self._merge(
                plan, outcomes, metrics, trace, base, sanitizer,
            )
            result.parallel_decision = decision
            return result

    # ----------------------------------------------------------------- #
    # Planning: extract, tile, shard
    # ----------------------------------------------------------------- #

    def _plan(
        self,
        data_s: Any,
        tree_r: Any,
        metrics: MetricsCollector,
        trace: JoinTrace | None,
        data_r: Any | None,
    ) -> _ParallelPlan:
        span_cm = (
            trace.span("prepare-shards", kind="phase", phase=Phase.SETUP)
            if trace is not None
            else nullcontext()
        )
        # Shard preparation is substrate work, charged to SETUP like all
        # pre-existing-structure construction: each worker re-reads its
        # shard through its own accounted substrate, so charging the
        # parent-side extraction to a join phase would double-count it
        # and break the sum-of-partitions reconciliation. The reads here
        # are unaccounted for the same reason — this pass exists only to
        # route entries to tiles, and its accounted twin happens inside
        # every worker. (The pooled route may skip extraction entirely
        # on a warm dataset cache hit; skipping unaccounted work cannot
        # perturb a counter.)
        with span_cm, metrics.phase(Phase.SETUP):
            unpooled = "guard: input too small to pool"
            if self._pool_wanted(data_s, tree_r, data_r):
                plan = self._plan_pooled(data_s, tree_r, data_r)
                if plan is not None:
                    return plan
                unpooled = (
                    "inputs cannot be published to the pool "
                    "(oids beyond int64)"
                )
            entries_s = data_s.read_all_unaccounted()
            entries_r = (
                data_r.read_all_unaccounted() if data_r is not None
                else list(tree_r.all_objects())
            )
            universe = joint_universe(entries_r, entries_s)
            if universe is None:
                return self._empty_plan()
            partitioner = GridPartitioner.for_tile_count(
                universe, self.partitions
            )
            descriptors = make_shard_descriptors(
                partitioner, entries_r, entries_s
            )
            return _ParallelPlan(
                partitioner=partitioner,
                pooled=False,
                descriptors=descriptors,
                entries=(entries_r, entries_s),
                unpooled=unpooled,
            )

    def _empty_plan(self) -> _ParallelPlan:
        return _ParallelPlan(
            partitioner=None, pooled=False, descriptors=[], entries=([], []),
        )

    def _pool_wanted(
        self, data_s: Any, tree_r: Any, data_r: Any | None
    ) -> bool:
        """Should this join even try the persistent pool?

        A cheap pre-guard using only input *lengths* (no extraction, no
        scatter): when even a replication-free, perfectly balanced
        split could not beat sequential, don't publish shared columns
        for a join the real guard would run inline anyway.
        """
        if self.workers <= 1:
            return False
        if not self.guard:
            return True
        try:
            n = len(data_s) + (
                len(data_r) if data_r is not None else len(tree_r)
            )
        except TypeError:  # pragma: no cover - exotic input containers
            return True
        if n == 0:
            return False
        best_parallel = (
            _GUARD_POOL_DISPATCH_UNITS
            + _GUARD_POOL_TILE_UNITS * self.partitions
            + n / self.workers
        )
        return n / best_parallel >= 1.0

    def _plan_pooled(
        self, data_s: Any, tree_r: Any, data_r: Any | None
    ) -> _ParallelPlan | None:
        """The shared-memory plan, or ``None`` when publication fails.

        A warm :class:`~repro.parallel.DatasetCache` hit skips entry
        extraction *and* the scatter pass; a miss publishes the columns
        (once) and builds descriptor shards. Publication can refuse a
        dataset (oids beyond int64) — that degrades to the in-process
        route, never to a wrong answer.
        """
        from ..parallel import default_dataset_cache

        cache = default_dataset_cache()
        dataset = cache.lookup(data_s, tree_r, data_r)
        if dataset is None:
            entries_s = data_s.read_all_unaccounted()
            entries_r = (
                data_r.read_all_unaccounted() if data_r is not None
                else list(tree_r.all_objects())
            )
            if joint_universe(entries_r, entries_s) is None:
                return self._empty_plan()
            try:
                dataset = cache.publish(
                    data_s, tree_r, data_r, entries_r, entries_s
                )
            except ParallelError:
                return None
        partitioner, descriptors, grid = dataset.grid(self.partitions)
        return _ParallelPlan(
            partitioner=partitioner,
            pooled=True,
            descriptors=descriptors,
            entries=(dataset.entries_r, dataset.entries_s),
            dataset=dataset,
            grid=grid,
        )

    # ----------------------------------------------------------------- #
    # The planner guard
    # ----------------------------------------------------------------- #

    def _predict_speedup(self, plan: _ParallelPlan) -> float:
        tile_units = [float(nr + ns) for nr, ns in plan.tile_counts]
        workers = min(self.workers, len(tile_units))
        makespan = _lpt_makespan(tile_units, workers)
        overhead = (
            _GUARD_POOL_DISPATCH_UNITS
            + _GUARD_POOL_TILE_UNITS * len(tile_units)
        )
        parallel = overhead + makespan
        return plan.seq_units / parallel if parallel > 0 else 0.0

    def _decide(self, plan: _ParallelPlan) -> ParallelDecision:
        tiles = len(plan.tile_counts)
        if self.workers == 1:
            return ParallelDecision(
                1, 1, self.partitions, False, None,
                "single worker requested",
            )
        if tiles == 0:
            return ParallelDecision(
                self.workers, 1, self.partitions, False, None,
                "empty input",
            )
        if tiles == 1:
            return ParallelDecision(
                self.workers, 1, self.partitions, False, None,
                "single productive tile",
            )
        predicted = self._predict_speedup(plan)
        if self.guard and predicted < 1.0:
            return ParallelDecision(
                self.workers, 1, self.partitions, False, predicted,
                f"guard: predicted speedup {predicted:.2f} < 1.0; "
                f"running in-process",
            )
        if not plan.pooled:
            return ParallelDecision(
                self.workers, 1, self.partitions, False, predicted,
                f"{plan.unpooled}; running in-process",
            )
        return ParallelDecision(
            self.workers, self.workers, self.partitions, True, predicted,
            "persistent worker pool",
        )

    # ----------------------------------------------------------------- #
    # Execution: pooled or in-process
    # ----------------------------------------------------------------- #

    def _run_plan(
        self,
        plan: _ParallelPlan,
        decision: ParallelDecision,
        want_trace: bool,
        recovery: RecoveryPolicy | None,
        mode: ExecutionMode,
    ) -> list[_PartitionOutcome]:
        if not decision.pooled:
            tasks = self._materialize_tasks(
                plan, want_trace, recovery, mode,
            )
            return [run_partition_task(task) for task in tasks]
        from ..parallel import TileJob, get_default_pool

        dataset = plan.dataset
        jobs = [
            TileJob(
                dataset_key=dataset.key,
                version=dataset.version,
                grid=plan.grid,
                tile=d.tile.index,
                n_r=d.n_r,
                n_s=d.n_s,
                method=self.method,
                config=self.config,
                options=self.options,
                seed=derive_seed(self.seed, "partition", d.tile.index),
                want_trace=want_trace,
                recovery=recovery,
                mode=mode,
            )
            for d in plan.descriptors
        ]
        pool = get_default_pool(self.workers, self.start_method)
        return pool.run_join(dataset, jobs)

    def _materialize_tasks(
        self,
        plan: _ParallelPlan,
        want_trace: bool,
        recovery: RecoveryPolicy | None,
        mode: ExecutionMode,
    ) -> list[_PartitionTask]:
        partitioner = plan.partitioner
        er, es = plan.entries
        return [
            _PartitionTask(
                index=d.tile.index,
                method=self.method,
                config=self.config,
                universe=partitioner.universe.as_tuple(),
                rows=partitioner.rows,
                cols=partitioner.cols,
                entries_r=[er[i] for i in d.indices_r],
                entries_s=[es[i] for i in d.indices_s],
                options=self.options,
                seed=derive_seed(self.seed, "partition", d.tile.index),
                want_trace=want_trace,
                recovery=recovery,
                mode=mode,
            )
            for d in plan.descriptors
        ]

    # ----------------------------------------------------------------- #
    # Merge: pairs, counters, spans
    # ----------------------------------------------------------------- #

    def _merge(
        self,
        plan: _ParallelPlan,
        outcomes: list[_PartitionOutcome],
        metrics: MetricsCollector,
        trace: JoinTrace | None,
        base: float,
        sanitizer: Sanitizer | None = None,
    ) -> JoinResult:
        tiles = {d.tile.index: d.tile for d in plan.descriptors}
        stats: list[PartitionStats] = []
        pairs: list[tuple[int, int]] = []
        degraded = False
        # Reconciliation invariant, checked under the sanitizer: the
        # parent's counters after absorbing every partition equal the
        # counter-wise sum of the per-partition snapshots — same fold
        # order as the absorb loop, so even float fields (backoff
        # seconds) must agree bit for bit.
        expected = (
            CollectorSnapshot.capture(metrics) if sanitizer is not None
            else None
        )
        for outcome in sorted(outcomes, key=lambda o: o.index):
            metrics.absorb(outcome.snapshot)
            if expected is not None:
                expected = expected.merged_with(outcome.snapshot)
            pairs.extend(outcome.pairs)
            degraded = degraded or outcome.degraded
            stats.append(PartitionStats(
                index=outcome.index,
                tile=tiles[outcome.index].rect.as_tuple(),
                n_r=outcome.n_r,
                n_s=outcome.n_s,
                raw_pairs=outcome.raw_pairs,
                pairs=len(outcome.pairs),
                algorithm=outcome.algorithm,
                wall_s=outcome.wall_s,
                snapshot=outcome.snapshot,
                degraded=outcome.degraded,
                setup_s=outcome.setup_s,
            ))
            if trace is not None:
                trace.adopt(self._partition_span(outcome, base))
        if expected is not None:
            merged = CollectorSnapshot.capture(metrics)
            if merged != expected:
                raise InvariantViolation(
                    "merged collector counters are not the exact sum of "
                    "the per-partition snapshots (after merging "
                    f"{len(outcomes)} partitions)"
                )
        pairs.sort()
        result = JoinResult(
            pairs=pairs, index=None, algorithm=self.label,
        )
        result.partitions = stats
        result.trace = trace
        if degraded:
            result.degraded = True
            result.fallback_from = self.label
            result.degraded_reason = "one or more partitions degraded"
        return result

    @staticmethod
    def _partition_span(
        outcome: _PartitionOutcome, base: float
    ) -> TraceSpan:
        """One closed ``partition`` span wrapping the worker's own spans.

        The worker's clock means nothing here, so the subtree is rebased
        onto the parent timeline at the moment the parallel region
        dispatched; per-span durations are preserved exactly.
        """
        span = TraceSpan(
            name=f"partition[{outcome.index}]",
            kind="partition",
            start_s=base,
            end_s=base + outcome.wall_s,
        )
        for phase_name, io in outcome.snapshot.io.items():
            if io.total_accesses:
                span.io[phase_name] = io
        span.bbox_tests = outcome.snapshot.cpu.bbox_tests
        span.xy_tests = outcome.snapshot.cpu.xy_tests
        faults = outcome.snapshot.faults
        span.faults_injected = sum(f.faults_injected for f in faults.values())
        span.retries = sum(f.retries for f in faults.values())
        span.crash_recoveries = sum(
            f.crash_recoveries for f in faults.values()
        )
        span.checkpoints = sum(f.checkpoints for f in faults.values())
        span.fallbacks = sum(f.fallbacks for f in faults.values())
        if outcome.trace_roots:
            for root in outcome.trace_roots:
                shift_span_times(root, base - outcome.trace_origin)
                span.children.append(root)
        return span

