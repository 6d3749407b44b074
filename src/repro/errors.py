"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class. The subclasses mirror the major
subsystems: configuration, simulated storage, tree indices, and the
experiment harness.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A :class:`~repro.config.SystemConfig` value is invalid or inconsistent."""


class GeometryError(ReproError):
    """A rectangle or other geometric argument is malformed."""


class StorageError(ReproError):
    """Base class for simulated-storage failures."""


class PageNotFoundError(StorageError):
    """A page id was read that was never written to the simulated disk,
    or whose page was freed."""


class TransientIOError(StorageError):
    """A device hiccup on one access; retrying the access may succeed.

    Raised only by an armed :class:`~repro.storage.faults.FaultInjector`.
    The buffer pool and data-file scan paths retry these with bounded
    exponential backoff before letting them propagate.
    """


class CorruptPageError(StorageError):
    """A page failed its integrity check (torn write, bit flip, truncation).

    Corruption is persistent: retrying the read returns the same bytes,
    so this error is never retried. It surfaces instead of garbage
    geometry wherever checksums are verified — the byte codec, tree-dump
    loading, and the simulated disk under fault injection.
    """


class SimulatedCrashError(StorageError):
    """A fault-plan crash point fired; in-flight buffered state is lost.

    Construction drivers catch this to attempt checkpoint-based recovery;
    anywhere else it propagates as an ordinary typed failure.
    """


class RecoveryError(StorageError):
    """Crash/fault recovery gave up (attempt budget exhausted)."""


class BufferFullError(StorageError):
    """The buffer pool cannot evict any page (everything is pinned)."""


class PinError(StorageError):
    """A page was unpinned more times than it was pinned."""


class TreeError(ReproError):
    """Base class for index-structure failures."""


class NodeOverflowError(TreeError):
    """More entries were placed in a node than its capacity allows."""


class SeedingError(TreeError):
    """The seeding phase of a seeded tree was misconfigured.

    Raised, for example, when the requested number of seed levels exceeds
    the height of the seeding tree, or when growing is attempted before
    seeding.
    """


class TreePhaseError(TreeError):
    """An operation was invoked in the wrong phase of a tree's lifecycle.

    Seeded trees move through ``seeding -> growing -> cleanup -> ready``;
    inserting after cleanup or matching before cleanup raises this error.
    """


class InvariantViolation(ReproError):
    """A runtime sanitizer check failed at a phase boundary.

    Raised only when sanitizing is enabled (``REPRO_SANITIZE=1`` or
    ``sanitize=True``); see :mod:`repro.analysis.sanitizer`. The message
    names the violated invariant and the phase boundary it was caught at.
    """


class ServiceError(ReproError):
    """Base class for resident-join-service failures.

    Deliberately *not* a :class:`StorageError`: the engine's graceful-
    degradation path catches storage errors and re-answers by brute
    force, but a request that is over budget, shed, or out of time must
    abort — degrading it would spend even more of what it has run out
    of. Service errors therefore propagate as their own branch of the
    hierarchy.
    """


class QueueFullError(ServiceError):
    """The service's bounded request queue is past its high-water mark.

    Backpressure, not failure: the request was never admitted, no work
    was done on its behalf, and an identical resubmission may succeed
    once the queue drains. Counted as a *shed* outcome.
    """


class BudgetExceededError(ServiceError):
    """Admission control predicts the request would exceed its cost budget.

    The planner's cost model estimated the request's
    :class:`~repro.metrics.CostSummary` before any work ran; no cheaper
    method fit under the per-request I/O budget either, so the request
    was rejected outright rather than started and abandoned mid-flight.
    """


class DeadlineExceededError(ServiceError):
    """A request ran (or waited) past its deadline and was cancelled.

    Raised cooperatively from the storage layer's deadline checks — the
    watchdog hard-expires the request's :class:`~repro.service.Deadline`
    and the worker aborts at its next accounted disk access or phase
    boundary — or by the retry loop when the remaining deadline cannot
    cover another backoff.
    """


class ParallelError(ReproError):
    """Base class for persistent-worker-pool failures.

    Like :class:`ServiceError`, deliberately not a
    :class:`StorageError`: pool plumbing failures are host problems, not
    simulated-storage events, so they must never trigger the engine's
    STJ→BFJ degradation path or be absorbed by retry loops.
    """


class WorkerCrashError(ParallelError):
    """A pool worker process died while (or before) running a task.

    The pool respawns a replacement before raising, so the pool object
    remains usable; the *join* that was in flight is the casualty — its
    partial per-tile outcomes are discarded and the caller decides
    whether to rerun. The message names the worker, its exit code, and
    the task it held.
    """


class StaleDatasetError(ParallelError):
    """A worker was asked to run a tile of a dataset it cannot see.

    Raised when the dispatch protocol's invariant — publish before
    task, invalidate on version change — is broken, or when a shared
    segment disappeared under a live attachment (owner unlinked early).
    """


class WorkloadError(ReproError):
    """A workload/data-set generation request is invalid."""


class ExperimentError(ReproError):
    """An experiment id, profile, or algorithm name is unknown."""
