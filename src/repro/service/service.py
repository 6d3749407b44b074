"""The resident join service.

:class:`JoinService` keeps sessions' resident trees warm and serves
join / window-query requests against them through an asyncio front end:

* a **bounded queue** provides backpressure — past the high-water mark
  new requests are refused with a typed
  :class:`~repro.errors.QueueFullError` (outcome ``SHED``);
* **admission control** prices each join with the planner's closed-form
  estimators before any work runs, rejecting over-budget requests
  (:class:`~repro.errors.BudgetExceededError`, outcome ``REJECTED``) or
  downgrading them to a cheaper method that fits;
* the **overload ladder** (:mod:`repro.service.shedding`) downgrades
  seeded-tree requests to BFJ while the queue sits between the degrade
  and high watermarks — exact answers at a flatter cost profile;
* **deadlines** are enforced twice: cooperatively, by the storage layer
  checking the request's :class:`~repro.service.deadline.Deadline` at
  every accounted access, and promptly, by a watchdog task that resolves
  an expired request's future (outcome ``TIMED_OUT``) and hard-cancels
  its deadline so the worker thread aborts at its next checkpoint.

The sync engine runs unmodified on executor threads; a per-session lock
serializes requests touching the same substrate. Every submitted request
resolves to exactly **one** :class:`~repro.service.requests.ServiceResponse`
— the request-level form of the repo's exact-or-typed-error invariant,
asserted end-to-end by the service chaos suite.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from ..errors import (
    BudgetExceededError,
    DeadlineExceededError,
    QueueFullError,
    ReproError,
)
from ..join.api import spatial_join
from ..join.lifetime import release_index
from .admission import Action, AdmissionController, RequestBudget
from .deadline import Deadline
from .metrics import Readiness, ServiceMetrics, readiness
from .registry import ResidentSession, WorkspaceRegistry
from .requests import (
    JoinRequest,
    Outcome,
    Request,
    ServiceResponse,
    UpdateRequest,
)
from .shedding import LoadShedder, PressureLevel


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`JoinService`.

    Watermarks default to half (degrade) and all (shed) of the queue
    capacity. ``default_deadline_s=None`` leaves undeadlined requests
    unbounded; per-request ``deadline_s`` always wins.
    """

    queue_capacity: int = 64
    workers: int = 2
    degrade_water: int | None = None
    high_water: int | None = None
    default_deadline_s: float | None = None
    max_predicted_io: float | None = None
    allow_downgrade: bool = True
    watchdog_interval_s: float = 0.02
    stj_method: str = "STJ1-2N"

    def shedder(self) -> LoadShedder:
        high = self.high_water or self.queue_capacity
        degrade = self.degrade_water or max(1, self.queue_capacity // 2)
        return LoadShedder(degrade_water=min(degrade, high), high_water=high)

    def budget(self) -> RequestBudget:
        return RequestBudget(
            max_predicted_io=self.max_predicted_io,
            allow_downgrade=self.allow_downgrade,
        )


class _Ticket:
    """One submitted request's mutable service-side state.

    ``resolve`` is the single point every outcome funnels through; its
    lock guarantees first-resolver-wins, so the watchdog timing out a
    straggler and the worker finishing it can race safely.
    """

    __slots__ = (
        "request", "session", "method", "deadline", "future", "loop",
        "submitted_at", "admission_downgrade", "overload_degrade",
        "predicted_io", "resolved", "_lock",
    )

    def __init__(
        self,
        request: Request,
        session: ResidentSession | None,
        method: str,
        deadline: Deadline | None,
        loop: asyncio.AbstractEventLoop,
    ):
        self.request = request
        self.session = session
        self.method = method
        self.deadline = deadline
        self.loop = loop
        self.future: asyncio.Future[ServiceResponse] = loop.create_future()
        self.submitted_at = time.monotonic()
        self.admission_downgrade = False
        self.overload_degrade = False
        self.predicted_io: float | None = None
        self.resolved = False
        self._lock = threading.Lock()

    def resolve(self, response: ServiceResponse) -> bool:
        """Claim the single resolution; ``False`` if already claimed.

        Claiming and delivering are separate steps so the service can
        record counters *between* them — a client holding a response is
        then guaranteed to find it already counted in ``/metrics``.
        """
        with self._lock:
            if self.resolved:
                return False
            self.resolved = True
        response.latency_s = time.monotonic() - self.submitted_at
        response.predicted_io = self.predicted_io
        return True

    def deliver(self, response: ServiceResponse) -> None:
        def _deliver() -> None:
            if not self.future.done():
                self.future.set_result(response)

        self.loop.call_soon_threadsafe(_deliver)


_STOP = object()


class JoinService:
    """Asyncio front end over a registry of resident sessions."""

    def __init__(
        self,
        registry: WorkspaceRegistry,
        config: ServiceConfig | None = None,
    ):
        self.registry = registry
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics()
        self.admission = AdmissionController(self.config.budget())
        self.shedder = self.config.shedder()
        self.queue_capacity = self.config.queue_capacity
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=self.queue_capacity)
        self._inflight: set[_Ticket] = set()
        self._workers: list[asyncio.Task] = []
        self._watchdog_task: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._accepting = False

    # ----------------------------------------------------------------- #
    # Lifecycle
    # ----------------------------------------------------------------- #

    async def start(self) -> None:
        if self._accepting:
            return
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-service",
        )
        self._workers = [
            asyncio.ensure_future(self._worker())
            for _ in range(self.config.workers)
        ]
        self._watchdog_task = asyncio.ensure_future(self._watchdog())
        self._accepting = True

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, shed the backlog, drain.

        Also closes the process-wide persistent worker pools and unlinks
        every published shared-memory dataset: the service is the
        longest-lived pool client, so its shutdown is the natural point
        to return that memory (``atexit`` backstops abnormal exits).
        """
        self._accepting = False
        while True:
            try:
                ticket = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if ticket is not _STOP:
                self._resolve_refused(
                    ticket, Outcome.SHED,
                    QueueFullError("service shutting down"),
                )
                self._queue.task_done()
        for _ in self._workers:
            await self._queue.put(_STOP)
        if self._workers:
            await asyncio.gather(*self._workers)
        self._workers = []
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
            try:
                await self._watchdog_task
            except asyncio.CancelledError:
                pass
            self._watchdog_task = None
        # Executor teardown joins worker threads and the process pools
        # join their workers; both would stall the event loop (and any
        # concurrent heartbeat/health traffic) if called inline, so hop
        # them onto a throwaway executor thread.
        loop = asyncio.get_running_loop()
        if self._executor is not None:
            executor = self._executor
            self._executor = None
            await loop.run_in_executor(
                None, functools.partial(executor.shutdown, wait=True)
            )
        from ..parallel import shutdown_default_pools

        await loop.run_in_executor(None, shutdown_default_pools)

    @property
    def running(self) -> bool:
        return self._accepting

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def healthz(self) -> Readiness:
        return readiness(
            self._accepting, self.queue_depth(), self.queue_capacity,
            len(self.registry),
        )

    # ----------------------------------------------------------------- #
    # Submission path (event loop)
    # ----------------------------------------------------------------- #

    async def submit(self, request: Request) -> ServiceResponse:
        """Submit one request and await its single resolution.

        Never raises for a request-level failure: shed, rejected, timed
        out and faulted requests all come back as a
        :class:`~repro.service.requests.ServiceResponse` naming the
        typed error.
        """
        self.metrics.record_submit()
        loop = asyncio.get_running_loop()
        deadline_s = request.deadline_s
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        deadline = Deadline(deadline_s) if deadline_s is not None else None
        ticket = _Ticket(request, None, getattr(request, "method", "WINDOW"),
                         deadline, loop)

        if not self._accepting:
            return await self._refuse(
                ticket, Outcome.SHED,
                QueueFullError("service is not accepting requests"),
            )

        level = self.shedder.level(self.queue_depth())
        if level is PressureLevel.SHED:
            return await self._refuse(
                ticket, Outcome.SHED,
                QueueFullError(
                    f"queue past high-water mark "
                    f"({self.queue_depth()}/{self.shedder.high_water})"
                ),
            )

        try:
            ticket.session = self.registry.get(request.session)
        except ReproError as exc:
            return await self._refuse(ticket, Outcome.FAULTED, exc)

        decision = self.admission.assess(ticket.session, request)
        ticket.predicted_io = decision.predicted_io
        if decision.action is Action.REJECT:
            return await self._refuse(
                ticket, Outcome.REJECTED,
                BudgetExceededError(decision.reason),
            )
        if decision.action is Action.DOWNGRADE:
            ticket.method = self._map_method(decision.method)
            ticket.admission_downgrade = True
        if (
            level is PressureLevel.DEGRADE
            and isinstance(request, JoinRequest)
            and ticket.method.upper() != "BFJ"
        ):
            ticket.method = "BFJ"
            ticket.overload_degrade = True

        try:
            self._queue.put_nowait(ticket)
        except asyncio.QueueFull:
            return await self._refuse(
                ticket, Outcome.SHED,
                QueueFullError(
                    f"bounded queue full ({self.queue_capacity})"
                ),
            )
        self._inflight.add(ticket)
        return await ticket.future

    def _map_method(self, planner_key: str) -> str:
        return self.config.stj_method if planner_key == "STJ" else planner_key

    async def _refuse(
        self, ticket: _Ticket, outcome: Outcome, error: ReproError
    ) -> ServiceResponse:
        self._resolve_refused(ticket, outcome, error)
        return await ticket.future

    def _resolve_refused(
        self, ticket: _Ticket, outcome: Outcome, error: ReproError
    ) -> None:
        response = ServiceResponse(
            outcome=outcome,
            request=ticket.request,
            error_type=type(error).__name__,
            error=str(error),
        )
        self._finish(ticket, response)

    # ----------------------------------------------------------------- #
    # Watchdog (event loop)
    # ----------------------------------------------------------------- #

    async def _watchdog(self) -> None:
        """Promptly time out expired requests, queued or mid-flight.

        Resolving here gives the client its ``TIMED_OUT`` response the
        moment the deadline passes; cancelling the deadline makes the
        worker thread (if one is executing the request) abort at its
        next storage/engine checkpoint and discard the dead ticket.
        """
        while True:
            for ticket in list(self._inflight):
                deadline = ticket.deadline
                if ticket.resolved or deadline is None:
                    continue
                if deadline.expired:
                    deadline.cancel()
                    self._finish(ticket, ServiceResponse(
                        outcome=Outcome.TIMED_OUT,
                        request=ticket.request,
                        error_type=DeadlineExceededError.__name__,
                        error=(
                            f"deadline of {deadline.budget_s:.3f}s expired "
                            f"(watchdog)"
                        ),
                    ))
            await asyncio.sleep(self.config.watchdog_interval_s)

    def _finish(self, ticket: _Ticket, response: ServiceResponse) -> None:
        if not ticket.resolve(response):
            return
        self.metrics.record_outcome(
            response.outcome,
            latency_s=response.latency_s,
            queue_wait_s=response.queue_wait_s,
            admission_downgrade=ticket.admission_downgrade,
            overload_degrade=ticket.overload_degrade,
        )
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._inflight.discard, ticket)
        ticket.deliver(response)

    # ----------------------------------------------------------------- #
    # Execution path (worker coroutine -> executor thread)
    # ----------------------------------------------------------------- #

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            ticket = await self._queue.get()
            try:
                if ticket is _STOP:
                    return
                if not ticket.resolved:
                    await loop.run_in_executor(
                        self._executor, self._execute_sync, ticket
                    )
            finally:
                self._queue.task_done()

    def _execute_sync(self, ticket: _Ticket) -> None:
        """Run one request on an executor thread, resolving its ticket.

        Every exit path below produces a typed outcome; a non-
        :class:`~repro.errors.ReproError` escaping the engine is still
        resolved (as ``FAULTED``, carrying the foreign type name) so no
        request can hang — the chaos suite asserts the stronger claim
        that the foreign case never actually happens.
        """
        queue_wait = time.monotonic() - ticket.submitted_at
        started = time.monotonic()
        session = ticket.session
        request = ticket.request
        try:
            self._stall(ticket)
            if ticket.deadline is not None:
                ticket.deadline.check("picked up by worker")
            assert session is not None  # refused tickets never enqueue
            with session.lock:
                # A safe point for the session's buffer: free the pages
                # of join indexes collected since the last request.
                session.workspace.buffer.free_pending()
                session.workspace.disk.deadline = ticket.deadline
                try:
                    if isinstance(request, JoinRequest):
                        result = self._run_join(session, ticket)
                        outcome = (
                            Outcome.DEGRADED
                            if result.degraded
                            else Outcome.SERVED
                        )
                    elif isinstance(request, UpdateRequest):
                        result = session.apply_updates(request.ops)
                        outcome = Outcome.SERVED
                    else:
                        result = session.window_query(request.window)
                        outcome = Outcome.SERVED
                finally:
                    session.workspace.disk.deadline = None
            response = ServiceResponse(
                outcome=outcome, request=request, result=result,
                method_used=ticket.method,
            )
        except DeadlineExceededError as exc:
            response = ServiceResponse(
                outcome=Outcome.TIMED_OUT, request=request,
                error_type=type(exc).__name__, error=str(exc),
            )
        except ReproError as exc:
            response = ServiceResponse(
                outcome=Outcome.FAULTED, request=request,
                error_type=type(exc).__name__, error=str(exc),
            )
        except Exception as exc:  # noqa: BLE001 - no-hang backstop
            response = ServiceResponse(
                outcome=Outcome.FAULTED, request=request,
                error_type=type(exc).__name__, error=str(exc),
            )
        response.queue_wait_s = queue_wait
        response.service_s = time.monotonic() - started
        self._finish(ticket, response)

    def _run_join(self, session: ResidentSession, ticket: _Ticket):
        """Join the request's input against the session tree.

        The service keeps nothing a join builds: the installed input and
        the join's index are freed before the response goes out (a
        response may be held for long, so waiting for the index's
        finalizer would keep its pages), and ``result.index`` is None.
        """
        request = ticket.request
        assert isinstance(request, JoinRequest)
        workspace = session.workspace
        data_s = session.install_join_input(request.entries_s)
        parallel_kw: dict[str, Any] = {}
        if request.workers is not None:
            parallel_kw["workers"] = request.workers
        if request.partitions is not None:
            parallel_kw["partitions"] = request.partitions
        try:
            result = spatial_join(
                data_s, session.tree, workspace.buffer, workspace.config,
                workspace.metrics, method=ticket.method,
                recovery=session.recovery, **parallel_kw, **request.options,
            )
            release_index(result.index)
            result.index = None
        finally:
            session.release_join_input(data_s)
        if ticket.admission_downgrade or ticket.overload_degrade:
            workspace.record_service_fallback()
            result.degraded = True
            result.fallback_from = request.method
            result.degraded_reason = (
                "admission downgrade (predicted cost over budget)"
                if ticket.admission_downgrade
                else "overload ladder (queue past degrade watermark)"
            )
        return result

    def _stall(self, ticket: _Ticket) -> None:
        """Chaos hook: simulate a straggler worker in deadline-visible
        slices, so a stalled request still times out promptly."""
        remaining = getattr(ticket.request, "stall_s", 0.0)
        while remaining > 0 and not ticket.resolved:
            if ticket.deadline is not None:
                ticket.deadline.check("stalled worker")
            slice_s = min(0.005, remaining)
            time.sleep(slice_s)
            remaining -= slice_s
