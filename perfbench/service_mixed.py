"""The ``service-mixed`` workload: seeded open-loop traffic on one session.

A :class:`~repro.service.JoinService` serves one resident session of a
fixed set of 10,000 uniform objects (436 pages of 512 bytes; the seed
derives only the traffic) under an 8,192-page buffer that holds the whole
tree and everything a run's joins create, so accounted I/O is the joins'
input scans and does not depend on how long the run is; set-up warms it
with one full-map window query. Requests arrive as a Poisson process at a
fixed 250 requests/second, sent on schedule whatever the backlog (open
loop), with an exact mix:

* 90% window queries (deadline 1 s);
* 5% small joins of 30-100 objects, 40% STJ1-2N and 60% BFJ (deadline
  5 s); a third of the STJ joins, of 30-60 objects, carry a tight budget,
  so admission downgrades them to BFJ;
* 4% update batches of 2-6 insert/delete/move ops, as many inserts as
  deletes so the tree and the planner's estimates do not drift (deadline
  2 s);
* 1% joins of 2,000-5,000 objects with a budget no method fits, which
  admission must reject.

Reads stay in x <= 0.68 and updates touch only objects lying in
x >= 0.70, each object by at most one batch, so every expected answer is
fixed in advance whatever order the service runs requests in. The
service runs one executor thread: the session lock serialises requests
anyway, and a single thread keeps execution order, and so the accounted
I/O, repeatable.
"""

from __future__ import annotations

import asyncio
import random
import time

from repro.config import SystemConfig
from repro.geometry import Rect
from repro.service import (
    JoinRequest,
    JoinService,
    Outcome,
    ServiceConfig,
    UpdateRequest,
    WindowQueryRequest,
    WorkspaceRegistry,
)
from repro.workload import generate_uniform
from repro.workload.seeding import derive_seed
from repro.workload.updates import DELETE, INSERT, MOVE, UpdateOp

from common import (
    BUFFER_FIELDS,
    BruteForce,
    Budget,
    Pass,
    buffer_stats,
    disk_counts,
    percentile,
    reference_time,
)

CONFIG = SystemConfig(page_size=512, buffer_pages=8192)
#: The queue absorbs ~0.9 s of backlog at the offered rate before it
#: sheds: on a shared host a garbage-collection pause or a slow join under
#: contention stalls the single session for 100 ms and more.
SERVICE = ServiceConfig(
    queue_capacity=256, workers=1, degrade_water=64, high_water=224,
    max_predicted_io=600.0, watchdog_interval_s=0.01,
)
SESSION = "bench"
N_SESSION = 10_000
SESSION_SEED = 20240131
#: At 500 requests/second the one session is ~65% busy and latency swings
#: with the shared host's speed; at 250 it is about a third busy.
RATE = 250.0
MIX = (("query", 0.90), ("join", 0.05), ("update", 0.04), ("big", 0.01))
READ_AREA = Rect(0.0, 0.0, 0.68, 1.0)
WRITE_AREA = Rect(0.70, 0.0, 1.0, 1.0)
TIGHT_BUDGET = 300.0  # 30-60 objects: STJ's estimate busts it, BFJ's fits
BIG_BUDGET = 300.0    # 2,000-5,000 objects: no method's estimate fits
SETUPS = 5
REFERENCE_SAMPLES = 20
OID_JOIN = 10**6
OID_INSERT = 10**7
_ANSWERED = (Outcome.SERVED, Outcome.DEGRADED)


def _rect_in(rng: random.Random, area: Rect, side: float) -> Rect:
    cx = area.xlo + rng.random() * area.width
    cy = area.ylo + rng.random() * area.height
    w, h = rng.random() * side, rng.random() * side
    return Rect.from_center(cx, cy, w, h).clipped_to(area)


class Schedule:
    """The seeded request trace plus every request's expected outcome."""

    def __init__(self, seed: int, count: int, entries):
        rng = random.Random(derive_seed(seed, "service"))
        kinds = [k for k, share in MIX[1:] for _ in range(int(share * count))]
        kinds += ["query"] * (count - len(kinds))
        rng.shuffle(kinds)
        movable = [(r, oid) for r, oid in entries if r.xlo >= WRITE_AREA.xlo]
        rng.shuffle(movable)
        # Large joins only need a size for admission to price and refuse,
        # so they share one list rather than hold megabytes of rectangles.
        big = generate_uniform(5000, seed=rng.randrange(1 << 30),
                               oid_start=OID_JOIN)
        self.requests = []  # (offset, kind, request, expected)
        next_insert = OID_INSERT
        offset = 0.0
        for kind in kinds:
            offset += rng.expovariate(RATE)
            if kind == "query":
                half = 0.005 + rng.random() * 0.03
                cx, cy = rng.random() * READ_AREA.xhi, rng.random()
                window = Rect(cx - half, cy - half, cx + half,
                              cy + half).clipped_to(READ_AREA)
                request = WindowQueryRequest(SESSION, window, deadline_s=1.0)
                expected = window
            elif kind == "join":
                stj = rng.random() < 0.4
                tight = stj and rng.random() < 1 / 3
                entries_s = generate_uniform(
                    rng.randrange(30, 60 if tight else 100),
                    map_area=READ_AREA, seed=rng.randrange(1 << 30),
                    oid_start=OID_JOIN)
                request = JoinRequest(
                    SESSION, entries_s, method="STJ1-2N" if stj else "BFJ",
                    max_predicted_io=TIGHT_BUDGET if tight else None,
                    deadline_s=5.0)
                expected = entries_s
            elif kind == "update":
                ops, expected, next_insert = _update_ops(
                    rng, movable, next_insert)
                request = UpdateRequest(SESSION, tuple(ops), deadline_s=2.0)
            else:
                request = JoinRequest(
                    SESSION, big[:rng.randrange(2000, 5000)],
                    method="STJ1-2N", max_predicted_io=BIG_BUDGET,
                    deadline_s=10.0)
                expected = None
            self.requests.append((offset, kind, request, expected))


def _update_ops(rng, movable, next_insert):
    """One batch touching only objects no other batch touches.

    Deletes and moves take a reserved pre-existing object from the write
    area, or else one this batch inserted itself. Returns the ops, the
    expected (inserts, deletes, moves) and the batch's effect on the tree
    as ``{oid: final rect, or None when deleted}``.
    """
    ops = []
    mine = []  # (rect, oid) of objects this batch inserted or moved
    counts = {INSERT: 0, DELETE: 0, MOVE: 0}
    effect = {}
    for _ in range(rng.randrange(2, 7)):
        kind = rng.choice((INSERT, DELETE, MOVE))
        if kind != INSERT and not movable and not mine:
            kind = INSERT
        if kind == INSERT:
            rect = _rect_in(rng, WRITE_AREA, 0.004)
            ops.append(UpdateOp(INSERT, next_insert, rect))
            mine.append((rect, next_insert))
            effect[next_insert] = rect
            next_insert += 1
        else:
            if movable:
                rect, oid = movable.pop()
            else:
                rect, oid = mine.pop(rng.randrange(len(mine)))
            if kind == DELETE:
                ops.append(UpdateOp(DELETE, oid, rect))
                effect[oid] = None
            else:
                to_rect = _rect_in(rng, WRITE_AREA, 0.004)
                ops.append(UpdateOp(MOVE, oid, rect, to_rect))
                mine.append((to_rect, oid))
                effect[oid] = to_rect
        counts[kind] += 1
    return ops, (counts, effect), next_insert


def _build_session():
    registry = WorkspaceRegistry(CONFIG)
    session = registry.create(SESSION, generate_uniform(
        N_SESSION, seed=SESSION_SEED))
    session.window_query(Rect(0.0, 0.0, 1.0, 1.0))  # buffer warm-up
    return registry, session


def _payload(request):
    """The argument the session entry point receives for ``request``."""
    if isinstance(request, WindowQueryRequest):
        return request.window
    if isinstance(request, UpdateRequest):
        return request.ops
    return request.entries_s


async def _send(service, request, due):
    response = await service.submit(request)
    return response, time.perf_counter() - due


async def _serve(schedule: Schedule, registry, probe, out: Pass):
    service = JoinService(registry, SERVICE)
    await service.start()
    tasks = []
    lags = []
    try:
        t0 = time.perf_counter()
        for rid, (offset, _kind, request, _exp) in enumerate(schedule.requests):
            probe.request_ids[id(_payload(request))] = rid
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(max(0.0, time.perf_counter() - due))
            tasks.append((due, asyncio.ensure_future(
                _send(service, request, due))))
        results = []
        for due, task in tasks:
            response, latency = await task
            probe.span("request", due, due + latency, len(results))
            results.append((response, latency))
    finally:
        await service.stop()
    out.extra["lag_p99_ms"] = percentile(lags, 99) * 1e3
    return service, results


def service_mixed(seed: int, budget: Budget, probe) -> Pass:
    out = Pass()
    # Latency here is mostly event-loop and thread hand-off time, which
    # does not scale with the host's CPU speed: it is reported raw. The
    # reference loop is timed between set-ups, never during the traffic,
    # where it would hold the event loop.
    out.normalise_latency = False
    with probe.paused():
        for _ in range(SETUPS):
            started = time.perf_counter()
            registry, session = _build_session()
            out.setup.append(time.perf_counter() - started)
            for _ in range(REFERENCE_SAMPLES):
                out.reference.append(reference_time())
    entries = session.tree.all_objects()
    oracle = BruteForce(entries)
    count = budget.plan[0] if budget.replaying else int(RATE * budget.seconds)
    schedule = Schedule(seed, count, entries)
    out.plan.append(count)

    metrics = session.workspace.metrics
    before_summary = metrics.summary()
    before_buffer = buffer_stats(session.workspace.buffer)
    before_disk = disk_counts(metrics)

    service, results = asyncio.run(_serve(schedule, registry, probe, out))
    expected_final = {oid: rect for rect, oid in entries}
    _check(schedule, results, oracle, expected_final, out)
    _check_ledger(service, len(results), out)
    final = {oid: rect for rect, oid in session.tree.all_objects()}
    if final != expected_final:
        out.fail("final tree contents differ from the applied updates")

    after = metrics.summary()
    out.io = after.total_io - before_summary.total_io
    out.bbox_tests = after.bbox_tests - before_summary.bbox_tests
    out.xy_tests = after.xy_tests - before_summary.xy_tests
    for name, now, then in zip(BUFFER_FIELDS,
                               buffer_stats(session.workspace.buffer),
                               before_buffer):
        out.buffer[name] = now - then
    for key, count in disk_counts(metrics).items():
        out.disk[key] = count - before_disk[key]
    answered = [r for r, _ in results if r.outcome in _ANSWERED]
    out.extra.update(
        answered=len(answered),
        counters=service.metrics.counters.as_dict(),
        queue_wait=[r.queue_wait_s for r in answered],
        service_s=[r.service_s for r in answered],
    )
    methods = tuple(r.method_used for r, _ in results)
    out.fingerprints.append(("methods", hash(methods)))
    out.fingerprints.append(("summary", after))
    return out


def _check(schedule: Schedule, results, oracle: BruteForce, final: dict,
           out: Pass):
    """Every response against its precomputed expectation; the effects
    of the updates that were applied are folded into ``final``."""
    for rid, ((_, kind, request, expected), (response, latency)) in enumerate(
        zip(schedule.requests, results)
    ):
        out.attempted += 1
        outcome = response.outcome
        if kind == "big":
            if outcome is not Outcome.REJECTED:
                out.fail(f"request {rid}: large join was {outcome.value}, "
                         f"not rejected", wrong=False)
            continue
        if outcome not in _ANSWERED:
            out.fail(f"request {rid} ({kind}): {outcome.value} "
                     f"{response.error_type}", wrong=False)
            continue
        out.latencies[kind].append(latency)
        if kind == "query":
            ok = sorted(response.result) == oracle.window(expected)
        elif kind == "join":
            ok = sorted(response.result.pairs) == oracle.join(expected)
        else:
            counts, effect = expected
            report = response.result
            ok = (report.inserts, report.deletes, report.moves,
                  report.missing) == (counts[INSERT], counts[DELETE],
                                      counts[MOVE], 0)
            for oid, rect in effect.items():
                if rect is None:
                    final.pop(oid, None)
                else:
                    final[oid] = rect
        if not ok:
            out.fail(f"request {rid} ({kind}): answer differs from the "
                     f"oracle")


def _check_ledger(service, sent: int, out: Pass) -> None:
    counters = service.metrics.counters
    if counters.submitted != sent or counters.resolved != sent:
        out.fail(f"outcome ledger unbalanced: sent {sent}, submitted "
                 f"{counters.submitted}, resolved {counters.resolved}")
