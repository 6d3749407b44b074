"""Service-level chaos: randomized fault, deadline and overload
schedules end-to-end through the resident join service.

The request-level form of the repo's exact-or-typed-error invariant:
every submitted request resolves to exactly one outcome; answered
outcomes carry *exact* answers (checked against a brute-force oracle);
every other outcome names a typed :class:`~repro.errors.ReproError`
subclass. No request may hang or drop silently, whatever the schedule
injects — slow workers, mid-request storage faults, deadline storms,
queue saturation.
"""

from __future__ import annotations

import asyncio
import random

import pytest

import repro.errors as errors_mod
from repro.config import SystemConfig
from repro.errors import ReproError
from repro.geometry import Rect
from repro.service import (
    ANSWERED,
    JoinRequest,
    JoinService,
    Outcome,
    ServiceConfig,
    WindowQueryRequest,
    WorkspaceRegistry,
)
from repro.storage import FaultInjector, FaultPlan, RecoveryPolicy

from ..conftest import random_entries

CONFIG = SystemConfig(page_size=512, buffer_pages=64)
RESIDENT = random_entries(2000, seed=5)


def _random_plan(rng: random.Random) -> FaultPlan:
    return FaultPlan(
        transient_read_rate=rng.choice([0.0, 0.005, 0.02]),
        torn_write_rate=rng.choice([0.0, 0.002]),
        bit_flip_rate=rng.choice([0.0, 0.001]),
        crash_after_ops=rng.choice([None, None, 500]),
        max_transient_per_page=rng.choice([2, 10]),
    )


def _mixed_request(rng: random.Random) -> JoinRequest | WindowQueryRequest:
    draw = rng.random()
    if draw < 0.55:
        cx, cy = rng.random(), rng.random()
        half = 0.02 + rng.random() * 0.1
        return WindowQueryRequest("chaos", Rect(
            max(0.0, cx - half), max(0.0, cy - half),
            min(1.0, cx + half), min(1.0, cy + half),
        ), deadline_s=rng.choice([None, None, 2.0]))
    if draw < 0.85:
        return JoinRequest(
            "chaos",
            random_entries(rng.randrange(40, 250), seed=rng.randrange(1 << 20),
                           oid_start=100_000),
            method=rng.choice(["BFJ", "STJ1-2N"]),
            deadline_s=rng.choice([None, 5.0]),
        )
    # Deadline storm contribution: stalled work with a deadline it misses.
    return WindowQueryRequest(
        "chaos", Rect(0.3, 0.3, 0.7, 0.7),
        deadline_s=rng.choice([0.001, 0.01]),
        stall_s=rng.choice([0.02, 0.05]),
    )


def _oracle(request) -> set:
    if isinstance(request, WindowQueryRequest):
        return {
            oid for rect, oid in RESIDENT if rect.intersects(request.window)
        }
    return {
        (oid_s, oid_r)
        for rect_s, oid_s in request.entries_s
        for rect_r, oid_r in RESIDENT
        if rect_s.intersects(rect_r)
    }


def _typed_error_names() -> set[str]:
    return {
        name for name in dir(errors_mod)
        if isinstance(getattr(errors_mod, name), type)
        and issubclass(getattr(errors_mod, name), ReproError)
    }


TYPED = _typed_error_names()


def _chaos_run(seed: int, n_requests: int = 40) -> None:
    rng = random.Random(seed)
    registry = WorkspaceRegistry(CONFIG)
    injector = FaultInjector(_random_plan(rng), seed=seed)
    session = registry.create(
        "chaos", RESIDENT, injector=injector,
        recovery=RecoveryPolicy(fallback_to_bfj=True),
    )
    injector.metrics = session.workspace.metrics
    injector.arm()
    requests = [_mixed_request(rng) for _ in range(n_requests)]

    async def main():
        service = JoinService(registry, ServiceConfig(
            workers=rng.choice([1, 2]),
            queue_capacity=rng.choice([4, 8, 16]),
            watchdog_interval_s=0.005,
        ))
        await service.start()
        pending = []
        for i, request in enumerate(requests):
            pending.append(
                asyncio.ensure_future(service.submit(request))
            )
            if rng.random() < 0.5:
                await asyncio.sleep(0.001 * rng.random())
        responses = await asyncio.gather(*pending)
        await service.stop()
        return service, responses

    service, responses = asyncio.run(main())

    # 1. Exactly one resolution per request, none missing.
    assert len(responses) == n_requests
    counters = service.metrics.counters
    assert counters.submitted == n_requests
    assert counters.resolved == n_requests
    assert counters.in_flight == 0

    for request, response in zip(requests, responses):
        if response.outcome in ANSWERED:
            # 2. Answered outcomes are exact, even under faults/downgrade.
            assert response.error_type == ""
            if isinstance(request, WindowQueryRequest):
                assert set(response.result) == _oracle(request)
            else:
                assert set(response.result.pairs) == _oracle(request)
                if response.outcome is Outcome.DEGRADED:
                    assert response.result.degraded
        else:
            # 3. Everything else names a typed ReproError subclass.
            assert response.error_type in TYPED, (
                f"untyped failure {response.error_type!r}: {response.error}"
            )
            assert response.result is None

    # 4. The ledger balances: degradation sub-causes never exceed the
    #    degraded tally recorded at the same lock.
    assert (
        counters.admission_downgrades + counters.overload_degrades
        >= 0
    )
    assert counters.degraded + counters.served == sum(
        1 for r in responses if r.outcome in ANSWERED
    )


class TestServiceChaos:
    """Randomized schedules (the full sweep; chaos-smoke runs a subset)."""

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_exactly_one_typed_outcome(self, seed: int):
        _chaos_run(seed)


class TestServiceChaosSmoke:
    """Fixed-seed subset for the CI chaos-smoke job (-k smoke)."""

    @pytest.mark.parametrize("seed", [11, 23])
    def test_smoke(self, seed: int):
        _chaos_run(seed, n_requests=25)


def test_smoke_pooled_join_records_session_lock_edges(monkeypatch):
    """One pooled service join nests the session lock over the dataset
    cache's and the pool's: the executor thread holds ``session.lock``
    while the join publishes its dataset and while it dispatches tiles.
    The witness is armed before the pool, the default dataset cache and
    the session exist, so all three locks are witnessed; the name
    carries ``smoke`` so CI's witness-armed service leg runs it and
    ``--check-witness`` checks these edges against the lattice."""
    import repro.parallel.pool as pool_mod
    from repro.analysis.witness import check_edges, observed_edges
    from repro.parallel import DatasetCache

    monkeypatch.setenv("REPRO_WITNESS", "1")
    pools: dict = {}
    monkeypatch.setattr(pool_mod, "_DEFAULT_POOLS", pools)
    cache = DatasetCache()
    monkeypatch.setattr(pool_mod, "_DEFAULT_CACHE", cache)
    registry = WorkspaceRegistry(CONFIG)
    registry.create("pooled", RESIDENT)
    request = JoinRequest(
        "pooled", random_entries(200, seed=3, oid_start=100_000),
        workers=2, options={"parallel_guard": False},
    )

    async def main():
        service = JoinService(registry, ServiceConfig(workers=1))
        await service.start()
        try:
            return await service.submit(request)
        finally:
            await service.stop()

    try:
        response = asyncio.run(main())
    finally:
        for pool in pools.values():
            pool.close()
        cache.clear()

    assert response.outcome is Outcome.SERVED
    assert response.result.parallel_decision.pooled
    assert set(response.result.pairs) == _oracle(request)
    edges = observed_edges()
    assert {("session", "dataset"), ("session", "pool")} <= edges
    assert check_edges(edges) == []
