"""A resident session stops growing: the service frees every join's pages.

Each join request installs its input, builds an index and scratch in
the session's workspace; the service frees all of it before the
response goes out, so the session's disk holds ``T_R`` and nothing
else between requests, however many joins it serves.
"""

from __future__ import annotations

import asyncio

from repro.config import SystemConfig
from repro.service import (
    JoinRequest,
    JoinService,
    Outcome,
    UpdateRequest,
    WorkspaceRegistry,
)
from repro.workload.updates import INSERT, UpdateOp

from ..conftest import random_entries

CONFIG = SystemConfig(page_size=512, buffer_pages=64)
METHODS = ("STJ1-2N", "RTJ", "BFJ", "2STJ", "ZJOIN")


def test_a_thousand_joins_keep_the_disk_at_the_size_of_t_r():
    registry = WorkspaceRegistry(CONFIG)
    session = registry.create("soak", random_entries(600, seed=5))
    disk = session.workspace.disk
    tr_pages = disk.written_pages

    async def main():
        service = JoinService(registry)
        await service.start()
        readings, scratch = [], 0
        for i in range(1000):
            entries = random_entries(8, seed=1000 + i, oid_start=10**6)
            before = disk.allocated_pages
            response = await service.submit(
                JoinRequest("soak", entries, method=METHODS[i % 5])
            )
            assert response.outcome is Outcome.SERVED, response.error
            assert response.result.index is None
            scratch = max(scratch, disk.allocated_pages - before)
            readings.append(disk.written_pages)
        await service.stop()
        return readings, scratch

    readings, scratch = asyncio.run(main())
    assert scratch > 0
    assert max(readings) < tr_pages + scratch
    assert set(readings) == {tr_pages}
    assert len(session.workspace.buffer) <= CONFIG.buffer_pages


def test_joins_after_updates_free_everything_but_the_grown_tree():
    registry = WorkspaceRegistry(CONFIG)
    session = registry.create("grow", random_entries(600, seed=6))
    disk = session.workspace.disk
    inserts = [
        UpdateOp(INSERT, 50_000 + i, rect)
        for i, (rect, _) in enumerate(random_entries(200, seed=7))
    ]

    async def main():
        service = JoinService(registry)
        await service.start()
        update = await service.submit(UpdateRequest("grow", inserts))
        assert update.outcome is Outcome.SERVED
        for i, method in enumerate(METHODS * 4):
            entries = random_entries(20, seed=2000 + i, oid_start=10**6)
            response = await service.submit(
                JoinRequest("grow", entries, method=method)
            )
            assert response.outcome is Outcome.SERVED, response.error
        await service.stop()

    asyncio.run(main())
    live = {node.page_id for node in session.tree.iter_nodes()}
    assert set(disk._pages) <= live
