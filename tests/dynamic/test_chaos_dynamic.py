"""Chaos over the dynamic stack: randomized update/join/re-seed
schedules under randomized fault plans.

The storage invariant, extended to updates: under ANY fault schedule a
dynamic session either keeps answering exactly or raises a typed
:class:`~repro.errors.ReproError` — it never silently corrupts the
materialized join, loses objects, or wedges the buffer pool on a leaked
pin. 200 deterministic schedules; ``-k smoke`` selects the fixed-seed
subset CI runs on every push, the full sweep runs in the chaos leg.
"""

from __future__ import annotations

import random

import pytest

from repro.config import SystemConfig
from repro.dynamic import DynamicScenario, StalenessThreshold
from repro.errors import ReproError
from repro.storage import FaultInjector, FaultPlan

# Small pages keep the partner tall enough to seed from at this scale
# while updates still cause real splits, condenses, and evictions.
CONFIG = SystemConfig(page_size=256, buffer_pages=32)
N_SCHEDULES = 200


def _random_plan(rng: random.Random) -> FaultPlan:
    kind = rng.choice(
        ["quiet", "quiet", "transient", "torn", "bitflip", "crash", "mixed"]
    )
    if kind == "quiet":
        return FaultPlan()
    if kind == "transient":
        return FaultPlan(transient_read_rate=rng.uniform(0.01, 0.15))
    if kind == "torn":
        return FaultPlan(torn_write_rate=rng.uniform(0.01, 0.1))
    if kind == "bitflip":
        return FaultPlan(bit_flip_rate=rng.uniform(0.002, 0.02))
    if kind == "crash":
        return FaultPlan(crash_after_ops=rng.randrange(50, 600))
    return FaultPlan(
        transient_read_rate=rng.uniform(0.0, 0.05),
        torn_write_rate=rng.uniform(0.0, 0.03),
        crash_after_ops=rng.randrange(100, 800),
    )


def _schedule_run(seed: int) -> None:
    """One randomized schedule: mixed churn, joins, and re-seeds under
    an armed fault injector; exact-or-typed-error throughout."""
    rng = random.Random(seed * 0x9E3779B1 % 2**32)
    plan = _random_plan(rng)
    injector = FaultInjector(plan, seed=seed)
    # Construction is fault-free (the injector starts disarmed): the
    # schedule chaos targets served traffic, like the service suite.
    scenario = DynamicScenario(
        CONFIG, n_r=150, n_s=150, seed=seed % 7,
        # Dense coverage so the materialized join is non-empty and the
        # exactness check below compares real pair sets.
        dataset_params={"cover_quotient": 1.0, "data_side_bound": 0.03,
                        "objects_per_cluster": 40},
        policy=StalenessThreshold(rebuild_at=0.1),
        injector=injector,
    )
    injector.arm()
    clean = True
    try:
        for _ in range(rng.randrange(2, 5)):
            action = rng.choice(("s", "r", "both", "join", "maintain"))
            if action == "s":
                scenario.step(s_ops=rng.randrange(4, 12))
            elif action == "r":
                scenario.step(r_ops=rng.randrange(4, 12))
            elif action == "both":
                scenario.step(s_ops=rng.randrange(2, 8),
                              r_ops=rng.randrange(2, 8))
            elif action == "join":
                scenario.run_join()
            else:
                scenario.maintain()
    except ReproError:
        clean = False  # a typed failure is an acceptable outcome
    except Exception as exc:  # noqa: BLE001 — the invariant under test
        pytest.fail(
            f"untyped {type(exc).__name__} escaped under plan {plan}: {exc}"
        )
    if not clean:
        return
    # A schedule that completed without a typed error must still be
    # answering exactly: the materialized join equals the brute-force
    # oracle over the live models.
    assert scenario.incremental.pairs() == scenario.reference_pairs(), (
        f"silently wrong materialized join under plan {plan}"
    )
    if plan.is_quiet:
        totals = scenario.workspace.metrics.fault_totals()
        assert totals.faults_injected == 0


class TestDynamicChaos:
    @pytest.mark.parametrize("seed", range(N_SCHEDULES))
    def test_exact_or_typed_error(self, seed: int):
        _schedule_run(seed)


class TestDynamicChaosSmoke:
    """Fixed-seed subset for per-push CI
    (`pytest tests/dynamic/test_chaos_dynamic.py -k smoke`)."""

    @pytest.mark.parametrize("seed", (2, 17, 53, 101, 163))
    def test_smoke(self, seed: int):
        _schedule_run(seed)
