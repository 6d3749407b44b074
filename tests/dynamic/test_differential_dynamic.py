"""Differential: the incrementally-maintained join must equal a
from-scratch join over the post-churn data — across kernels on/off,
sequential and pooled execution, and multiple seeds."""

from __future__ import annotations

import pytest

from repro.dynamic import DynamicScenario
from repro.geometry import Rect
from repro.join import spatial_join
from repro.join.batch import match_trees_batch
from repro.workspace import Workspace

from .conftest import DYN_CONFIG

SEEDS = (0, 1, 2)

#: Dense cluster coverage so the two sides genuinely intersect at this
#: scale — the paper's defaults give near-disjoint clusters below a few
#: thousand objects, which would make every equality check vacuous.
DENSE = {"cover_quotient": 1.0, "data_side_bound": 0.03,
         "objects_per_cluster": 40}


def _churned(seed: int) -> DynamicScenario:
    scenario = DynamicScenario(DYN_CONFIG, n_r=200, n_s=200, seed=seed,
                               dataset_params=DENSE)
    for _ in range(3):
        scenario.step(s_ops=12, r_ops=12)
    return scenario


def _entries(live: dict[int, Rect]) -> list[tuple[Rect, int]]:
    return [(live[oid], oid) for oid in sorted(live)]


def _scratch_pairs(scenario: DynamicScenario, **join_kw) -> list:
    """Join the post-churn live sets from scratch in a fresh workspace."""
    ws = Workspace(DYN_CONFIG)
    tree_r = ws.install_rtree(_entries(scenario.stream_r.live))
    file_s = ws.install_datafile(_entries(scenario.stream_s.live))
    ws.start_measurement()
    result = spatial_join(
        file_s, tree_r, ws.buffer, ws.config, ws.metrics,
        method="STJ1-2N", **join_kw,
    )
    return sorted(result.pair_set())


class TestIncrementalVsScratch:
    @pytest.mark.parametrize("kernels", ("0", "1"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sequential(self, seed, kernels, monkeypatch, count_calls):
        """Both execution paths, each proving it ran: the scratch join's
        match phase is batch on the fast path and scalar otherwise."""
        monkeypatch.setenv("REPRO_KERNELS", kernels)
        scenario = _churned(seed)
        expected = scenario.reference_pairs()
        assert expected  # non-vacuous workload
        assert scenario.incremental.pairs() == expected
        calls = count_calls(match_trees_batch)
        assert _scratch_pairs(scenario) == expected
        assert (calls["match_trees_batch"] > 0) == (kernels == "1")

    @pytest.mark.parametrize("kernels", ("0", "1"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_pooled(self, seed, kernels, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", kernels)
        scenario = _churned(seed)
        expected = scenario.reference_pairs()
        pooled = _scratch_pairs(
            scenario, workers=2, partitions=4, parallel_seed=0,
            parallel_guard=False,
        )
        assert pooled == expected
        assert scenario.incremental.pairs() == expected

    @pytest.mark.parametrize("rounds", (1, 3))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sequential_batch_modes(self, seed, rounds, monkeypatch,
                                    count_calls):
        """The batch layer is invisible to the whole dynamic pipeline,
        I/O included: seeded construction, churn maintenance and
        ``rounds`` resident rejoins (each after a churn step, so the
        plan caches must invalidate on the tree mutations) give the same
        pairs in order, every CostSummary field and the same buffer hits
        and misses on both paths. Only the fast leg's rejoins run the
        batch match phase."""
        calls = count_calls(match_trees_batch)
        legs = []
        for kernels in ("1", "0"):
            monkeypatch.setenv("REPRO_KERNELS", kernels)
            calls.clear()
            scenario = DynamicScenario(DYN_CONFIG, n_r=200, n_s=200,
                                       seed=seed, dataset_params=DENSE)
            for _ in range(rounds):
                scenario.step(s_ops=12, r_ops=12)
                pairs = scenario.run_join()
            assert sorted(pairs) == scenario.incremental.pairs()
            ws = scenario.workspace
            legs.append((pairs, ws.metrics.summary(), ws.buffer.stats.hits,
                         ws.buffer.stats.misses,
                         calls["match_trees_batch"]))
        fast, scalar = legs
        assert fast[0], "workload produced no pairs; order is untested"
        assert fast[-1] > 0 and scalar[-1] == 0
        assert fast[:-1] == scalar[:-1]

    @pytest.mark.parametrize("kernels", ("0", "1"))
    def test_resident_rejoin_agrees_after_more_churn(self, kernels,
                                                     monkeypatch):
        """The resident TM join, the incremental result, and a scratch
        join stay three-way identical as churn continues — on both
        paths; the fast path's plan and construction-replay caches must
        invalidate on every churn step's tree mutations."""
        monkeypatch.setenv("REPRO_KERNELS", kernels)
        scenario = _churned(0)
        for _ in range(2):
            scenario.step(s_ops=10, r_ops=10)
            resident = sorted(scenario.run_join())
            assert resident == scenario.incremental.pairs()
        assert _scratch_pairs(scenario) == scenario.incremental.pairs()
