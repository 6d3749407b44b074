"""Differential tests: partition-parallel runs vs sequential runs.

For every facade join method and ten fixed workload seeds, a
partition-parallel execution (``workers``/``partitions`` drawn
round-robin from a small grid) must be *observationally equivalent* to
the plain sequential execution on the same inputs:

* identical pair sets — replication plus reference-point dedup loses
  nothing and double-counts nothing;
* duplicate-free merged pair list — dedup happened in the workers, not
  by accident of set semantics at the end;
* exactly reconcilable accounting — the parent collector's merged
  :class:`~repro.metrics.CostSummary` equals the integer sum of the
  per-partition snapshots (``repro.partition.summed_summary``), field
  by field.

The fanout-4 physical design keeps trees tall on small inputs, so the
default ``STJ`` (two seed levels) runs sequentially without clamping
while each test stays fast.
"""

from __future__ import annotations

import math
import os

import pytest

import repro.join.batch as join_batch
import repro.join.zjoin as zjoin
import repro.kernels.batch as kernel_batch
import repro.kernels.node_store as node_store
import repro.seeded.builder as builder
import repro.seeded.replay as replay_mod
import repro.zorder.curve as zcurve
from repro.analysis.sanitizer import sanitizer_enabled
from repro.config import SystemConfig
from repro.geometry import Rect
from repro.join import spatial_join
from repro.join.engine import ExecutionMode
from repro.join.warm_cache import KINDS, warm_cache_of
from repro.kernels import kernels_enabled
from repro.kernels.node_store import ColumnTree
from repro.parallel import PublishedDataset, TileJob, TileRunner
from repro.parallel.worker import unpack_outcome
from repro.partition import summed_summary
from repro.rtree import RTree
from repro.seeded import SeededTree
from repro.workload import ClusteredConfig, generate_clustered
from repro.workspace import Workspace

CFG = SystemConfig(page_size=104, buffer_pages=64)

METHODS = ("BFJ", "RTJ", "STJ", "NAIVE", "ZJOIN", "2STJ")
SEEDS = tuple(range(10))

#: The ISSUE's parallel-shape grid, cycled so every (method, seed) cell
#: exercises some shape and every shape appears with every method.
PARALLEL_SHAPES = ((2, 4), (2, 16), (4, 4), (4, 16))

_ENV_CACHE: dict[int, tuple[list, list]] = {}


def _workload(seed: int):
    if seed not in _ENV_CACHE:
        d_r = generate_clustered(ClusteredConfig(
            220, cover_quotient=2.0, objects_per_cluster=11, seed=900 + seed,
        ))
        d_s = generate_clustered(ClusteredConfig(
            140, cover_quotient=2.0, objects_per_cluster=7, seed=950 + seed,
            oid_start=10**6,
        ))
        _ENV_CACHE[seed] = (d_r, d_s)
    return _ENV_CACHE[seed]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("method", METHODS)
def test_parallel_equals_sequential(method: str, seed: int) -> None:
    d_r, d_s = _workload(seed)
    workers, partitions = PARALLEL_SHAPES[
        (seed + METHODS.index(method)) % len(PARALLEL_SHAPES)
    ]

    ws = Workspace(CFG)
    tree_r = ws.install_rtree(d_r)
    file_s = ws.install_datafile(d_s)

    ws.start_measurement()
    sequential = spatial_join(
        file_s, tree_r, ws.buffer, ws.config, ws.metrics, method=method,
    )

    ws.start_measurement()
    parallel = spatial_join(
        file_s, tree_r, ws.buffer, ws.config, ws.metrics, method=method,
        workers=workers, partitions=partitions, parallel_seed=seed,
    )

    # -- answers ---------------------------------------------------- #
    assert parallel.pair_set() == sequential.pair_set()
    assert len(parallel.pairs) == len(set(parallel.pairs)), (
        "merged pair list contains duplicates"
    )
    assert parallel.algorithm == sequential.algorithm == method

    # -- accounting ------------------------------------------------- #
    stats = parallel.partitions
    assert stats, "parallel result carries no per-partition stats"
    assert sum(s.pairs for s in stats) == len(parallel.pairs)
    merged = ws.metrics.summary()
    summed = summed_summary(stats, ws.config)
    for field in (
        "match_read", "match_write", "construct_read", "construct_write",
        "bbox_tests", "xy_tests",
    ):
        assert getattr(merged, field) == getattr(summed, field), (
            f"{field}: merged collector disagrees with partition sum"
        )


# --------------------------------------------------------------------- #
# Fast path vs scalar reference
# --------------------------------------------------------------------- #

#: Wider data rectangles than the parallel workloads above, so the
#: fast-path sweeps actually emit pairs (the contract being pinned is
#: emission *order*, which zero-pair runs never exercise).
_KERNEL_CACHE: dict[int, tuple[list, list]] = {}

SUMMARY_FIELDS = (
    "match_read", "match_write", "construct_read", "construct_write",
    "bbox_tests", "xy_tests",
)

#: The fast path's two layers, as the legs spy on them: the geometry
#: kernels (construction, NAIVE's filter, ZJOIN's batch decomposition)
#: and the batch match phases. The workload generator's kernel runs on
#: both paths and is left out.
BATCH_DECOMPOSE = zcurve.decompose_batch
GEOMETRY_KERNELS = (
    *(getattr(kernel_batch, name) for name in kernel_batch.__all__
      if name != "clipped_area_total"),
    BATCH_DECOMPOSE,
)
BATCH_PHASES = (join_batch.match_trees_batch, join_batch.window_join_batch)

#: Which methods reach each layer on the fast path. ZJOIN's kernel is
#: the batch decomposition that builds both of its z-files.
KERNEL_METHODS = ("RTJ", "STJ", "NAIVE", "2STJ", "ZJOIN")
BATCH_METHODS = ("BFJ", "RTJ", "STJ", "2STJ")

#: ZJOIN's decomposition and merge on each path: only its fast leg may
#: call the batch pair, only its scalar leg the scalar pair.
ZJOIN_FAST = (BATCH_DECOMPOSE, zjoin.batch_merge)
ZJOIN_SCALAR = (zcurve.decompose, zjoin.stack_merge)

#: Construction on each path: a fast leg of these methods builds its
#: trees log-first, sanitized or not, and never runs the per-object
#: loop's entry points; a scalar leg never calls the builder.
LOG_FIRST_METHODS = ("RTJ", "STJ", "2STJ")
BUILDERS = (builder.build_seeded_tree, builder.build_rtree)
PER_OBJECT = ((SeededTree, "grow_from"), (RTree, "insert"))


def _count_methods(monkeypatch, calls, methods) -> None:
    """Count calls of ``(class, name)`` methods into ``calls``."""
    for cls, name in methods:
        original = getattr(cls, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)


def _kernel_workload(seed: int):
    if seed not in _KERNEL_CACHE:
        d_r = generate_clustered(ClusteredConfig(
            220, cover_quotient=2.0, objects_per_cluster=11,
            data_side_bound=0.06, seed=900 + seed,
        ))
        d_s = generate_clustered(ClusteredConfig(
            140, cover_quotient=2.0, objects_per_cluster=7,
            data_side_bound=0.06, seed=950 + seed, oid_start=10**6,
        ))
        _KERNEL_CACHE[seed] = (d_r, d_s)
    return _KERNEL_CACHE[seed]


def _snapped(entries: list, cells: int = 32) -> list:
    """The entries grown outward to a coarse grid: shared coordinates,
    touching edges and duplicate rectangles everywhere, which is where
    sweep tie-breaks decide emission order."""
    return [
        (Rect(math.floor(r.xlo * cells) / cells,
              math.floor(r.ylo * cells) / cells,
              math.ceil(r.xhi * cells) / cells,
              math.ceil(r.yhi * cells) / cells), oid)
        for r, oid in entries
    ]


def _run_sequential(method: str, d_r: list, d_s: list, start=None):
    """One join in a fresh workspace; ``start()`` runs after set-up."""
    ws = Workspace(CFG)
    tree_r = ws.install_rtree(d_r)
    file_s = ws.install_datafile(d_s)
    ws.start_measurement()
    if start is not None:
        start()
    result = spatial_join(
        file_s, tree_r, ws.buffer, ws.config, ws.metrics, method=method,
    )
    return (result.pairs, ws.metrics.summary(),
            ws.buffer.stats.hits, ws.buffer.stats.misses)


def _fast_and_scalar(method: str, run, monkeypatch, count_calls):
    """``run(start)`` on the fast path (``REPRO_KERNELS=1``), then on the
    scalar reference (``=0``), each leg proving which path its joins
    took: counting begins when ``run`` calls ``start()`` after set-up,
    and the fast leg calls into exactly the layers ``method`` reaches,
    the scalar leg into neither (ZJOIN's scalar leg calls the scalar
    ``decompose`` and ``stack_merge`` instead)."""
    calls = count_calls(*GEOMETRY_KERNELS, *BATCH_PHASES,
                        zjoin.batch_merge, *ZJOIN_SCALAR, *BUILDERS)
    _count_methods(monkeypatch, calls, PER_OBJECT)
    legs = []
    for kernels in ("1", "0"):
        monkeypatch.setenv("REPRO_KERNELS", kernels)
        legs.append(run(calls.clear))
        fast = kernels == "1"
        log_first = fast and method in LOG_FIRST_METHODS
        ran_builder = any(calls[fn.__name__] for fn in BUILDERS)
        assert ran_builder == log_first, (
            f"REPRO_KERNELS={kernels}: {method} made calls {dict(calls)}"
        )
        if log_first:
            assert not any(calls[name] for _, name in PER_OBJECT), (
                f"{method} ran the per-object build: {dict(calls)}"
            )
        ran_kernels = any(calls[fn.__name__] for fn in GEOMETRY_KERNELS)
        ran_batch = any(calls[fn.__name__] for fn in BATCH_PHASES)
        assert ran_kernels == (fast and method in KERNEL_METHODS), (
            f"REPRO_KERNELS={kernels}: {method} made calls {dict(calls)}"
        )
        assert ran_batch == (fast and method in BATCH_METHODS), (
            f"REPRO_KERNELS={kernels}: {method} made calls {dict(calls)}"
        )
        # ZJOIN builds and merges its z-files on exactly one path: batch
        # decomposition and vectorized merge on the fast leg, the
        # per-rectangle decomposition and the stack merge on the scalar.
        for fns, on in ((ZJOIN_FAST, fast), (ZJOIN_SCALAR, not fast)):
            for fn in fns:
                assert (calls[fn.__name__] > 0) == (on and method == "ZJOIN"), (
                    f"REPRO_KERNELS={kernels}: {method} made calls "
                    f"{dict(calls)}"
                )
    return legs


def _assert_legs_agree(fast, scalar, what: str = "") -> None:
    """Pairs in order, every CostSummary field, buffer hits and misses."""
    assert fast[0] == scalar[0], f"{what}pairs differ"
    for field in SUMMARY_FIELDS:
        assert getattr(fast[1], field) == getattr(scalar[1], field), (
            f"{what}CostSummary.{field}: fast path disagrees with scalar"
        )
    assert fast[2:] == scalar[2:], f"{what}buffer hits/misses differ"


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("method", METHODS)
def test_kernels_bit_identical_to_scalar(method, seed, monkeypatch,
                                         count_calls):
    """The fast path changes nothing observable on a cold workspace:
    pair list (including order), every CostSummary field and the
    buffer's hit/miss split match the scalar path bit for bit."""
    d_r, d_s = _kernel_workload(seed)
    fast, scalar = _fast_and_scalar(
        method, lambda start: _run_sequential(method, d_r, d_s, start),
        monkeypatch, count_calls,
    )
    assert fast[0], "workload produced no pairs; order is untested"
    _assert_legs_agree(fast, scalar)


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("method", METHODS)
def test_batch_bit_identical_to_scalar(method, seed, monkeypatch,
                                       count_calls):
    """The same contract on grid-snapped data, where ties are the rule:
    the batch plans' segmented sweeps must break every tie the way the
    scalar sweep does, or the emission order would drift."""
    d_r, d_s = (_snapped(side) for side in _kernel_workload(seed))
    fast, scalar = _fast_and_scalar(
        method, lambda start: _run_sequential(method, d_r, d_s, start),
        monkeypatch, count_calls,
    )
    assert fast[0], "workload produced no pairs; order is untested"
    _assert_legs_agree(fast, scalar)


@pytest.mark.parametrize("method", METHODS)
def test_batch_repeat_runs_bit_identical(method, monkeypatch, count_calls):
    """Repeated joins in ONE workspace — the resident steady state,
    where the traversal plan caches and the construction replay cache
    actually engage (a fresh workspace never hits them) — stay
    bit-identical to the scalar path run by run, down to the buffer's
    cumulative hit and miss counts."""
    d_r, d_s = _kernel_workload(0)

    def runs(start):
        ws = Workspace(CFG)
        tree_r = ws.install_rtree(d_r)
        file_s = ws.install_datafile(d_s)
        start()
        out = []
        for _ in range(3):
            ws.start_measurement()
            result = spatial_join(
                file_s, tree_r, ws.buffer, ws.config, ws.metrics,
                method=method,
            )
            out.append((
                result.pairs, ws.metrics.summary(),
                ws.buffer.stats.hits, ws.buffer.stats.misses,
            ))
        return out

    fast_runs, scalar_runs = _fast_and_scalar(
        method, runs, monkeypatch, count_calls,
    )
    assert fast_runs[0][0], "workload produced no pairs"
    for i, (fast, scalar) in enumerate(zip(fast_runs, scalar_runs)):
        _assert_legs_agree(fast, scalar, f"run {i}: ")


#: A resident rotation: two STJ variants (two recordings, two match
#: plans), RTJ (a match plan against a per-join R-tree) and BFJ (a
#: window plan) -- six warm-cache entries on T_R.
ROTATION = ("STJ1-2N", "RTJ", "BFJ", "STJ2-3F")

#: What a fast-leg round may call, counted per round. Each run of the
#: seeded builder records its log.
WARM_WORK = (node_store.build_match_plans, node_store.build_window_plans,
             builder.build_seeded_tree, replay_mod._replay)


def test_resident_rotation_hits_every_cache(monkeypatch, count_calls):
    """Rounds of the rotation in ONE workspace stay bit-identical to the
    scalar path round by round, and no method evicts another's warm
    state: from the second round on no plan is built and every STJ
    construct replays. A T_R insert drops it all: the next round
    rebuilds, and the round after hits again."""
    d_r, d_s = _kernel_workload(0)
    calls = count_calls(*WARM_WORK)
    work: dict[str, list] = {}

    def run(start):
        ws = Workspace(CFG)
        tree_r = ws.install_rtree(d_r)
        file_s = ws.install_datafile(d_s)
        start()
        rounds, work[os.environ["REPRO_KERNELS"]] = [], []
        for round_no in range(6):
            if round_no == 4:
                tree_r.insert(Rect(0.4, 0.4, 0.46, 0.46), 10**5)
                calls["insert"] -= 1   # this test's T_R edit, not a join's
            before = {fn.__name__: calls[fn.__name__] for fn in WARM_WORK}
            for method in ROTATION:
                ws.start_measurement()
                result = spatial_join(
                    file_s, tree_r, ws.buffer, ws.config, ws.metrics,
                    method=method,
                )
                rounds.append((
                    result.pairs, ws.metrics.summary(),
                    ws.buffer.stats.hits, ws.buffer.stats.misses,
                ))
            work[os.environ["REPRO_KERNELS"]].append(tuple(
                calls[fn.__name__] - before[fn.__name__] for fn in WARM_WORK
            ))
        cache = warm_cache_of(tree_r)
        work[os.environ["REPRO_KERNELS"]].append(
            (len(cache), {kind: cache.stats(kind) for kind in KINDS}))
        return rounds

    fast_runs, scalar_runs = _fast_and_scalar(
        "STJ", run, monkeypatch, count_calls,
    )
    assert fast_runs[0][0], "workload produced no pairs"
    for i, (fast, scalar) in enumerate(zip(fast_runs, scalar_runs)):
        method = ROTATION[i % len(ROTATION)]
        _assert_legs_agree(fast, scalar, f"round {i // 4} {method}: ")

    # (match plans built, window plans built, recordings, replays), the
    # same whether or not the sanitizer is armed.
    cold, warm = (3, 1, 2, 0), (0, 0, 0, 2)
    assert work["1"][:6] == [cold, warm, warm, warm, cold, warm]
    assert work["1"][6] == (6, {
        "match": {"hits": 0, "rebinds": 12, "misses": 6, "evictions": 0},
        "window": {"hits": 4, "rebinds": 0, "misses": 2, "evictions": 0},
        "construct": {"hits": 8, "rebinds": 0, "misses": 4, "evictions": 0},
    })
    # The scalar reference never reads or fills the cache.
    assert work["0"][:6] == [(0, 0, 0, 0)] * 6
    assert work["0"][6] == (0, {
        kind: {"hits": 0, "rebinds": 0, "misses": 0, "evictions": 0}
        for kind in KINDS
    })


@pytest.mark.parametrize("method", ("BFJ", "RTJ", "STJ"))
def test_plan_reuse_survives_key_collisions(method, monkeypatch,
                                           count_calls):
    """Plan keys are checksums and may collide. With every snapshot
    digest and every query-batch CRC forced equal, joining two different
    D_S sets against one T_R must still match the scalar path exactly:
    a stored plan is reused only when its inputs are bit-for-bit this
    join's."""
    d_r, d_s = _kernel_workload(0)
    _, d_s2 = _kernel_workload(1)
    assert len(d_s2) == len(d_s) and d_s2 != d_s
    monkeypatch.setattr(ColumnTree, "digest", lambda self: ("collide",))
    monkeypatch.setattr(join_batch, "zlib",
                        type("Crc", (), {"crc32": staticmethod(lambda b: 0)}))

    def run(start):
        ws = Workspace(CFG)
        tree_r = ws.install_rtree(d_r)
        files = [ws.install_datafile(d_s), ws.install_datafile(d_s2)]
        start()
        out = []
        for file_s in files + files:
            ws.start_measurement()
            result = spatial_join(
                file_s, tree_r, ws.buffer, ws.config, ws.metrics,
                method=method,
            )
            out.append((result.pairs, ws.metrics.summary(),
                        ws.buffer.stats.hits, ws.buffer.stats.misses))
        return out

    fast_runs, scalar_runs = _fast_and_scalar(
        method, run, monkeypatch, count_calls,
    )
    assert scalar_runs[0][0] and scalar_runs[1][0], "a join had no pairs"
    assert scalar_runs[0][0] != scalar_runs[1][0], "the D_S sets agree"
    for i, (fast, scalar) in enumerate(zip(fast_runs, scalar_runs)):
        _assert_legs_agree(fast, scalar, f"join {i}: ")


#: The sanitized legs cover every method that builds log-first, and BFJ.
SANITIZED_METHODS = ("STJ", "BFJ", "RTJ", "2STJ")


@pytest.mark.parametrize("method", SANITIZED_METHODS)
def test_kernels_bit_identical_under_sanitizer(method, monkeypatch,
                                               count_calls):
    """Both paths under the sanitizer agree — and its checks stay silent
    on the fast path's caches and on the trees the builder hands over
    with their snapshots."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    d_r, d_s = _kernel_workload(0)
    fast, scalar = _fast_and_scalar(
        method, lambda start: _run_sequential(method, d_r, d_s, start),
        monkeypatch, count_calls,
    )
    _assert_legs_agree(fast, scalar)


@pytest.mark.parametrize("method", SANITIZED_METHODS)
def test_batch_bit_identical_under_sanitizer(method, monkeypatch,
                                             count_calls):
    """The sanitized fast path, log-first builder included, still
    matches the plain scalar run; the traversal caches must stay
    coherent under the sanitizer's peeks."""
    d_r, d_s = _kernel_workload(0)
    sanitize = iter(("1", "0"))

    def run(start):
        monkeypatch.setenv("REPRO_SANITIZE", next(sanitize))
        return _run_sequential(method, d_r, d_s, start)

    fast, scalar = _fast_and_scalar(method, run, monkeypatch, count_calls)
    _assert_legs_agree(fast, scalar)


def test_kernels_bit_identical_in_parallel(monkeypatch, count_calls):
    """Tile joins follow REPRO_KERNELS too: a partitioned run (kept
    in-process by the guard, so the legs can watch its tiles) reconciles
    exactly with a scalar one."""
    d_r, d_s = _kernel_workload(0)

    def run(start):
        ws = Workspace(CFG)
        tree_r = ws.install_rtree(d_r)
        file_s = ws.install_datafile(d_s)
        ws.start_measurement()
        start()
        result = spatial_join(
            file_s, tree_r, ws.buffer, ws.config, ws.metrics, method="STJ",
            workers=2, partitions=4, parallel_seed=0,
        )
        assert not result.parallel_decision.pooled
        return (result.pairs, ws.metrics.summary(),
                ws.buffer.stats.hits, ws.buffer.stats.misses)

    fast, scalar = _fast_and_scalar("STJ", run, monkeypatch, count_calls)
    _assert_legs_agree(fast, scalar)


#: Oid layouts the fast path cannot pack as int64: both sides beyond
#: it (T_R from 2**63, D_S from 2**64), and only the probe side.
WIDE_OIDS = {"both-sides": (2**63, 2**64), "probe-side": (0, 2**64)}


def _wide_workload(oid_r: int, oid_s: int):
    """300 T_R objects (a tree deep enough for two seed levels) and 200
    D_S objects, numbered from the given oids."""
    d_r = generate_clustered(ClusteredConfig(
        300, cover_quotient=2.0, objects_per_cluster=11,
        data_side_bound=0.06, seed=905, oid_start=oid_r,
    ))
    d_s = generate_clustered(ClusteredConfig(
        200, cover_quotient=2.0, objects_per_cluster=7,
        data_side_bound=0.06, seed=955, oid_start=oid_s,
    ))
    return d_r, d_s


@pytest.mark.parametrize("layout", tuple(WIDE_OIDS))
@pytest.mark.parametrize(
    "method", ("BFJ", "RTJ", "STJ1-2N", "2STJ", "ZJOIN", "NAIVE"),
)
def test_oids_beyond_int64_match_scalar(method, layout, monkeypatch):
    """Oids beyond int64 do not fit the fast path's packed snapshots and
    plan keys: the join falls back to the scalar path instead of raising
    OverflowError, and agrees with REPRO_KERNELS=0 exactly."""
    d_r, d_s = _wide_workload(*WIDE_OIDS[layout])
    legs = []
    for kernels in ("1", "0"):
        monkeypatch.setenv("REPRO_KERNELS", kernels)
        legs.append(_run_sequential(method, d_r, d_s))
    fast, scalar = legs
    assert fast[0], "workload produced no pairs"
    assert max(oid for oid, _ in fast[0]) >= 2**64
    _assert_legs_agree(fast, scalar)


def test_unpackable_tree_is_packed_once_per_version(monkeypatch):
    """A T_R whose oids do not fit int64 is found out once per tree
    version: at set-up, where the log-first build packs it, and after a
    write where the fast path packs it. Re-joins reuse the cached answer
    instead of rescanning the tree's oids."""
    builds = []
    assemble = join_batch.assemble

    def counted(base, src, pages, *args, **kwargs):
        builds.append(pages[0])
        return assemble(base, src, pages, *args, **kwargs)

    monkeypatch.setattr(join_batch, "assemble", counted)
    monkeypatch.setenv("REPRO_KERNELS", "1")
    d_r, d_s = _wide_workload(2**63, 0)
    ws = Workspace(CFG)
    tree_r = ws.install_rtree(d_r)
    file_s = ws.install_datafile(d_s)
    assert join_batch.snapshot_record(tree_r).carried

    def rejoin():
        for _ in range(3):
            ws.start_measurement()
            result = spatial_join(
                file_s, tree_r, ws.buffer, ws.config, ws.metrics,
                method="BFJ",
            )
            assert result.pairs

    rejoin()
    assert builds == []
    tree_r.insert(d_r[0][0], 2**63 + 10**6)
    rejoin()
    assert builds == [tree_r.root_id]
    assert join_batch.column_tree_of(tree_r) is None


# --------------------------------------------------------------------- #
# Pooled mode vs sequential
# --------------------------------------------------------------------- #


def _run_routed(method: str, seed: int, **parallel_kw):
    """One parallel run on the workload of ``seed``, any route."""
    d_r, d_s = _workload(seed)
    ws = Workspace(CFG)
    tree_r = ws.install_rtree(d_r)
    file_s = ws.install_datafile(d_s)
    ws.start_measurement()
    result = spatial_join(
        file_s, tree_r, ws.buffer, ws.config, ws.metrics, method=method,
        **parallel_kw,
    )
    return result, ws.metrics.summary(), ws


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("method", METHODS)
def test_pooled_equals_sequential(method: str, seed: int) -> None:
    """The persistent-pool route (guard disabled so it always engages)
    is observationally equivalent to sequential: same pair set, no
    duplicates, exactly reconcilable accounting."""
    sequential, _summary, _ws = _run_routed(method, seed)
    pooled, merged, ws = _run_routed(
        method, seed, workers=2, partitions=4, parallel_seed=seed,
        parallel_guard=False,
    )
    assert pooled.parallel_decision is not None
    assert pooled.parallel_decision.pooled, pooled.parallel_decision
    assert pooled.pair_set() == sequential.pair_set()
    assert len(pooled.pairs) == len(set(pooled.pairs))
    summed = summed_summary(pooled.partitions, ws.config)
    for field in SUMMARY_FIELDS:
        assert getattr(merged, field) == getattr(summed, field), (
            f"{field}: merged collector disagrees with partition sum"
        )


def test_pooled_kernels_on_off_bit_identical(monkeypatch) -> None:
    """Fast path vs scalar through the pooled route: identical pairs and
    counters (each task carries the parent join's mode to its worker;
    ``test_pooled_tile_runner_runs_the_forwarded_path`` shows the worker
    side runs it)."""
    d_r, d_s = _kernel_workload(1)

    def run(kernels: str):
        monkeypatch.setenv("REPRO_KERNELS", kernels)
        ws = Workspace(CFG)
        tree_r = ws.install_rtree(d_r)
        file_s = ws.install_datafile(d_s)
        ws.start_measurement()
        result = spatial_join(
            file_s, tree_r, ws.buffer, ws.config, ws.metrics, method="STJ",
            workers=2, partitions=4, parallel_seed=1, parallel_guard=False,
        )
        assert result.parallel_decision.pooled
        return result.pair_set(), ws.metrics.summary()

    pairs_on, summary_on = run("1")
    pairs_off, summary_off = run("0")
    assert pairs_on == pairs_off
    for field in SUMMARY_FIELDS:
        assert getattr(summary_on, field) == getattr(summary_off, field)


def test_pooled_batch_on_off_bit_identical(monkeypatch) -> None:
    """The batch plans' tie-breaking survives the pooled route: on
    grid-snapped data, where ties are the rule, BFJ's batch window phase
    and its scalar counterpart give identical pairs and counters across
    the pool's workers."""
    d_r, d_s = (_snapped(side) for side in _kernel_workload(2))

    def run(kernels: str):
        monkeypatch.setenv("REPRO_KERNELS", kernels)
        ws = Workspace(CFG)
        tree_r = ws.install_rtree(d_r)
        file_s = ws.install_datafile(d_s)
        ws.start_measurement()
        result = spatial_join(
            file_s, tree_r, ws.buffer, ws.config, ws.metrics, method="BFJ",
            workers=2, partitions=4, parallel_seed=2, parallel_guard=False,
        )
        assert result.parallel_decision.pooled
        return result.pair_set(), ws.metrics.summary()

    pairs_on, summary_on = run("1")
    pairs_off, summary_off = run("0")
    assert pairs_on, "workload produced no pairs"
    assert pairs_on == pairs_off
    for field in SUMMARY_FIELDS:
        assert getattr(summary_on, field) == getattr(summary_off, field)


@pytest.mark.parametrize("method", ("STJ", "BFJ"))
def test_pooled_tile_runner_runs_the_forwarded_path(method, monkeypatch,
                                                    count_calls) -> None:
    """A pool worker's :class:`TileRunner` runs the mode its task
    carries, whatever the worker's environment says, and leaves that
    environment alone: the fast job runs under ``REPRO_KERNELS=0`` and
    still calls the batch match phase, the scalar job runs under
    ``REPRO_KERNELS=1`` and never does, and both tile runs agree
    exactly."""
    d_r, d_s = _kernel_workload(1)
    dataset = PublishedDataset("tile-runner-legs", 1, d_r, d_s)
    runner = TileRunner()
    try:
        runner.publish(dataset.descriptor)
        _partitioner, descriptors, grid = dataset.grid(4)
        tile = max(descriptors, key=lambda d: d.n_r + d.n_s)
        calls = count_calls(*BATCH_PHASES)
        legs = []
        for fast, env_kernels in ((True, "0"), (False, "1")):
            monkeypatch.setenv("REPRO_KERNELS", env_kernels)
            job = TileJob(
                dataset_key=dataset.key, version=dataset.version,
                grid=grid, tile=tile.tile.index, n_r=tile.n_r, n_s=tile.n_s,
                method=method, config=CFG, options={}, seed=1,
                want_trace=False,
                mode=ExecutionMode(fast=fast, sanitize=False),
            )
            calls.clear()
            environ = dict(os.environ)
            outcome = unpack_outcome(runner.run(job))
            assert dict(os.environ) == environ, "the task rewrote os.environ"
            assert outcome.algorithm == method
            legs.append((outcome.pairs, outcome.snapshot, sum(calls.values())))
    finally:
        runner.close()
        dataset.unlink()
    (pairs_on, snap_on, calls_on), (pairs_off, snap_off, calls_off) = legs
    assert calls_on > 0 and calls_off == 0
    assert pairs_on, "tile produced no pairs"
    assert pairs_on == pairs_off
    assert snap_on == snap_off


@pytest.mark.parametrize("method", METHODS)
def test_mode_is_read_once_per_join(method, count_calls) -> None:
    """A sequential join reads each of its two switches exactly once,
    when it starts, and passes the mode down instead of re-reading the
    environment: cold (fresh workspace) and warm (a repeat in the same
    workspace, where replay and plan caches engage) alike."""
    d_r, d_s = _kernel_workload(0)
    ws = Workspace(CFG)
    tree_r = ws.install_rtree(d_r)
    file_s = ws.install_datafile(d_s)
    calls = count_calls(kernels_enabled, sanitizer_enabled)
    for run in ("cold", "warm"):
        ws.start_measurement()
        calls.clear()
        result = spatial_join(
            file_s, tree_r, ws.buffer, ws.config, ws.metrics, method=method,
        )
        assert result.pairs, "workload produced no pairs"
        assert calls == {"kernels_enabled": 1, "sanitizer_enabled": 1}, (
            f"{run} {method} join read the environment: {dict(calls)}"
        )
