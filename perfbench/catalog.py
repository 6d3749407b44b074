"""The benchmark's metric catalog: one row per metric, the single source
of truth for names, units, direction, regression bounds and meaning.

``BENCHMARK.json`` at the repository root lists the same names, units,
directions and bounds; :func:`check_manifest` refuses to run when the two
drift apart. ``python3 perfbench/run.py --describe`` prints the catalog
with each metric's layer, meaning and the workloads it is read on.

Per-layer counts and busy times are reported **per operation** (the mean
over the measured operations of the traced pass), so a run that completes
more operations does not read as more work. Ratios are ratios, latency
percentiles are percentiles, and a metric a workload does not exercise
reads 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

COLD = "cold-join"
WARM = "warm-resident"
SERVICE = "service-mixed"
ALL = (COLD, WARM, SERVICE)
LIBRARY = (COLD, WARM)

#: Workload name -> the one-line reason it is in the benchmark.
WORKLOADS = {
    COLD: (
        "The paper's regime: a fresh derived D_S joined once against a "
        "T_R larger than the buffer, so no cache keyed on D_S can hit and "
        "construction dominates."
    ),
    WARM: (
        "Resident steady state: one D_S re-joined in one workspace, so "
        "construction replay, plan caches and warm pool tiles all hit; "
        "RTJ has no replay and is the control."
    ),
    SERVICE: (
        "Open-loop Poisson traffic on one JoinService session: the only "
        "workload with queueing, admission, deadlines and writes that "
        "invalidate T_R snapshots."
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    meaning: str
    workloads: tuple[str, ...] = ALL
    bound: float | None = None


def _m(name, unit, better, layer, meaning, workloads=ALL, bound=None):
    return Metric(name, unit, better, layer, meaning, tuple(workloads), bound)


#: Printed with ``--trace 0``; every workload reports every one. Timings
#: of CPU-bound work are expressed at nominal host speed: the run times a
#: fixed reference loop between operations and scales wall times by
#: (nominal reference time / measured median reference time). The shared
#: host's speed drifts by tens of percent over minutes; this cuts the
#: run-to-run spread of the library latencies from ~30% to ~3-10%. The
#: raw wall times are the per-class per-layer metrics, and
#: driver.reference_ms is the host speed itself.
END_TO_END = (
    _m("setup_s", "s", "lower", "e2e",
       "median set-up time at nominal host speed: T_R build (cold), T_R "
       "build plus the first cache-filling join of each method (warm), "
       "session build and buffer warm-up (service)", bound=0.25),
    _m("latency_p50_ms", "ms", "lower", "e2e",
       "the geometric mean over the workload's operation classes of each "
       "class's median latency; cold/warm: one class per join method, at "
       "nominal host speed; service: window query, small join, update, "
       "raw wall time from each request's scheduled send", bound=0.25),
    _m("io_per_op", "io/op", "lower", "e2e",
       "the paper's weighted accounted I/O (CostSummary.total_io) per "
       "completed operation", bound=0.1),
    _m("peak_rss_mb", "MB", "lower", "e2e",
       "peak resident set size of the benchmark process", bound=0.1),
)

_PHASES = (
    ("prepare", ("2STJ", "ZJOIN"), (COLD,)),
    ("construct", ("STJ1-2N", "RTJ", "2STJ", "ZJOIN"), LIBRARY),
    ("match", ("STJ1-2N", "RTJ", "BFJ", "2STJ", "ZJOIN"), LIBRARY),
)


def _phase_metrics():
    for phase, methods, workloads in _PHASES:
        for method in methods:
            wl = workloads if method in ("STJ1-2N", "RTJ", "BFJ") else (COLD,)
            yield _m(f"join.{phase}_s.{method}", "s", "lower", "join",
                     f"median JoinResult.phase_walls['{phase}'] of {method}; "
                     f"moves that method's p50", wl)


#: Printed with ``--trace 1``.
PER_LAYER = (
    # Per-class latencies behind latency_p50_ms (untraced pass).
    _m("stj_p50_ms", "ms", "lower", "e2e-class",
       "median STJ1-2N join latency", LIBRARY),
    _m("rtj_p50_ms", "ms", "lower", "e2e-class",
       "median RTJ join latency", LIBRARY),
    _m("bfj_p50_ms", "ms", "lower", "e2e-class",
       "median BFJ join latency", LIBRARY),
    _m("2stj_p50_ms", "ms", "lower", "e2e-class",
       "median 2STJ join latency", (COLD,)),
    _m("zjoin_p50_ms", "ms", "lower", "e2e-class",
       "median ZJOIN join latency", (COLD,)),
    _m("pooled_stj_p50_ms", "ms", "lower", "e2e-class",
       "median STJ1-2N latency with workers=2, partitions=8", (WARM,)),
    _m("query_p50_ms", "ms", "lower", "e2e-class",
       "median window-query latency from scheduled send", (SERVICE,)),
    _m("query_p99_ms", "ms", "lower", "e2e-class",
       "99th-percentile window-query latency from scheduled send",
       (SERVICE,)),
    _m("svc_join_p50_ms", "ms", "lower", "e2e-class",
       "median small-join latency from scheduled send", (SERVICE,)),
    _m("svc_join_p90_ms", "ms", "lower", "e2e-class",
       "90th-percentile small-join latency from scheduled send",
       (SERVICE,)),
    _m("update_p50_ms", "ms", "lower", "e2e-class",
       "median update-batch latency from scheduled send", (SERVICE,)),
    _m("failed_frac", "ratio", "lower", "e2e-class",
       "share of attempted operations shed, timed out, wrongly rejected, "
       "faulted or wrong"),
    # join: engine phases and the batch layer.
    *_phase_metrics(),
    _m("join.batch.snapshot.builds", "count/op", "lower", "join",
       "column_tree_of calls that returned a new snapshot; moves "
       "svc_join_* on service-mixed"),
    _m("join.batch.snapshot_s", "s/op", "lower", "join",
       "time in column_tree_of calls that built a snapshot"),
    _m("join.batch.match_replay_s", "s/op", "lower", "join",
       "time in match_trees_batch; moves stj on warm-resident", LIBRARY),
    _m("join.batch.window_replay_s", "s/op", "lower", "join",
       "time in window_join_batch; moves bfj on warm-resident"),
    _m("join.batch.plan_hit_ratio", "ratio", "higher", "join",
       "batch traversals that reused a lowered plan; ~0 cold, ~1 warm"),
    # kernels.
    _m("kernels.plan.match_builds", "count/op", "lower", "kernels",
       "build_match_plans calls; cold-join joins"),
    _m("kernels.plan.match_build_s", "s/op", "lower", "kernels",
       "time in build_match_plans"),
    _m("kernels.plan.window_builds", "count/op", "lower", "kernels",
       "build_window_plans calls"),
    _m("kernels.plan.window_build_s", "s/op", "lower", "kernels",
       "time in build_window_plans"),
    _m("kernels.calls", "count/op", "lower", "kernels",
       "outermost calls of the public batch kernels (intersect, MBR, "
       "enlargement, split, sweeps); move the construct phase on cold-join"),
    _m("kernels.busy_s", "s/op", "lower", "kernels",
       "time in those kernel calls"),
    # seeded.
    _m("seeded.construct.calls", "count/op", "lower", "seeded",
       "cached_construct calls (STJ's construct phase)"),
    _m("seeded.construct_s", "s/op", "lower", "seeded",
       "time in cached_construct"),
    _m("seeded.replay.hit_ratio", "ratio", "higher", "seeded",
       "cached_construct calls whose build callback never ran; 1 warm, "
       "0 cold and service"),
    _m("seeded.grow.calls", "count/op", "lower", "seeded",
       "SeededTree.grow_from calls (STJ and 2STJ builds that really ran)"),
    _m("seeded.grow_s", "s/op", "lower", "seeded",
       "time in SeededTree.grow_from"),
    # rtree.
    _m("rtree.inserts", "count/op", "lower", "rtree",
       "RTree.insert calls; RTJ builds and service updates"),
    _m("rtree.insert_s", "s/op", "lower", "rtree", "time in RTree.insert"),
    _m("rtree.deletes", "count/op", "lower", "rtree",
       "RTree.delete calls; service updates", (SERVICE,)),
    _m("rtree.delete_s", "s/op", "lower", "rtree", "time in RTree.delete",
       (SERVICE,)),
    _m("rtree.window_queries", "count/op", "lower", "rtree",
       "RTree.window_query calls; moves query_p50_ms", (SERVICE,)),
    _m("rtree.window_query_s", "s/op", "lower", "rtree",
       "time in RTree.window_query", (SERVICE,)),
    # zorder.
    _m("zorder.decompose.calls", "count/op", "lower", "zorder",
       "per-rectangle decompose calls; ZJOIN only", (COLD,)),
    _m("zorder.decompose_s", "s/op", "lower", "zorder",
       "time in decompose; moves zjoin_p50_ms", (COLD,)),
    _m("zorder.zfile_build_s", "s/op", "lower", "zorder",
       "time in ZFile.build (decompose + sort + write)", (COLD,)),
    # storage.
    _m("storage.buffer.hits", "count/op", "higher", "storage",
       "buffer hits (BufferPool.stats)"),
    _m("storage.buffer.misses", "count/op", "lower", "storage",
       "buffer misses"),
    _m("storage.buffer.evictions", "count/op", "lower", "storage",
       "buffer evictions"),
    _m("storage.buffer.dirty_writebacks", "count/op", "lower", "storage",
       "dirty pages written back on eviction"),
    _m("storage.buffer.hit_ratio", "ratio", "higher", "storage",
       "hits / (hits + misses)"),
    *(
        _m(f"storage.disk.{kind}.{phase}", "count/op", "lower", "storage",
           f"accounted {kind.replace('_', ' ')} charged to {phase}")
        for kind in ("random_reads", "sequential_reads", "random_writes",
                     "sequential_writes")
        for phase in ("construct", "match")
    ),
    _m("storage.buffer.fetch_s", "s/op", "lower", "storage",
       "time in BufferPool.fetch / fetch_run / replay_ops (buffer "
       "simulation busy time)"),
    # metrics.
    _m("metrics.bbox_tests", "count/op", "lower", "metrics",
       "CostSummary.bbox_tests per operation (exact)"),
    _m("metrics.xy_tests", "count/op", "lower", "metrics",
       "CostSummary.xy_tests per operation (exact)"),
    # parallel / partition.
    _m("parallel.pooled_ratio", "ratio", "higher", "parallel",
       "pooled joins whose ParallelDecision.pooled is true", (WARM,)),
    _m("parallel.tile_wall_max_s", "s", "lower", "parallel",
       "median over pooled joins of the slowest tile's wall", (WARM,)),
    _m("parallel.tile_setup_s", "s", "lower", "parallel",
       "median over pooled joins of summed tile substrate set-up", (WARM,)),
    _m("parallel.overhead_s", "s", "lower", "parallel",
       "median over pooled joins of pooled wall minus slowest tile wall; "
       "moves pooled_stj_p50_ms", (WARM,)),
    # service.
    _m("service.queue_wait_p50_ms", "ms", "lower", "service",
       "median ServiceResponse.queue_wait_s", (SERVICE,)),
    _m("service.queue_wait_p99_ms", "ms", "lower", "service",
       "99th-percentile queue wait; moves query_p99_ms", (SERVICE,)),
    _m("service.service_p50_ms", "ms", "lower", "service",
       "median ServiceResponse.service_s", (SERVICE,)),
    _m("service.admission_downgrades", "count", "lower", "service",
       "admission STJ->BFJ downgrades (expected for tight-budget joins)",
       (SERVICE,)),
    _m("service.overload_degrades", "count", "lower", "service",
       "overload-ladder downgrades", (SERVICE,)),
    _m("service.shed", "count", "lower", "service",
       "requests shed by the bounded queue", (SERVICE,)),
    _m("service.rejected_budget", "count", "lower", "service",
       "requests rejected by admission (expected for the large joins)",
       (SERVICE,)),
    _m("service.timed_out", "count", "lower", "service",
       "requests that missed their deadline", (SERVICE,)),
    # benchmark health.
    _m("driver.lag_p99_ms", "ms", "lower", "driver",
       "99th percentile of how late the open-loop generator sent", (SERVICE,)),
    _m("driver.reference_ms", "ms", "lower", "driver",
       "median wall time of the reference loop: the host's speed"),
    _m("trace.overhead", "ratio", "lower", "driver",
       "traced latency_p50_ms divided by untraced latency_p50_ms"),
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The ``BENCHMARK.json`` this catalog implies."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def check_manifest(path: Path) -> str | None:
    """Describe how ``BENCHMARK.json`` differs from the catalog, if it does."""
    try:
        on_disk = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return f"cannot read {path.name}: {exc}"
    if on_disk != manifest():
        return (f"{path.name} does not match perfbench/catalog.py; "
                f"regenerate it with `python3 perfbench/run.py --manifest`")
    return None


def describe() -> str:
    lines = []
    for title, rows in (("end-to-end", END_TO_END), ("per-layer", PER_LAYER)):
        lines.append(f"## {title}")
        for m in rows:
            bound = f" bound {m.bound}" if m.bound is not None else ""
            lines.append(
                f"{m.name} [{m.unit}, {m.better}{bound}] layer={m.layer} "
                f"workloads={','.join(m.workloads)}: {m.meaning}"
            )
    return "\n".join(lines)
