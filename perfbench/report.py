"""Turn workload passes into the printed metrics, and the checks that
decide whether a run counts: non-vacuity and traced/untraced identity.

Library-reported timings (per-class latencies, ``phase_walls``,
``PartitionStats``, ``ServiceResponse`` waits) come from the untraced
pass; wrapper-derived counts and busy times come from the traced pass and
are divided by its number of completed operations.
"""

from __future__ import annotations

import resource

import catalog
from common import BUFFER_FIELDS, median, percentile

#: Operation class -> its per-class latency metric.
CLASS_METRICS = {
    "STJ1-2N": "stj_p50_ms", "RTJ": "rtj_p50_ms", "BFJ": "bfj_p50_ms",
    "2STJ": "2stj_p50_ms", "ZJOIN": "zjoin_p50_ms",
    "pooled-STJ": "pooled_stj_p50_ms", "query": "query_p50_ms",
    "join": "svc_join_p50_ms", "update": "update_p50_ms",
}
#: Probe key -> (count metric, busy-time metric).
PROBE_METRICS = {
    "kernels": ("kernels.calls", "kernels.busy_s"),
    "kernels.plan.match": ("kernels.plan.match_builds",
                           "kernels.plan.match_build_s"),
    "kernels.plan.window": ("kernels.plan.window_builds",
                            "kernels.plan.window_build_s"),
    "seeded.construct": ("seeded.construct.calls", "seeded.construct_s"),
    "seeded.grow": ("seeded.grow.calls", "seeded.grow_s"),
    "rtree.insert": ("rtree.inserts", "rtree.insert_s"),
    "rtree.delete": ("rtree.deletes", "rtree.delete_s"),
    "rtree.window_query": ("rtree.window_queries", "rtree.window_query_s"),
    "zorder.decompose": ("zorder.decompose.calls", "zorder.decompose_s"),
    "zorder.zfile_build": (None, "zorder.zfile_build_s"),
    "storage.buffer.fetch": (None, "storage.buffer.fetch_s"),
    "join.batch.match_replay": (None, "join.batch.match_replay_s"),
    "join.batch.window_replay": (None, "join.batch.window_replay_s"),
}


def _ops(out) -> int:
    """Completed operations: joins, or answered service requests."""
    return out.extra.get("answered", out.attempted)


def end_to_end(out) -> dict[str, float]:
    ops = max(_ops(out), 1)
    return {
        "setup_s": median(out.setup) * out.host_factor(),
        "latency_p50_ms": out.latency_ms(),
        "io_per_op": out.io / ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(plain, traced, probe) -> dict[str, float]:
    """Library-reported timings from the untraced pass; wrapper counts and
    busy times from the traced pass, per operation."""
    values = {m.name: 0.0 for m in catalog.PER_LAYER}
    for label, samples in plain.latencies.items():
        values[CLASS_METRICS[label]] = median(samples) * 1e3
    values["query_p99_ms"] = percentile(plain.latencies.get("query", []),
                                        99) * 1e3
    values["svc_join_p90_ms"] = percentile(plain.latencies.get("join", []),
                                           90) * 1e3
    attempted = plain.attempted + traced.attempted
    values["failed_frac"] = (plain.failed + traced.failed) / max(attempted, 1)
    for (label, phase), walls in plain.walls.items():
        name = f"join.{phase}_s.{label}"
        if name in values:
            values[name] = median(walls)

    ops = max(_ops(traced), 1)
    for key, (count_name, busy_name) in PROBE_METRICS.items():
        calls, busy = probe.per_key(key)
        if count_name:
            values[count_name] = calls / ops
        values[busy_name] = busy / ops
    values["join.batch.snapshot.builds"] = probe.snapshot_builds / ops
    values["join.batch.snapshot_s"] = probe.snapshot_s / ops
    lookups = (probe.per_key("join.batch.match_replay")[0]
               + probe.per_key("join.batch.window_replay")[0])
    builds = (probe.per_key("kernels.plan.match")[0]
              + probe.per_key("kernels.plan.window")[0])
    if lookups:
        values["join.batch.plan_hit_ratio"] = 1 - builds / lookups
    constructs = probe.per_key("seeded.construct")[0]
    if constructs:
        values["seeded.replay.hit_ratio"] = probe.replay_hits / constructs

    for name in BUFFER_FIELDS:
        values[f"storage.buffer.{name}"] = traced.buffer[name] / ops
    touched = traced.buffer["hits"] + traced.buffer["misses"]
    if touched:
        values["storage.buffer.hit_ratio"] = traced.buffer["hits"] / touched
    for key, count in traced.disk.items():
        values[f"storage.disk.{key}"] = count / ops
    values["metrics.bbox_tests"] = traced.bbox_tests / ops
    values["metrics.xy_tests"] = traced.xy_tests / ops

    if plain.parallel:
        pooled, slowest, setup, overhead = zip(*plain.parallel)
        values["parallel.pooled_ratio"] = sum(pooled) / len(pooled)
        values["parallel.tile_wall_max_s"] = median(slowest)
        values["parallel.tile_setup_s"] = median(setup)
        values["parallel.overhead_s"] = median(overhead)

    counters = plain.extra.get("counters")
    if counters:
        values["service.queue_wait_p50_ms"] = median(
            plain.extra["queue_wait"]) * 1e3
        values["service.queue_wait_p99_ms"] = percentile(
            plain.extra["queue_wait"], 99) * 1e3
        values["service.service_p50_ms"] = median(
            plain.extra["service_s"]) * 1e3
        for name in ("admission_downgrades", "overload_degrades", "shed",
                     "rejected_budget", "timed_out"):
            values[f"service.{name}"] = counters[name]
        values["driver.lag_p99_ms"] = plain.extra["lag_p99_ms"]
    values["driver.reference_ms"] = median(plain.reference) * 1e3
    values["trace.overhead"] = traced.latency_ms() / max(
        plain.latency_ms(), 1e-12)
    return values


# --------------------------------------------------------------------- #
# Gates
# --------------------------------------------------------------------- #


def vacuity_problems(workload: str, out, probe) -> list[str]:
    """Reasons the pass did not exercise what its workload is for."""
    problems = []
    if workload == catalog.WARM:
        warm_stj = len(out.latencies.get("STJ1-2N", []))
        if probe.replay_hits != warm_stj:
            problems.append(
                f"construction replay hit {probe.replay_hits} of {warm_stj} "
                f"warm STJ joins")
        if not out.parallel or not all(p[0] for p in out.parallel):
            problems.append("a pooled join did not run on the worker pool")
    elif probe.replay_hits:
        problems.append(f"construction replay hit {probe.replay_hits} times "
                        f"where no join repeats")
    if workload == catalog.SERVICE and not probe.rebuilds_after_mutation:
        problems.append("no T_R snapshot was rebuilt after an update")
    return problems


def identity_problems(plain, traced) -> list[str]:
    """Where the traced pass did not reproduce the untraced one."""
    if len(plain.fingerprints) != len(traced.fingerprints):
        return [f"traced pass ran {len(traced.fingerprints)} operations, "
                f"untraced {len(plain.fingerprints)}"]
    pairs = list(zip(plain.fingerprints, traced.fingerprints))
    if pairs and pairs[0][0][0] == "methods" and pairs[0][0] != pairs[0][1]:
        # Service: the overload ladder reacts to timing; CostSummary is
        # only comparable when both passes ran the same methods.
        return []
    return [f"operation {i} ({a[0]}): pairs or CostSummary differ"
            for i, (a, b) in enumerate(pairs) if a != b]
