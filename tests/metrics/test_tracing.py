"""Tests for structured join tracing and its Chrome-trace export."""

import json

import pytest

from repro.config import SystemConfig
from repro.join import spatial_join
from repro.metrics import (
    JoinTrace,
    MetricsCollector,
    Phase,
    format_trace_tree,
    validate_chrome_trace,
)
from repro.metrics.tracing import TraceSchemaError
from repro.seeded import builder
from repro.seeded.tree import SeededTree
from repro.workload import ClusteredConfig, generate_clustered
from repro.workspace import Workspace

CFG = SystemConfig(page_size=512, buffer_pages=64)


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 0.25
        return self.t


class TestSpanTree:
    def test_nesting_and_durations(self):
        metrics = MetricsCollector(CFG)
        trace = JoinTrace(metrics, clock=_FakeClock())
        with trace.span("outer", kind="join"):
            with trace.span("inner", kind="phase", phase=Phase.MATCH):
                pass
        (root,) = trace.roots
        assert root.name == "outer"
        (inner,) = root.children
        assert inner.phase == "match"
        assert inner.duration_s == pytest.approx(0.25)
        assert root.duration_s > inner.duration_s
        assert [s.name for s in root.walk()] == ["outer", "inner"]
        assert trace.depth == 0

    def test_span_captures_io_deltas_per_accounting_phase(self):
        metrics = MetricsCollector(CFG)
        trace = JoinTrace(metrics)
        with trace.span("work", phase=Phase.CONSTRUCT):
            with metrics.phase(Phase.CONSTRUCT):
                metrics.record_read(sequential=False)
                metrics.record_write(sequential=True)
        (span,) = trace.roots
        assert set(span.io) == {"construct"}
        assert span.io["construct"].random_reads == 1
        assert span.io["construct"].sequential_writes == 1

    def test_error_recorded_and_reraised(self):
        trace = JoinTrace(MetricsCollector(CFG))
        with pytest.raises(RuntimeError):
            with trace.span("bad"):
                raise RuntimeError("kaput")
        (span,) = trace.roots
        assert span.error == "RuntimeError: kaput"
        assert span.end_s is not None


class TestTracedJoins:
    @pytest.fixture(scope="class")
    def env(self):
        ws = Workspace(CFG)
        d_r = generate_clustered(ClusteredConfig(
            2_000, objects_per_cluster=20, seed=71,
        ))
        d_s = generate_clustered(ClusteredConfig(
            800, objects_per_cluster=20, seed=72, oid_start=10**6,
        ))
        tree_r = ws.install_rtree(d_r)
        file_s = ws.install_datafile(d_s)
        return ws, tree_r, file_s

    @pytest.mark.parametrize("method", ["BFJ", "RTJ", "STJ1-2N"])
    def test_phase_totals_match_collector(self, env, method):
        """Phase spans partition the join's work, so their I/O sums equal
        the collector's per-phase counters for the measured run."""
        ws, tree_r, file_s = env
        ws.start_measurement()
        result = spatial_join(file_s, tree_r, ws.buffer, ws.config,
                              ws.metrics, method=method, trace=True)
        totals = result.trace.phase_io_totals()
        for phase in (Phase.CONSTRUCT, Phase.MATCH):
            measured = ws.metrics.io_for(phase)
            traced = totals.get(phase.value)
            if measured.total_accesses == 0:
                assert traced is None
            else:
                assert traced == measured

    def test_tracing_does_not_perturb_counters(self, env):
        ws, tree_r, file_s = env
        ws.start_measurement()
        spatial_join(file_s, tree_r, ws.buffer, ws.config, ws.metrics,
                     method="STJ1-2N")
        plain = ws.metrics.summary()
        ws.start_measurement()
        spatial_join(file_s, tree_r, ws.buffer, ws.config, ws.metrics,
                     method="STJ1-2N", trace=True)
        assert ws.metrics.summary() == plain

    def test_chrome_export_round_trips_and_validates(self, env):
        ws, tree_r, file_s = env
        ws.start_measurement()
        result = spatial_join(file_s, tree_r, ws.buffer, ws.config,
                              ws.metrics, method="STJ1-2N", trace=True)
        events = json.loads(result.trace.to_json())
        validate_chrome_trace(events)
        names = [e["name"] for e in events]
        assert names[0] == "STJ"
        assert "construct" in names and "match" in names
        root = events[0]
        assert root["cat"] == "join" and root["ph"] == "X"
        # The root spans its children in time.
        for child in events[1:]:
            assert child["ts"] >= root["ts"]
            assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1

    def test_existing_trace_collects_multiple_joins(self, env):
        ws, tree_r, file_s = env
        ws.start_measurement()
        trace = JoinTrace(ws.metrics, ws.buffer)
        for method in ("BFJ", "RTJ"):
            spatial_join(file_s, tree_r, ws.buffer, ws.config, ws.metrics,
                         method=method, trace=trace)
        assert [r.name for r in trace.roots] == ["BFJ", "RTJ"]
        validate_chrome_trace(trace.to_chrome_trace())

    def test_terminal_tree_rendering(self, env):
        ws, tree_r, file_s = env
        ws.start_measurement()
        result = spatial_join(file_s, tree_r, ws.buffer, ws.config,
                              ws.metrics, method="STJ1-2N", trace=True)
        text = format_trace_tree(result.trace, title="stj run")
        assert "stj run" in text
        assert "STJ" in text and "construct" in text and "match" in text
        assert "└─" in text


class TestTracingDoesNotSteerConstruction:
    @pytest.mark.parametrize("method", ["STJ1-2N", "RTJ", "2STJ"])
    def test_traced_joins_build_and_replay_as_untraced_ones(
        self, method, monkeypatch, count_calls
    ):
        """Spans snapshot counters at phase boundaries, so tracing must
        not change how a tree is built: in twin workspaces, two traced
        joins and two untraced ones give the same pairs, CostSummary
        and buffer hits/misses, and call the log-first builders and the
        per-object ``grow_from`` equally often (the second STJ join
        replays its first build on both sides)."""
        d_r = generate_clustered(ClusteredConfig(
            1_200, objects_per_cluster=20, seed=81,
        ))
        d_s = generate_clustered(ClusteredConfig(
            500, objects_per_cluster=20, seed=82, oid_start=10**6,
        ))
        calls = count_calls(builder.build_seeded_tree, builder.build_rtree)
        grow_from = SeededTree.grow_from

        def counted_grow_from(*args, **kwargs):
            calls["grow_from"] += 1
            return grow_from(*args, **kwargs)

        monkeypatch.setattr(SeededTree, "grow_from", counted_grow_from)

        def run(trace):
            ws = Workspace(CFG)
            tree_r = ws.install_rtree(d_r)
            file_s = ws.install_datafile(d_s)
            joins = []
            for _ in range(2):
                ws.start_measurement()
                calls.clear()
                result = spatial_join(
                    file_s, tree_r, ws.buffer, ws.config, ws.metrics,
                    method=method, trace=trace,
                )
                assert (result.trace is not None) == trace
                joins.append((
                    result.pairs, ws.metrics.summary(),
                    ws.buffer.stats.hits, ws.buffer.stats.misses,
                    dict(calls),
                ))
            return joins

        assert run(trace=True) == run(trace=False)


class TestSchemaValidation:
    def _good_event(self) -> dict:
        return {
            "name": "match", "cat": "phase", "ph": "X",
            "ts": 0.0, "dur": 1.0, "pid": 1, "tid": 2,
            "args": {
                "phase": "match", "error": None,
                "io": {"match": {
                    "random_reads": 1, "sequential_reads": 0,
                    "random_writes": 0, "sequential_writes": 0,
                }},
                "cpu": {"bbox_tests": 0, "xy_tests": 5},
                "faults": {
                    "injected": 0, "retries": 0, "crash_recoveries": 0,
                    "checkpoints": 0, "fallbacks": 0,
                },
                "buffer": {"hits": 3, "misses": 1, "hit_rate": 0.75},
            },
        }

    def test_accepts_conforming_event(self):
        validate_chrome_trace([self._good_event()])

    def test_rejects_non_list(self):
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace({"name": "x"})

    def test_rejects_extra_key(self):
        event = self._good_event()
        event["extra"] = 1
        with pytest.raises(TraceSchemaError, match="event\\[0\\]"):
            validate_chrome_trace([event])

    def test_rejects_bad_category(self):
        event = self._good_event()
        event["cat"] = "mystery"
        with pytest.raises(TraceSchemaError, match="cat"):
            validate_chrome_trace([event])

    def test_rejects_unknown_accounting_phase(self):
        event = self._good_event()
        event["args"]["io"]["warmup"] = event["args"]["io"].pop("match")
        with pytest.raises(TraceSchemaError, match="warmup"):
            validate_chrome_trace([event])

    def test_rejects_negative_io_count(self):
        event = self._good_event()
        event["args"]["io"]["match"]["random_reads"] = -1
        with pytest.raises(TraceSchemaError, match="counts"):
            validate_chrome_trace([event])

    def test_rejects_hit_rate_out_of_range(self):
        event = self._good_event()
        event["args"]["buffer"]["hit_rate"] = 1.5
        with pytest.raises(TraceSchemaError, match="hit_rate"):
            validate_chrome_trace([event])
