"""Counting and span-recording wrappers around the library's entry points.

The benchmark observes the library from outside. :class:`Probe` replaces a
public function or method *where its callers look it up* — every
``repro.*`` module attribute bound to the original function object, or the
attribute on the defining class — with a wrapper that counts calls, adds
up busy time and (for coarse entry points) records a span. Nothing inside
``src/`` changes, and no ``spatial_join(trace=...)`` flag is used, so a
traced run executes exactly what an untraced run executes.

Two target sets exist:

* :data:`GATE_TARGETS` — the two O(1)-per-join hooks the non-vacuity gate
  needs (construction replay hits, snapshot rebuilds). They stay installed
  in untraced runs; each costs a few microseconds per join.
* :data:`TRACE_TARGETS` — one entry point per layer, for the traced run.

Busy time per key counts only the outermost call of that key on a thread,
so nested kernel calls or a ``fetch`` issued by ``replay_ops`` are not
counted twice. Spans are kept in memory as ``(name, start, end, parent,
request)`` tuples and written out by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass

_KERNELS = (
    "all_points", "clipped_area_total", "intersect_indices",
    "least_enlargement_index", "mbr_of", "min_center_distance_index",
    "quadratic_split_indices", "sweep_pairs_batch",
)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``owner`` is a module path, or ``module:Class`` for a method. ``span``
    records a span per call; ``request_arg`` names the positional argument
    whose identity maps to a benchmark request id (service payloads).
    """

    owner: str
    attr: str
    key: str
    span: bool = False
    request_arg: int | None = None


GATE_TARGETS = (
    Target("repro.join.batch", "column_tree_of", "join.batch.snapshot"),
    Target("repro.seeded.replay", "cached_construct", "seeded.construct"),
)

TRACE_TARGETS = (
    Target("repro.join.api", "spatial_join", "join", span=True),
    Target("repro.join.batch", "column_tree_of", "join.batch.snapshot"),
    Target("repro.join.batch", "match_trees_batch", "join.batch.match_replay",
           span=True),
    Target("repro.join.batch", "window_join_batch",
           "join.batch.window_replay", span=True),
    Target("repro.kernels.node_store", "build_match_plans",
           "kernels.plan.match", span=True),
    Target("repro.kernels.node_store", "build_window_plans",
           "kernels.plan.window", span=True),
    *(Target("repro.kernels.batch", name, "kernels") for name in _KERNELS),
    Target("repro.kernels.node_store", "sweep_pairs_segmented", "kernels"),
    Target("repro.seeded.replay", "cached_construct", "seeded.construct",
           span=True),
    Target("repro.seeded.tree:SeededTree", "grow_from", "seeded.grow",
           span=True),
    Target("repro.rtree.rtree:RTree", "insert", "rtree.insert"),
    Target("repro.rtree.rtree:RTree", "delete", "rtree.delete"),
    Target("repro.rtree.rtree:RTree", "window_query", "rtree.window_query"),
    Target("repro.zorder.curve", "decompose", "zorder.decompose"),
    Target("repro.zorder.zfile:ZFile", "build", "zorder.zfile_build",
           span=True),
    Target("repro.storage.buffer:BufferPool", "fetch", "storage.buffer.fetch"),
    Target("repro.storage.buffer:BufferPool", "fetch_run",
           "storage.buffer.fetch"),
    Target("repro.storage.buffer:BufferPool", "replay_ops",
           "storage.buffer.fetch"),
    Target("repro.service.registry:ResidentSession", "window_query",
           "service.window_query", span=True, request_arg=1),
    Target("repro.service.registry:ResidentSession", "apply_updates",
           "service.update", span=True, request_arg=1),
    Target("repro.service.registry:ResidentSession", "install_join_input",
           "service.join_input", span=True, request_arg=1),
)


class Probe:
    """Counters, busy time and spans gathered by installed wrappers."""

    def __init__(self, targets: tuple[Target, ...], spans: bool):
        self.targets = targets
        self.keep_spans = spans
        self.origin = time.perf_counter()
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, float, float, int, int]] = []
        #: id(request payload) -> request id, for service traffic.
        self.request_ids: dict[int, int] = {}
        # Gate observations.
        self.replay_hits = 0
        self.snapshot_builds = 0
        self.snapshot_s = 0.0
        self.rebuilds_after_mutation = 0
        self._snapshots: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        #: False while the workload does set-up work, which is not counted.
        self.measuring = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------------- #
    # Installation
    # ----------------------------------------------------------------- #

    def __enter__(self) -> "Probe":
        for target in self.targets:
            self._install(target)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _install(self, target: Target) -> None:
        module_name, _, class_name = target.owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            cls = getattr(module, class_name)
            raw = vars(cls)[target.attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, target))
            else:
                patched = self._wrap(raw, target)
            self._undo.append((cls, target.attr, raw))
            setattr(cls, target.attr, patched)
            return
        original = getattr(module, target.attr)
        wrapper = self._wrap(original, target)
        # Rebind every module-level alias (``from .x import f``) so the
        # wrapper is what each caller's global lookup finds.
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    # ----------------------------------------------------------------- #
    # Requests and spans
    # ----------------------------------------------------------------- #

    @contextlib.contextmanager
    def paused(self):
        """Leave the work done inside uncounted (workload set-up)."""
        self.measuring = False
        try:
            yield
        finally:
            self.measuring = True

    def set_request(self, request: int) -> None:
        """Tag what this thread does next with a request id."""
        self._local.request = request

    def span(self, name: str, start: float, end: float, request: int) -> None:
        """Record a span measured by the benchmark itself."""
        if self.keep_spans:
            with self._lock:
                self.spans.append((name, start - self.origin,
                                   end - self.origin, -1, request))

    # ----------------------------------------------------------------- #
    # The wrapper
    # ----------------------------------------------------------------- #

    def _wrap(self, fn, target: Target):
        key = target.key
        record_span = target.span and self.keep_spans
        local = self._local
        lock = self._lock
        perf = time.perf_counter
        if key == "seeded.construct":
            fn = self._observe_replay(fn)
        elif key == "join.batch.snapshot":
            return self._observe_snapshot(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = local.__dict__.setdefault("depth", defaultdict(int))
            if depth[key] or not self.measuring:
                return fn(*args, **kwargs)
            if target.request_arg is not None:
                rid = self.request_ids.get(id(args[target.request_arg]))
                if rid is not None:
                    local.request = rid
            stack = local.__dict__.setdefault("stack", [])
            index = -1
            if record_span:
                parent = stack[-1] if stack else -1
                with lock:  # reserve a slot, filled on exit
                    index = len(self.spans)
                    self.spans.append(None)
                stack.append(index)
            depth[key] += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                depth[key] -= 1
                with lock:
                    self.calls[key] += 1
                    self.busy[key] += end - start
                if record_span:
                    stack.pop()
                    self.spans[index] = (
                        key, start - self.origin, end - self.origin, parent,
                        getattr(local, "request", -1),
                    )

        return wrapper

    def _observe_replay(self, fn):
        """A replay hit is a ``cached_construct`` whose build never ran."""
        probe = self

        @functools.wraps(fn)
        def observed(ctx, build):
            ran = []

            def counted(c):
                ran.append(True)
                return build(c)

            result = fn(ctx, counted)
            if not ran and probe.measuring:
                with probe._lock:
                    probe.replay_hits += 1
            return result

        return observed

    def _observe_snapshot(self, fn):
        """Count ``column_tree_of`` calls that return a new snapshot, and
        those whose tree was mutated since its previous snapshot."""
        probe = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def observed(tree):
            start = perf()
            snapshot = fn(tree)
            elapsed = perf() - start
            previous = probe._snapshots.get(tree)
            built = previous is None or previous[1] is not snapshot
            if built:
                probe._snapshots[tree] = (tree.mutations, snapshot)
            if not probe.measuring:
                return snapshot
            with probe._lock:
                probe.calls["join.batch.snapshot"] += 1
                if built:
                    probe.snapshot_builds += 1
                    probe.snapshot_s += elapsed
                    if previous is not None and previous[0] != tree.mutations:
                        probe.rebuilds_after_mutation += 1
            return snapshot

        return observed

    # ----------------------------------------------------------------- #

    def per_key(self, key: str) -> tuple[int, float]:
        return self.calls.get(key, 0), self.busy.get(key, 0.0)

    def span_records(self) -> list[list]:
        return [list(s) for s in self.spans if s is not None]
