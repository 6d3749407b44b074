"""Shared pieces of the workloads: run budgets, the per-pass ledger,
summary statistics and the brute-force oracle."""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
from repro.metrics import Phase

#: The reference loop's duration on the host the normalised timings are
#: expressed for (see :func:`reference_time`).
REFERENCE_NOMINAL_S = 0.005

DISK_KINDS = ("random_reads", "sequential_reads", "random_writes",
              "sequential_writes")
BUFFER_FIELDS = ("hits", "misses", "evictions", "dirty_writebacks")


class Budget:
    """How much work one pass does.

    A timed budget keeps starting units of work (rounds, epochs) until
    ``seconds`` have passed since the pass began, always at least one. A
    replay budget repeats the exact unit counts of an earlier pass, so a
    traced pass runs the same operations as the untraced one it is
    compared with.
    """

    def __init__(self, seconds: float | None = None, plan: list | None = None):
        self.seconds = seconds
        self.plan = plan
        self.started = time.perf_counter()

    @property
    def replaying(self) -> bool:
        return self.plan is not None

    def more(self, done: int) -> bool:
        if self.plan is not None:
            return done < len(self.plan)
        return done == 0 or time.perf_counter() - self.started < self.seconds

    def remaining(self) -> float:
        return self.started + (self.seconds or 0.0) - time.perf_counter()


@dataclass
class Pass:
    """Everything one pass of a workload measured and checked."""

    attempted: int = 0
    #: Operations that failed: wrong, shed, timed out, refused, faulted.
    failed: int = 0
    #: Of those, answers that differ from the oracle or broke an invariant.
    wrong: int = 0
    errors: list[str] = field(default_factory=list)
    latencies: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    setup: list[float] = field(default_factory=list)
    io: float = 0.0
    bbox_tests: int = 0
    xy_tests: int = 0
    buffer: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    disk: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    walls: dict[tuple[str, str], list[float]] = field(
        default_factory=lambda: defaultdict(list))
    #: (pooled, slowest tile wall, summed tile set-up, pooled overhead).
    parallel: list[tuple[bool, float, float, float]] = field(
        default_factory=list)
    #: One entry per operation, compared between traced and untraced passes.
    fingerprints: list = field(default_factory=list)
    #: Unit counts for a replay budget.
    plan: list = field(default_factory=list)
    #: Reference-loop durations sampled between operations.
    reference: list[float] = field(default_factory=list)
    #: Whether latency is CPU-bound and so scaled to nominal host speed.
    normalise_latency: bool = True
    extra: dict = field(default_factory=dict)

    def fail(self, message: str, wrong: bool = True) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.errors) < 20:
            self.errors.append(message)

    def record_join(self, label: str, elapsed: float, result, ws,
                    before: tuple[int, ...]) -> None:
        """Account one measured library join (metrics were reset before it)."""
        summary = ws.metrics.summary()
        self.attempted += 1
        self.latencies[label].append(elapsed)
        self.io += summary.total_io
        self.bbox_tests += summary.bbox_tests
        self.xy_tests += summary.xy_tests
        for key, count in disk_counts(ws.metrics).items():
            self.disk[key] += count
        for name, now, then in zip(BUFFER_FIELDS, buffer_stats(ws.buffer),
                                   before):
            self.buffer[name] += now - then
        for phase, wall in result.phase_walls.items():
            self.walls[(label, phase)].append(wall)
        decision = result.parallel_decision
        if decision is not None:
            tiles = result.partitions or []
            slowest = max((t.wall_s for t in tiles), default=0.0)
            self.parallel.append((
                decision.pooled, slowest, sum(t.setup_s for t in tiles),
                elapsed - slowest,
            ))
        self.reference.append(reference_time())

    def host_factor(self) -> float:
        """Multiply a wall time by this to express it at nominal host
        speed: the shared host's speed drifts by tens of percent over
        minutes, and the reference loop drifts with it."""
        return REFERENCE_NOMINAL_S / median(self.reference)

    def latency_ms(self) -> float:
        """Geometric mean of the per-class median latencies, in ms."""
        raw = geometric_mean(
            median(v) for v in self.latencies.values() if v) * 1e3
        return raw * self.host_factor() if self.normalise_latency else raw


def disk_counts(metrics) -> dict[str, int]:
    """Accounted disk accesses by kind and phase, e.g.
    ``random_reads.construct``."""
    counts = {}
    for phase in (Phase.CONSTRUCT, Phase.MATCH):
        counters = metrics.io_for(phase)
        for kind in DISK_KINDS:
            counts[f"{kind}.{phase.value}"] = getattr(counters, kind)
    return counts


def buffer_stats(buffer) -> tuple[int, ...]:
    stats = buffer.stats
    return tuple(getattr(stats, name) for name in BUFFER_FIELDS)


def fingerprint(label: str, pairs: list, summary) -> tuple:
    return (label, len(pairs), hash(tuple(pairs)), summary)


# --------------------------------------------------------------------- #
# Host speed
# --------------------------------------------------------------------- #


class _Reference:
    """A pointer chase through 300,000 int objects scattered in memory, a
    random gather from a 16 MB array, and a float arithmetic loop.

    A shared host slows this program both through the memory system and
    through the core itself, in proportions that differ per workload: over
    five minutes of host drift, warm joins divided by the memory part alone
    spread 3% (30% raw), and cold joins, which ZJOIN's arithmetic-heavy
    decomposition dominates, spread 6% divided by the arithmetic part alone
    (11% raw); the sum tracks both. Ints are not tracked by the garbage
    collector, so the structure adds nothing to the library's collection
    pauses."""

    def __init__(self, n: int = 300_000):
        rng = np.random.default_rng(20240131)
        # Allocate the int objects in one random order and link them in
        # another, so each hop lands on an unrelated cache line.
        objects = [0] * n
        for value in rng.permutation(n).tolist():
            objects[value] = value
        cycle = rng.permutation(n).tolist()
        self.next = [0] * n
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            self.next[a] = objects[b]
        self.cursor = cycle[0]
        self.array = rng.random(2_000_000)
        self.gather = rng.integers(0, len(self.array), 50_000)

    def time(self) -> float:
        started = time.perf_counter()
        following = self.next
        i = self.cursor
        for _ in range(15_000):
            i = following[i]
        self.cursor = i
        self.array[self.gather].sum()
        x = 0.5
        acc = 0.0
        for _ in range(20_000):
            x = (x * 1.0001 + 0.37) % 1.0
            acc += x * x if x < 0.5 else -x / 3.0
        self.acc = acc
        return time.perf_counter() - started


@functools.cache
def _reference() -> _Reference:
    return _Reference()


def reference_time() -> float:
    """Wall time of one fixed reference loop that shares no code with the
    library, so no change to the library can move it; only the host's
    speed does."""
    return _reference().time()


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


def geometric_mean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# --------------------------------------------------------------------- #
# Oracle
# --------------------------------------------------------------------- #


class BruteForce:
    """Exact answers by testing every object, independent of the library."""

    def __init__(self, entries):
        self.xlo = np.array([r.xlo for r, _ in entries])
        self.ylo = np.array([r.ylo for r, _ in entries])
        self.xhi = np.array([r.xhi for r, _ in entries])
        self.yhi = np.array([r.yhi for r, _ in entries])
        self.oids = np.array([oid for _, oid in entries], dtype=np.int64)

    def window(self, rect) -> list[int]:
        """Sorted ids of objects whose closed rectangles meet ``rect``."""
        hit = ((self.xlo <= rect.xhi) & (rect.xlo <= self.xhi)
               & (self.ylo <= rect.yhi) & (rect.ylo <= self.yhi))
        return sorted(self.oids[hit].tolist())

    def join(self, entries_s) -> list[tuple[int, int]]:
        """Sorted (oid_s, oid_r) pairs of overlapping objects."""
        pairs = []
        for rect, oid_s in entries_s:
            pairs.extend((oid_s, oid_r) for oid_r in self.window(rect))
        pairs.sort()
        return pairs
