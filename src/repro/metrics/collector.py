"""Per-phase cost collection.

A single :class:`MetricsCollector` is threaded through the storage stack
and the join algorithms. The simulated disk reports every page access to
it; tree code reports CPU overlap tests. The collector attributes disk
accesses to the *current phase*:

* :data:`Phase.SETUP` — building pre-existing structures (the given R-tree
  ``T_R``, input data files). The paper does not charge these to the join,
  and neither do we: setup I/O is recorded but excluded from summaries.
* :data:`Phase.CONSTRUCT` — join-time index construction (seeded tree or
  RTJ's R-tree), including linked-list traffic.
* :data:`Phase.MATCH` — tree matching / window queries, including the
  write-back of dirty construction pages that happens during matching
  (reported in the match ``wr`` column, exactly as the paper does).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from ..config import SystemConfig
from .counters import CpuCounters, FaultCounters, IoCounters


class Phase(Enum):
    """Accounting phases for disk I/O."""

    SETUP = "setup"
    CONSTRUCT = "construct"
    MATCH = "match"


@dataclass(frozen=True)
class CostSummary:
    """One row of a paper-style cost table.

    Disk figures are in random-access units (sequential accesses already
    weighted by the configured fraction); CPU figures are raw test counts.
    """

    match_read: float
    match_write: float
    construct_read: float
    construct_write: float
    bbox_tests: int
    xy_tests: int

    @property
    def total_io(self) -> float:
        return (
            self.match_read
            + self.match_write
            + self.construct_read
            + self.construct_write
        )

    @property
    def construct_io(self) -> float:
        """Tree-construction I/O, charging match-time write-backs here.

        The paper notes that dirty ``T_S`` pages written during matching
        "should thus be charged to the tree construction part"; its
        Figures 7/10 (construction) vs 8/11 (matching) follow that
        attribution, and so does this property.
        """
        return self.construct_read + self.construct_write + self.match_write

    @property
    def match_io(self) -> float:
        """Tree-matching I/O (reads only; see :attr:`construct_io`)."""
        return self.match_read

    @property
    def bbox_k(self) -> float:
        return self.bbox_tests / 1000.0

    @property
    def xy_k(self) -> float:
        return self.xy_tests / 1000.0


@dataclass
class CollectorSnapshot:
    """A picklable copy of one collector's counters.

    The partition-parallel executor captures one of these in each worker
    process (whose collector saw exactly one per-partition join) and
    ships it back over the pool's pipe; the parent merges them with
    :meth:`MetricsCollector.absorb`. Keys are phase *names* so the
    payload stays plain data.
    """

    io: dict[str, IoCounters]
    faults: dict[str, FaultCounters]
    cpu: CpuCounters

    @classmethod
    def capture(cls, metrics: "MetricsCollector") -> "CollectorSnapshot":
        return cls(
            io={
                p.value: IoCounters().merged_with(metrics.io_for(p))
                for p in Phase
            },
            faults={
                p.value: FaultCounters().merged_with(metrics.faults_for(p))
                for p in Phase
            },
            cpu=CpuCounters(
                bbox_tests=metrics.cpu.bbox_tests,
                xy_tests=metrics.cpu.xy_tests,
            ),
        )

    def merged_with(self, other: "CollectorSnapshot") -> "CollectorSnapshot":
        """Counter-wise sum of two snapshots (missing phases are zero)."""
        phases = sorted(set(self.io) | set(other.io))
        return CollectorSnapshot(
            io={
                p: self.io.get(p, IoCounters()).merged_with(
                    other.io.get(p, IoCounters())
                )
                for p in phases
            },
            faults={
                p: self.faults.get(p, FaultCounters()).merged_with(
                    other.faults.get(p, FaultCounters())
                )
                for p in sorted(set(self.faults) | set(other.faults))
            },
            cpu=CpuCounters(
                bbox_tests=self.cpu.bbox_tests + other.cpu.bbox_tests,
                xy_tests=self.cpu.xy_tests + other.cpu.xy_tests,
            ),
        )

    def summary(self, config: SystemConfig) -> CostSummary:
        """Paper-style summary of this snapshot's join-charged phases."""
        seq = config.sequential_cost
        construct = self.io.get(Phase.CONSTRUCT.value, IoCounters())
        match = self.io.get(Phase.MATCH.value, IoCounters())
        return CostSummary(
            match_read=match.read_cost(seq),
            match_write=match.write_cost(seq),
            construct_read=construct.read_cost(seq),
            construct_write=construct.write_cost(seq),
            bbox_tests=self.cpu.bbox_tests,
            xy_tests=self.cpu.xy_tests,
        )


class MetricsCollector:
    """Accumulates disk and CPU costs, attributed to phases.

    Parameters
    ----------
    config:
        Supplies the sequential-access cost weight used when summarising.
    """

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config or SystemConfig()
        self.cpu = CpuCounters()
        self._io: dict[Phase, IoCounters] = {p: IoCounters() for p in Phase}
        self._faults: dict[Phase, FaultCounters] = {
            p: FaultCounters() for p in Phase
        }
        self._phase = Phase.SETUP

    # ----------------------------------------------------------------- #
    # Phase control
    # ----------------------------------------------------------------- #

    @property
    def current_phase(self) -> Phase:
        return self._phase

    @contextmanager
    def phase(self, phase: Phase) -> Iterator["MetricsCollector"]:
        """Attribute disk accesses inside the block to ``phase``."""
        previous = self._phase
        self._phase = phase
        try:
            yield self
        finally:
            self._phase = previous

    # ----------------------------------------------------------------- #
    # Recording (called by the storage stack and tree code)
    # ----------------------------------------------------------------- #

    def record_read(self, sequential: bool = False, count: int = 1) -> None:
        io = self._io[self._phase]
        if sequential:
            io.sequential_reads += count
        else:
            io.random_reads += count

    def record_write(self, sequential: bool = False, count: int = 1) -> None:
        io = self._io[self._phase]
        if sequential:
            io.sequential_writes += count
        else:
            io.random_writes += count

    #: Fault kind strings (FaultKind.value) -> FaultCounters field.
    _FAULT_FIELDS = {
        "transient_read": "transient_read_errors",
        "torn_write": "torn_writes",
        "bit_flip": "bit_flips",
        "crash": "crashes",
    }

    def record_fault(self, kind: str) -> None:
        """Count one injected fault of ``kind`` under the current phase."""
        try:
            name = self._FAULT_FIELDS[kind]
        except KeyError:
            raise ValueError(f"unknown fault kind {kind!r}") from None
        counters = self._faults[self._phase]
        setattr(counters, name, getattr(counters, name) + 1)

    def record_retry(self, backoff: float = 0.0) -> None:
        """Count one transient-error retry and its virtual backoff."""
        counters = self._faults[self._phase]
        counters.retries += 1
        counters.backoff_seconds += backoff

    def record_page_recovered(self) -> None:
        """Count a read that succeeded only after retrying."""
        self._faults[self._phase].pages_recovered += 1

    def record_checkpoint(self) -> None:
        """Count one durable construction checkpoint."""
        self._faults[self._phase].checkpoints += 1

    def record_crash_recovery(self) -> None:
        """Count one crash survived by resuming from a checkpoint."""
        self._faults[self._phase].crash_recoveries += 1

    def record_fallback(self) -> None:
        """Count one algorithm downgrade (e.g. STJ -> BFJ)."""
        self._faults[self._phase].fallbacks += 1

    def count_bbox_tests(self, count: int = 1) -> None:
        self.cpu.bbox_tests += count

    def count_xy_tests(self, count: int = 1) -> None:
        self.cpu.xy_tests += count

    # ----------------------------------------------------------------- #
    # Inspection
    # ----------------------------------------------------------------- #

    def io_for(self, phase: Phase) -> IoCounters:
        """Raw counters for one phase (a live reference, not a copy)."""
        return self._io[phase]

    def faults_for(self, phase: Phase) -> FaultCounters:
        """Fault/recovery counters for one phase (a live reference)."""
        return self._faults[phase]

    def absorb(self, snapshot: CollectorSnapshot) -> None:
        """Add a worker's counters into this collector, phase by phase.

        The merge is exact — plain counter addition with no re-weighting
        — so after absorbing every partition, :meth:`summary` equals the
        sum of the per-partition summaries. This is the reconciliation
        invariant the differential suite asserts.
        """
        by_name = {p.value: p for p in Phase}
        for name, io in snapshot.io.items():
            phase = by_name[name]
            self._io[phase] = self._io[phase].merged_with(io)
        for name, faults in snapshot.faults.items():
            phase = by_name[name]
            self._faults[phase] = self._faults[phase].merged_with(faults)
        self.cpu.bbox_tests += snapshot.cpu.bbox_tests
        self.cpu.xy_tests += snapshot.cpu.xy_tests

    def fault_totals(self) -> FaultCounters:
        """Fault/recovery counters merged across all phases."""
        total = FaultCounters()
        for counters in self._faults.values():
            total = total.merged_with(counters)
        return total

    def summary(self) -> CostSummary:
        """Paper-style summary of the join-charged phases.

        Setup-phase I/O (building ``T_R`` and the input files) is excluded,
        matching the paper's experimental protocol.
        """
        seq = self.config.sequential_cost
        construct = self._io[Phase.CONSTRUCT]
        match = self._io[Phase.MATCH]
        return CostSummary(
            match_read=match.read_cost(seq),
            match_write=match.write_cost(seq),
            construct_read=construct.read_cost(seq),
            construct_write=construct.write_cost(seq),
            bbox_tests=self.cpu.bbox_tests,
            xy_tests=self.cpu.xy_tests,
        )

    def reset(self) -> None:
        """Zero all counters and return to the SETUP phase."""
        self.cpu = CpuCounters()
        self._io = {p: IoCounters() for p in Phase}
        self._faults = {p: FaultCounters() for p in Phase}
        self._phase = Phase.SETUP
