"""Dynamic data over resident trees: streams, staleness, re-seeding.

The paper builds its seeded tree once per join; the resident service
keeps trees alive under sustained insert/delete/move traffic. This
package opens that scenario:

* :class:`UpdateStream` applies seeded update batches through
  accounted phases (maintenance → CONSTRUCT, queries → MATCH);
* :class:`StalenessTracker` measures how far a seeded tree's copied
  seed levels have drifted from the churning partner;
* :class:`ReseedPolicy` objects decide between riding the drift and
  a full rebuild (the paper's seeded construction run again) —
  :class:`ReseedManager` executes the decision;
* :class:`IncrementalJoin` keeps a materialized join result exact
  under updates with per-op delta probes;
* :class:`DynamicScenario` wires all of it for tests, benchmarks, and
  the service maintenance lane.
"""

from .incremental import IncrementalJoin
from .reseed import (
    AlwaysRebuild,
    NeverReseed,
    ReseedDecision,
    ReseedManager,
    ReseedPolicy,
    StalenessThreshold,
    rebuild_seeded,
)
from .scenario import DynamicScenario
from .staleness import StalenessSnapshot, StalenessTracker, occupancy_skew
from .stream import BatchReport, UpdateStream

__all__ = [
    "UpdateStream",
    "BatchReport",
    "IncrementalJoin",
    "StalenessTracker",
    "StalenessSnapshot",
    "occupancy_skew",
    "ReseedPolicy",
    "ReseedDecision",
    "ReseedManager",
    "NeverReseed",
    "AlwaysRebuild",
    "StalenessThreshold",
    "rebuild_seeded",
    "DynamicScenario",
]
