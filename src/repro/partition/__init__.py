"""Partition-parallel execution: grid tiling, sharding, and result merge.

The layer that lets every join method in this package run as K
independent per-tile joins (PBSM-style): :mod:`grid` tiles the joint
universe and owns the reference-point dedup rule, :mod:`shard` splits
both inputs into boundary-replicated per-tile index shards, and
:mod:`merge` sums per-partition answers and counters back into one
exactly reconcilable account. The executor that drives worker processes lives
with the engine (:class:`repro.join.engine.ParallelExecutor`); this
package is pure data plumbing with no process machinery, so every piece
is unit- and property-testable in isolation.
"""

from .grid import GridPartitioner, Tile
from .merge import PartitionStats, merged_snapshot, summed_summary
from .shard import (
    ShardDescriptor,
    joint_universe,
    make_shard_descriptors,
    shard_index_csr,
)

__all__ = [
    "GridPartitioner",
    "Tile",
    "ShardDescriptor",
    "joint_universe",
    "make_shard_descriptors",
    "shard_index_csr",
    "PartitionStats",
    "merged_snapshot",
    "summed_summary",
]
