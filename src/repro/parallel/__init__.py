"""Persistent worker pools over shared-memory datasets.

The process machinery behind ``spatial_join(..., workers=N)``'s pooled
mode: :mod:`shm` shares numpy columns, :mod:`dataset` publishes join
inputs (coordinate/oid columns plus per-grid CSR shard indexes) and
caches them across joins, :mod:`worker` runs tile joins against warm
per-tile substrates inside long-lived worker processes, and :mod:`pool`
owns those processes — spawn-once, dynamic dispatch, crash respawn,
leak-proof shutdown. The engine
(:class:`~repro.join.engine.ParallelExecutor`) decides *whether* to use
a pool; everything here is *how*.
"""

from .dataset import (
    AttachedDataset,
    DatasetCache,
    DatasetDescriptor,
    GridIndexDescriptor,
    PublishedDataset,
    add_invalidation_listener,
    remove_invalidation_listener,
)
from .pool import (
    WorkerPool,
    default_dataset_cache,
    get_default_pool,
    resolve_start_method,
    shutdown_default_pools,
)
from .shm import SegmentDescriptor, SharedRectArray, SharedSegment
from .worker import TileJob, TileRunner, worker_main

__all__ = [
    "AttachedDataset",
    "DatasetCache",
    "DatasetDescriptor",
    "GridIndexDescriptor",
    "PublishedDataset",
    "SegmentDescriptor",
    "SharedRectArray",
    "SharedSegment",
    "TileJob",
    "TileRunner",
    "WorkerPool",
    "add_invalidation_listener",
    "default_dataset_cache",
    "get_default_pool",
    "remove_invalidation_listener",
    "resolve_start_method",
    "shutdown_default_pools",
    "worker_main",
]
