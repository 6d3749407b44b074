"""The worker side of the persistent pool.

A worker process is a loop over one duplex pipe: attach to published
datasets, run tile joins, drop attachments on invalidation, exit on
shutdown. All join logic is the engine's own —
:func:`~repro.join.engine.build_partition_substrate` and
:func:`~repro.join.engine.join_on_substrate` — so a pooled tile join is
the same code path as an in-process one; the worker only adds
what makes the pool fast: entry reconstruction from shared columns and
a warm cache of per-tile substrates, keyed by
``(dataset, version, grid, tile, config, mode)`` so any change of
inputs, physical design or execution mode rebuilds rather than reuses.
Each task carries its join's :class:`~repro.join.engine.ExecutionMode`
and runs in it; the worker's own environment plays no part.

Replies carry :class:`~repro.join.engine._PartitionOutcome` records with
the pair list flattened to an ``array('q')`` — half the pickle weight
of a list of tuples — which the parent pool re-inflates before merging.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Any

from ..config import SystemConfig
from ..errors import ParallelError, StaleDatasetError
from ..join.engine import (
    ExecutionMode,
    _PartitionOutcome,
    _PartitionTask,
    build_partition_substrate,
    join_on_substrate,
    needs_data_r,
)
from ..storage import RecoveryPolicy
from .dataset import AttachedDataset, DatasetDescriptor, GridIndexDescriptor

__all__ = ["TileJob", "TileRunner", "pack_outcome", "unpack_outcome",
           "worker_main"]

#: Warm substrates kept per worker before the oldest is discarded. Each
#: substrate is a full simulated-storage world for one tile; 64 covers
#: several concurrent benchmark datasets without unbounded growth.
SUBSTRATE_CACHE_LIMIT = 64


@dataclass(frozen=True)
class TileJob:
    """One tile's join order, shipped over the pipe (no entry data).

    ``n_r``/``n_s`` are the tile's shard sizes — the parent uses them
    for longest-first dispatch, the worker never needs them (it reads
    the real rows from the shared CSR index). ``mode`` is the parent
    join's execution mode; a job built without one reads the
    environment of the process that builds it.
    """

    dataset_key: str
    version: int
    grid: GridIndexDescriptor
    tile: int
    n_r: int
    n_s: int
    method: str
    config: SystemConfig
    options: dict[str, Any]
    seed: int
    want_trace: bool
    recovery: RecoveryPolicy | None = None
    mode: ExecutionMode = field(default_factory=ExecutionMode.from_env)

    @property
    def cost(self) -> int:
        return self.n_r + self.n_s


def pack_outcome(outcome: _PartitionOutcome) -> _PartitionOutcome:
    """Flatten the pair list into an int64 array for the wire."""
    flat = array("q")
    for oid_s, oid_r in outcome.pairs:
        flat.append(oid_s)
        flat.append(oid_r)
    outcome.pairs = flat  # type: ignore[assignment]
    return outcome


def unpack_outcome(outcome: _PartitionOutcome) -> _PartitionOutcome:
    """Re-inflate a wire outcome's flattened pairs into tuples."""
    flat = outcome.pairs
    if isinstance(flat, array):
        it = iter(flat)
        outcome.pairs = list(zip(it, it))
    return outcome


class TileRunner:
    """Per-worker state: dataset attachments and warm tile substrates."""

    def __init__(self) -> None:
        self._datasets: dict[str, AttachedDataset] = {}
        # key -> (substrate, entries_r, entries_s); insertion-ordered,
        # oldest evicted first.
        self._substrates: dict[tuple, tuple] = {}

    # -- dataset lifecycle --------------------------------------------- #

    def publish(self, descriptor: DatasetDescriptor) -> None:
        """Attach to a (new version of a) published dataset."""
        current = self._datasets.get(descriptor.key)
        if current is not None:
            if current.version == descriptor.version:
                return
            self.invalidate(descriptor.key)
        self._datasets[descriptor.key] = AttachedDataset(descriptor)

    def invalidate(self, key: str) -> None:
        """Drop the attachment and every warm substrate of a dataset."""
        dataset = self._datasets.pop(key, None)
        if dataset is not None:
            dataset.close()
        for skey in [k for k in self._substrates if k[0] == key]:
            del self._substrates[skey]

    # -- tile execution ------------------------------------------------ #

    def run(self, job: TileJob) -> _PartitionOutcome:
        dataset = self._datasets.get(job.dataset_key)
        if dataset is None or dataset.version != job.version:
            have = "nothing" if dataset is None else f"v{dataset.version}"
            raise StaleDatasetError(
                f"task wants dataset {job.dataset_key!r} v{job.version} "
                f"but this worker has {have}; publish must precede tasks"
            )
        skey = (
            job.dataset_key, job.version, job.grid.rows, job.grid.cols,
            job.tile, needs_data_r(job.method), job.config, job.mode,
        )
        cached = self._substrates.get(skey)
        if cached is None:
            reconstruct_started = time.perf_counter()
            entries_r, entries_s = dataset.tile_entries(job.grid, job.tile)
            reconstruct_s = time.perf_counter() - reconstruct_started
            task = self._task(job, entries_r, entries_s)
            substrate = build_partition_substrate(task)
            substrate.setup_s += reconstruct_s
            while len(self._substrates) >= SUBSTRATE_CACHE_LIMIT:
                del self._substrates[next(iter(self._substrates))]
            self._substrates[skey] = (substrate, entries_r, entries_s)
        else:
            substrate, entries_r, entries_s = cached
            # Refresh recency; warm runs report (true) zero setup.
            self._substrates[skey] = self._substrates.pop(skey)
            substrate.setup_s = 0.0
            task = self._task(job, entries_r, entries_s)
        return pack_outcome(join_on_substrate(task, substrate))

    @staticmethod
    def _task(
        job: TileJob, entries_r: list, entries_s: list
    ) -> _PartitionTask:
        return _PartitionTask(
            index=job.tile,
            method=job.method,
            config=job.config,
            universe=job.grid.universe,
            rows=job.grid.rows,
            cols=job.grid.cols,
            entries_r=entries_r,
            entries_s=entries_s,
            options=job.options,
            seed=job.seed,
            want_trace=job.want_trace,
            recovery=job.recovery,
            mode=job.mode,
        )

    def close(self) -> None:
        self._substrates.clear()
        for key in list(self._datasets):
            self.invalidate(key)


def worker_main(conn: Any) -> None:
    """Worker process entry point (importable, so spawn-safe).

    Message protocol (parent → worker):

    * ``("publish", DatasetDescriptor)`` — attach shared columns.
    * ``("task", run_id, TileJob)`` — run one tile; replies
      ``("ok", run_id, outcome)`` or ``("err", run_id, exception)``.
    * ``("invalidate", key)`` — drop attachments before the parent
      unlinks the segments.
    * ``("ping", token)`` — replies ``("pong", token)``.
    * ``("shutdown",)`` — clean exit.

    SIGINT is ignored: on Ctrl-C the *parent* coordinates shutdown (its
    atexit hook closes the pool), so workers neither die mid-reply nor
    leave attachments open.
    """
    try:  # pragma: no cover - signal module may lack SIGINT on exotica
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ImportError, ValueError, OSError):
        pass
    runner = TileRunner()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "task":
                run_id, job = message[1], message[2]
                try:
                    reply = ("ok", run_id, runner.run(job))
                except Exception as exc:
                    reply = ("err", run_id, exc)
                try:
                    conn.send(reply)
                except (EOFError, OSError, BrokenPipeError):
                    break
                except Exception as exc:  # unpicklable payload/exception
                    conn.send((
                        "err", run_id,
                        ParallelError(
                            f"worker reply for tile {job.tile} could not "
                            f"be serialized: {exc!r}"
                        ),
                    ))
            elif kind == "publish":
                runner.publish(message[1])
            elif kind == "invalidate":
                runner.invalidate(message[1])
            elif kind == "ping":
                conn.send(("pong", message[1]))
            elif kind == "shutdown":
                break
    finally:
        runner.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
