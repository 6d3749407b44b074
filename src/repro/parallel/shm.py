"""Shared-memory integer columns.

The rectangle coordinates of a published dataset travel through
:class:`~repro.kernels.rect_array.SharedRectBuffer`; everything else a
worker needs to reconstruct entries — object ids and the CSR shard
index — is int64 data, shared through :class:`SharedInts` here. Same
ownership discipline as the rect buffers: the creator owns and unlinks,
attachers map read-only views and close, ``weakref.finalize`` backstops
both so an abandoned handle cannot outlive its process.

int64 covers every object id the repo generates (and then some); a
dataset whose oids do not fit is rejected at publish time, which makes
the executor run the join in-process — correct, just not parallel.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..errors import ParallelError
from ..kernels.rect_array import _attach_untracked

__all__ = ["INT64_MAX", "INT64_MIN", "SharedInts", "SharedIntsDescriptor"]

INT64_MIN = -(2 ** 63)
INT64_MAX = 2 ** 63 - 1


@dataclass(frozen=True)
class SharedIntsDescriptor:
    """Picklable token naming one shared int64 segment (``None``=empty)."""

    name: str | None
    n: int


class SharedInts:
    """One shared-memory segment of ``n`` int64 values.

    Mirrors :class:`~repro.kernels.rect_array.SharedRectBuffer`'s
    lifecycle; see that class for the ownership rules. ``values`` is a
    read-only view — a numpy array with the writable flag cleared.
    """

    __slots__ = ("name", "n", "owner", "_shm", "_values", "_finalizer",
                 "__weakref__")

    def __init__(self, shm: Any, n: int, *, owner: bool) -> None:
        self._shm = shm
        self.name: str | None = shm.name if shm is not None else None
        self.n = n
        self.owner = owner
        self._values = self._make_view()
        if shm is not None:
            self._finalizer = weakref.finalize(
                self, SharedInts._finalize, shm, owner,
            )
        else:
            self._finalizer = None

    # -- construction -------------------------------------------------- #

    @classmethod
    def create(cls, values: Sequence[int]) -> "SharedInts":
        """Allocate a segment holding ``values`` (int64 range-checked)."""
        n = len(values)
        if n == 0:
            return cls(None, 0, owner=True)
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=n * 8)
        mv = memoryview(shm.buf).cast("q")
        try:
            for i, v in enumerate(values):
                if not (INT64_MIN <= v <= INT64_MAX):
                    raise ParallelError(
                        f"value {v} at row {i} does not fit int64; "
                        f"this dataset cannot use shared columns"
                    )
                mv[i] = v
        except ParallelError:
            mv.release()
            shm.close()
            shm.unlink()
            raise
        mv.release()
        return cls(shm, n, owner=True)

    @classmethod
    def attach(cls, descriptor: SharedIntsDescriptor) -> "SharedInts":
        """Map an existing segment read-only; never takes ownership."""
        if descriptor.name is None or descriptor.n == 0:
            return cls(None, 0, owner=False)
        return cls(_attach_untracked(descriptor.name), descriptor.n,
                   owner=False)

    def _make_view(self) -> Any:
        if self._shm is None:
            return np.empty(0, dtype=np.int64)
        arr = np.frombuffer(self._shm.buf, dtype=np.int64, count=self.n)
        arr.flags.writeable = False
        return arr

    # -- access -------------------------------------------------------- #

    @property
    def descriptor(self) -> SharedIntsDescriptor:
        return SharedIntsDescriptor(name=self.name, n=self.n)

    @property
    def values(self) -> Any:
        if self._values is None:
            raise ParallelError("shared int column is closed")
        return self._values

    # -- lifecycle ----------------------------------------------------- #

    def close(self) -> None:
        """Release this process's mapping (idempotent)."""
        self._values = None
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - caller kept views
                return
            self._shm = None
        if self._finalizer is not None and not self.owner:
            self._finalizer.detach()
            self._finalizer = None

    def unlink(self) -> None:
        """Destroy the segment (owner only, idempotent)."""
        if not self.owner:
            raise ParallelError(
                "only the creating process may unlink a shared int column"
            )
        self.close()
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self.name is not None:
            try:
                from multiprocessing import shared_memory

                shared_memory.SharedMemory(name=self.name).unlink()
            except FileNotFoundError:
                pass

    @staticmethod
    def _finalize(shm: Any, owner: bool) -> None:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - exported views remain
            pass
        if owner:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass

    def __repr__(self) -> str:
        role = "owner" if self.owner else "attached"
        return f"SharedInts(name={self.name!r}, n={self.n}, {role})"
