"""Shared-memory segments: one class for every column the pool shares.

A published dataset crosses the process boundary as shared-memory
segments: its rectangles as one float64 ``(4, n)`` block (rows ``xlo``,
``ylo``, ``xhi``, ``yhi``), its object ids and each grid's CSR shard
index as int64 ``(n,)`` vectors. :class:`SharedSegment` owns or
attaches one segment holding one numpy array, and
:class:`SharedRectArray` is the
:class:`~repro.kernels.rect_array.RectArray` whose columns are the rows
of a float64 segment.

Lifecycle (who calls what):

* the **owner** process calls :meth:`SharedSegment.create`, hands the
  :attr:`~SharedSegment.descriptor` (a tiny picklable token) to other
  processes, and eventually calls :meth:`~SharedSegment.unlink`, which
  destroys the segment;
* an **attacher** calls :meth:`SharedSegment.attach` and later
  :meth:`~SharedSegment.close`; it must never ``unlink``.

Every view a segment hands out is read-only (a numpy array with the
writable flag cleared), in the owner too, so a write raises: the
runtime twin of lint rule RPR008 (shared columns are immutable once
published). RPR010 checks the create/attach/close/unlink discipline
statically. Finalization is leak-proof: a garbage-collected handle
closes its mapping, and a garbage-collected *owner* also unlinks the
segment (``weakref.finalize`` runs at interpreter shutdown too). An
empty array allocates no segment at all: POSIX forbids zero-sized
segments, and an empty view needs no storage.

int64 covers every object id the repo generates; a dataset whose oids
do not fit is rejected at publish time with
:class:`~repro.errors.ParallelError`, which makes the executor run the
join in-process — correct, just not parallel.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from ..errors import ParallelError
from ..geometry import Rect
from ..kernels.rect_array import RectArray

__all__ = ["SegmentDescriptor", "SharedRectArray", "SharedSegment"]


@dataclass(frozen=True)
class SegmentDescriptor:
    """A picklable token naming one shared segment.

    ``name`` is the OS-level shared-memory name (``None`` for an empty
    array, which allocates no segment); ``dtype`` and ``shape`` say how
    an attacher maps it.
    """

    name: str | None
    dtype: str
    shape: tuple[int, ...]


def _attach_untracked(name: str) -> Any:
    """Open an existing segment without registering it for cleanup.

    On POSIX, ``SharedMemory.__init__`` registers the segment with the
    ``multiprocessing`` resource tracker even when merely attaching
    (fixed only in 3.13's ``track=False``). Left registered, every
    attaching process's tracker believes it owns the segment and unlinks
    it at exit — destroying it under the real owner and spewing
    "leaked shared_memory objects" warnings. Registration cannot simply
    be undone afterwards either: forked workers share the parent's
    tracker, whose cache is a set, so an attacher's ``unregister`` would
    erase the *owner's* entry. Suppressing registration during the
    attach sidesteps both failure modes — the creator stays registered
    (a crashed owner still gets cleaned up by its tracker), attachers
    never appear in any tracker at all.
    """
    from multiprocessing import resource_tracker, shared_memory

    original = resource_tracker.register

    def _register(rname: str, rtype: str) -> None:
        if rtype != "shared_memory":  # pragma: no cover - not hit here
            original(rname, rtype)

    resource_tracker.register = _register
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class SharedSegment:
    """One shared-memory segment holding one read-only numpy array."""

    __slots__ = ("name", "dtype", "shape", "owner", "_shm", "_values",
                 "_finalizer", "__weakref__")

    def __init__(self, shm: Any, dtype: Any, shape: tuple[int, ...], *,
                 owner: bool) -> None:
        self._shm = shm
        self.name: str | None = shm.name if shm is not None else None
        self.dtype = np.dtype(dtype).name
        self.shape = shape
        self.owner = owner
        if shm is None:
            values = np.empty(shape, dtype=self.dtype)
        else:
            values = np.ndarray(shape, dtype=self.dtype, buffer=shm.buf)
        values.flags.writeable = False
        self._values: Any = values
        if shm is not None:
            self._finalizer = weakref.finalize(
                self, SharedSegment._finalize, shm, owner,
            )
        else:
            self._finalizer = None

    # -- construction -------------------------------------------------- #

    @classmethod
    def create(cls, values: Any, dtype: Any) -> "SharedSegment":
        """Allocate a segment and copy ``values`` into it as ``dtype``.

        An integer that does not fit ``dtype`` (an oid beyond int64)
        raises :class:`ParallelError` before any segment exists.
        """
        try:
            array = np.asarray(values, dtype=dtype)
        except OverflowError as exc:
            raise ParallelError(
                f"a value does not fit {np.dtype(dtype).name} ({exc}); "
                f"this dataset cannot use shared columns"
            ) from exc
        if array.size == 0:
            return cls(None, array.dtype, array.shape, owner=True)
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=array.nbytes)
        fill = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        fill[...] = array
        del fill
        return cls(shm, array.dtype, array.shape, owner=True)

    @classmethod
    def attach(cls, descriptor: SegmentDescriptor) -> "SharedSegment":
        """Map an existing segment read-only; never takes ownership."""
        if descriptor.name is None:
            return cls(None, descriptor.dtype, descriptor.shape, owner=False)
        return cls(_attach_untracked(descriptor.name), descriptor.dtype,
                   descriptor.shape, owner=False)

    # -- access -------------------------------------------------------- #

    @property
    def descriptor(self) -> SegmentDescriptor:
        return SegmentDescriptor(self.name, self.dtype, self.shape)

    @property
    def values(self) -> Any:
        if self._values is None:
            raise ParallelError("shared segment is closed")
        return self._values

    # -- lifecycle ----------------------------------------------------- #

    def close(self) -> None:
        """Release this process's mapping (idempotent).

        Views of :attr:`values` become invalid; the caller must drop its
        own references to them first, or the OS mapping lingers until
        they die (the segment itself is unaffected — only :meth:`unlink`
        destroys it).
        """
        self._values = None
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - caller kept views
                # numpy views of the mapping are still alive somewhere;
                # the finalizer retries when they are gone.
                return
            self._shm = None
        if self._finalizer is not None and not self.owner:
            self._finalizer.detach()
            self._finalizer = None

    def unlink(self) -> None:
        """Destroy the segment (owner only, idempotent)."""
        if not self.owner:
            raise ParallelError(
                "only the creating process may unlink a shared segment"
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
        """GC / interpreter-shutdown safety net: close, and unlink if
        this process created the segment."""
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
        state = "closed" if self._values is None else "open"
        return (
            f"SharedSegment(name={self.name!r}, {self.dtype}"
            f"{list(self.shape)}, {role}, {state})"
        )


class SharedRectArray(RectArray):
    """A :class:`RectArray` whose columns are the rows of one float64
    ``(4, n)`` :class:`SharedSegment`.

    :meth:`create` in the owning process, :meth:`attach` elsewhere. The
    instance doubles as a context manager that closes — and, for the
    owner, unlinks — on exit, so ``with SharedRectArray.create(...)``
    cannot leak a segment even under ``KeyboardInterrupt``.
    """

    __slots__ = ("segment",)

    def __init__(self, segment: SharedSegment) -> None:
        super().__init__(*segment.values)
        self.segment = segment

    @classmethod
    def create(cls, entries: Iterable[tuple[Rect, Any]]) -> "SharedRectArray":
        """Share the rectangles of ``(rect, oid)`` entries."""
        rects = [rect for rect, _ in entries]
        return cls(SharedSegment.create(
            [[r.xlo for r in rects], [r.ylo for r in rects],
             [r.xhi for r in rects], [r.yhi for r in rects]],
            np.float64,
        ))

    @classmethod
    def attach(cls, descriptor: SegmentDescriptor) -> "SharedRectArray":
        """A read-only view of another process's shared columns."""
        return cls(SharedSegment.attach(descriptor))

    @property
    def descriptor(self) -> SegmentDescriptor:
        return self.segment.descriptor

    def close(self) -> None:
        """Drop this view's columns and release the mapping."""
        empty = np.empty(0, dtype=np.float64)
        self.xlo = self.ylo = self.xhi = self.yhi = empty
        self.n = 0
        self.segment.close()

    def unlink(self) -> None:
        """Destroy the backing segment (owner only)."""
        self.close()
        self.segment.unlink()

    def __enter__(self) -> "SharedRectArray":
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.segment.owner:
            self.unlink()
        else:
            self.close()
