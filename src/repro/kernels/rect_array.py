"""Struct-of-arrays rectangle storage: owning buffers and views.

A :class:`RectArray` holds ``n`` rectangles as four parallel coordinate
columns (``xlo``, ``ylo``, ``xhi``, ``yhi``) instead of ``n`` boxed
:class:`~repro.geometry.rect.Rect` objects. Columns are either
``numpy.float64`` arrays or plain Python lists of floats; both store
exactly the IEEE-754 doubles of the source rectangles, so kernels that
only compare or min/max the columns reproduce the scalar results bit
for bit.

Ownership is split from access. A :class:`RectArray` is a *view*: it
never allocates cross-process resources and never needs explicit
teardown. The storage behind a view is an *owning buffer handle*:

* :class:`LocalRectBuffer` — plain in-process columns (the implicit
  owner of every ``RectArray`` built by the classmethod constructors;
  reified only when code needs to talk about ownership explicitly);
* :class:`SharedRectBuffer` — one ``multiprocessing.shared_memory``
  segment holding all four columns, with an explicit
  create/attach/close/unlink lifecycle and leak-proof finalization.

:class:`SharedRectArray` is the view over a shared buffer. The process
that *creates* the segment owns it (it alone may ``unlink``); any other
process *attaches* by :class:`SharedRectDescriptor` — a tiny picklable
token — and gets read-only columns: numpy views with the writable flag
cleared, or read-only ``memoryview`` casts for list-sized arrays.
Attached columns raising on assignment is the runtime twin of lint
rule RPR008 (workers treat shared columns as immutable).

Small arrays stay on list columns: below :data:`NUMPY_MIN_N`
rectangles the fixed per-call overhead of a numpy kernel exceeds the
whole scalar scan (an R-tree node at the paper's page sizes holds a few
dozen entries), while the list-column loops in
:mod:`repro.kernels.batch` still beat the scalar path by skipping the
per-entry attribute and method dispatch. This size heuristic is the
construction fast path, not a second backend: pinning numpy columns at
every size makes construction-heavy joins markedly slower. An explicit
``backend="numpy"|"python"`` argument overrides it, which is how the
parity tests exercise both representations at every size.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from ..errors import GeometryError
from ..geometry.rect import Rect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..rtree.node import Entry

#: Below this many rectangles a RectArray keeps list columns by default:
#: numpy's per-call overhead (~µs) outweighs a sub-hundred-element scan.
NUMPY_MIN_N = 64


def _pick_numpy(backend: str | None, n: int) -> bool:
    """Representation decision for ``n`` rectangles.

    Explicit requests are honoured verbatim; by default numpy columns
    are used only for arrays big enough to amortise the per-call
    overhead.
    """
    if backend is None:
        return n >= NUMPY_MIN_N
    if backend == "numpy":
        return True
    if backend == "python":
        return False
    raise GeometryError(f"unknown RectArray backend: {backend!r}")


class RectArray:
    """``n`` rectangles as four parallel coordinate columns."""

    __slots__ = (
        "n", "xlo", "ylo", "xhi", "yhi", "is_numpy", "_all_points", "_areas",
    )

    def __init__(
        self,
        xlo: Any,
        ylo: Any,
        xhi: Any,
        yhi: Any,
        *,
        is_numpy: bool,
    ) -> None:
        self.xlo = xlo
        self.ylo = ylo
        self.xhi = xhi
        self.yhi = yhi
        self.n = len(xlo)
        self.is_numpy = is_numpy
        # Lazily computed by kernels.all_points(); the only column
        # mutation is patch_row(), which refreshes this memo itself.
        self._all_points: bool | None = None
        # Lazily computed by areas(); patch_row() keeps it fresh.
        self._areas: list | None = None

    # ----------------------------------------------------------------- #
    # Constructors
    # ----------------------------------------------------------------- #

    @classmethod
    def from_rects(
        cls, rects: Iterable[Rect], backend: str | None = None
    ) -> "RectArray":
        """Columns of the given rectangles, in iteration order."""
        seq = rects if isinstance(rects, (list, tuple)) else list(rects)
        xlo = [r.xlo for r in seq]
        ylo = [r.ylo for r in seq]
        xhi = [r.xhi for r in seq]
        yhi = [r.yhi for r in seq]
        return cls._from_columns(xlo, ylo, xhi, yhi, backend)

    @classmethod
    def from_entries(
        cls, entries: "Sequence[Entry]", backend: str | None = None
    ) -> "RectArray":
        """Columns of the entries' MBRs, in entry order."""
        xlo = [e.mbr.xlo for e in entries]
        ylo = [e.mbr.ylo for e in entries]
        xhi = [e.mbr.xhi for e in entries]
        yhi = [e.mbr.yhi for e in entries]
        return cls._from_columns(xlo, ylo, xhi, yhi, backend)

    @classmethod
    def from_coords(
        cls,
        xlo: Sequence[float],
        ylo: Sequence[float],
        xhi: Sequence[float],
        yhi: Sequence[float],
        backend: str | None = None,
    ) -> "RectArray":
        """Columns from pre-extracted coordinate sequences (copied)."""
        return cls._from_columns(
            list(xlo), list(ylo), list(xhi), list(yhi), backend
        )

    @classmethod
    def _from_columns(
        cls,
        xlo: list,
        ylo: list,
        xhi: list,
        yhi: list,
        backend: str | None,
    ) -> "RectArray":
        if _pick_numpy(backend, len(xlo)):
            return cls(
                np.asarray(xlo, dtype=np.float64),
                np.asarray(ylo, dtype=np.float64),
                np.asarray(xhi, dtype=np.float64),
                np.asarray(yhi, dtype=np.float64),
                is_numpy=True,
            )
        return cls(xlo, ylo, xhi, yhi, is_numpy=False)

    # ----------------------------------------------------------------- #
    # Access
    # ----------------------------------------------------------------- #

    def __len__(self) -> int:
        return self.n

    def rect_at(self, i: int) -> Rect:
        """The ``i``-th rectangle re-boxed as a scalar :class:`Rect`."""
        return Rect(
            float(self.xlo[i]), float(self.ylo[i]),
            float(self.xhi[i]), float(self.yhi[i]),
        )

    def patch_row(self, i: int, rect: Rect) -> None:
        """Overwrite row ``i`` with ``rect``'s coordinates, in place.

        The one sanctioned column mutation (RPR008 confines it to this
        module): the r-tree's seed-descent update policies replace one
        entry MBR per visited node, and rebuilding a node's whole column
        cache per descent would defeat the cache. Attached shared
        columns are read-only views, so calling this on an attachment
        raises rather than racing the owning process.
        """
        self.xlo[i] = rect.xlo
        self.ylo[i] = rect.ylo
        self.xhi[i] = rect.xhi
        self.yhi[i] = rect.yhi
        # A non-point row settles the all-points memo without a rescan;
        # a point row leaves it unknown (another row may still be a
        # rectangle).
        self._all_points = None if rect.is_point() else False
        if self._areas is not None:
            self._areas[i] = (rect.xhi - rect.xlo) * (rect.yhi - rect.ylo)

    def areas(self) -> list:
        """Per-row areas as a plain list, memoised on the array.

        The insertion path evaluates every row's area on each
        least-enlargement scan of the same node columns; with
        :meth:`patch_row` refreshing the one changed row, the memo
        stays valid for the lifetime of the columns.
        """
        cached = self._areas
        if cached is None:
            xlo, ylo, xhi, yhi = self.xlo, self.ylo, self.xhi, self.yhi
            if self.is_numpy:
                cached = ((xhi - xlo) * (yhi - ylo)).tolist()
            else:
                cached = [
                    (x1 - x0) * (y1 - y0)
                    for x0, y0, x1, y1 in zip(xlo, ylo, xhi, yhi)
                ]
            self._areas = cached
        return cached

    def matches_entries(self, entries: "Sequence[Entry]") -> bool:
        """Exact coordinate equality against the entries' MBRs.

        Used by the runtime sanitizer to cross-check a node's cached
        columns against its live entry list; exact (not approximate)
        comparison is intentional — a cache is either a perfect copy or
        stale.
        """
        if self.n != len(entries):
            return False
        xlo, ylo, xhi, yhi = self.xlo, self.ylo, self.xhi, self.yhi
        for i, entry in enumerate(entries):
            mbr = entry.mbr
            if (
                xlo[i] != mbr.xlo
                or ylo[i] != mbr.ylo
                or xhi[i] != mbr.xhi
                or yhi[i] != mbr.yhi
            ):
                return False
        return True

    def __repr__(self) -> str:
        backend = "numpy" if self.is_numpy else "python"
        return f"RectArray(n={self.n}, backend={backend})"


# --------------------------------------------------------------------- #
# Owning buffers
# --------------------------------------------------------------------- #


class LocalRectBuffer:
    """The trivial owner: four in-process column objects.

    A plain :class:`RectArray` *is* its own storage; this handle exists
    so code that passes "the thing that owns the columns" around can do
    it uniformly for local and shared arrays. ``close``/``unlink`` are
    no-ops — process exit reclaims everything.
    """

    __slots__ = ("xlo", "ylo", "xhi", "yhi", "n", "is_numpy")

    def __init__(self, xlo: Any, ylo: Any, xhi: Any, yhi: Any,
                 *, is_numpy: bool) -> None:
        self.xlo, self.ylo, self.xhi, self.yhi = xlo, ylo, xhi, yhi
        self.n = len(xlo)
        self.is_numpy = is_numpy

    def columns(self) -> tuple[Any, Any, Any, Any]:
        return self.xlo, self.ylo, self.xhi, self.yhi

    def close(self) -> None:  # noqa: D102 - lifecycle no-op
        pass

    def unlink(self) -> None:  # noqa: D102 - lifecycle no-op
        pass


@dataclass(frozen=True)
class SharedRectDescriptor:
    """A picklable token naming one shared column segment.

    ``name`` is the OS-level shared-memory name (``None`` for the empty
    array, which allocates no segment at all — POSIX forbids zero-sized
    segments and an empty view needs no storage anyway). ``n`` is the
    rectangle count; the segment holds exactly ``4 * n`` float64 values,
    column-major (all of ``xlo``, then ``ylo``, ``xhi``, ``yhi``).
    """

    name: str | None
    n: int


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


class SharedRectBuffer:
    """Owning handle of one shared-memory segment of four columns.

    Lifecycle (who calls what):

    * the **owner** process calls :meth:`create`, hands the
      :attr:`descriptor` to other processes, and eventually calls
      :meth:`unlink` (destroying the segment) — usually after
      :meth:`close`;
    * an **attacher** calls :meth:`attach` and later :meth:`close`;
      it must never ``unlink``.

    Finalization is leak-proof: a garbage-collected handle closes its
    mapping, and a garbage-collected *owner* additionally unlinks the
    segment, so even an abandoned buffer cannot leak past the owning
    process's lifetime (``weakref.finalize`` runs at interpreter
    shutdown too).
    """

    __slots__ = ("name", "n", "is_numpy", "owner", "_shm", "_base_mv",
                 "_columns", "_finalizer", "__weakref__")

    def __init__(self, shm: Any, n: int, *, is_numpy: bool, owner: bool,
                 readonly: bool) -> None:
        self._shm = shm
        self.name: str | None = shm.name if shm is not None else None
        self.n = n
        self.is_numpy = is_numpy
        self.owner = owner
        self._base_mv: Any = None
        self._columns = self._make_columns(readonly)
        if shm is not None:
            self._finalizer = weakref.finalize(
                self, SharedRectBuffer._finalize, shm, owner,
            )
        else:
            self._finalizer = None

    # -- construction -------------------------------------------------- #

    @classmethod
    def create(
        cls,
        xlo: Sequence[float],
        ylo: Sequence[float],
        xhi: Sequence[float],
        yhi: Sequence[float],
        backend: str | None = None,
    ) -> "SharedRectBuffer":
        """Allocate a segment and copy the four columns into it."""
        n = len(xlo)
        if not (len(ylo) == len(xhi) == len(yhi) == n):
            raise GeometryError("column lengths differ")
        is_numpy = _pick_numpy(backend, n)
        if n == 0:
            return cls(None, 0, is_numpy=is_numpy, owner=True,
                       readonly=False)
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=4 * n * 8)
        mv = memoryview(shm.buf).cast("d")
        try:
            for c, col in enumerate((xlo, ylo, xhi, yhi)):
                base = c * n
                if isinstance(col, np.ndarray):
                    mv[base:base + n] = memoryview(
                        np.ascontiguousarray(col, dtype=np.float64).tobytes()
                    ).cast("d")
                else:
                    for i, v in enumerate(col):
                        mv[base + i] = v
        finally:
            mv.release()
        return cls(shm, n, is_numpy=is_numpy, owner=True, readonly=True)

    @classmethod
    def attach(
        cls, descriptor: SharedRectDescriptor, backend: str | None = None
    ) -> "SharedRectBuffer":
        """Map an existing segment read-only; never takes ownership."""
        is_numpy = _pick_numpy(backend, descriptor.n)
        if descriptor.name is None or descriptor.n == 0:
            return cls(None, 0, is_numpy=is_numpy, owner=False,
                       readonly=True)
        shm = _attach_untracked(descriptor.name)
        return cls(shm, descriptor.n, is_numpy=is_numpy, owner=False,
                   readonly=True)

    def _make_columns(self, readonly: bool) -> tuple[Any, Any, Any, Any]:
        n = self.n
        if self._shm is None:
            if self.is_numpy:
                empty = np.empty(0, dtype=np.float64)
                return (empty, empty, empty, empty)
            return ([], [], [], [])
        if self.is_numpy:
            cols = []
            for c in range(4):
                arr = np.frombuffer(
                    self._shm.buf, dtype=np.float64, count=n, offset=c * n * 8
                )
                if readonly:
                    arr.flags.writeable = False
                cols.append(arr)
            return tuple(cols)
        mv = memoryview(self._shm.buf).cast("d")
        self._base_mv = mv
        cols = tuple(mv[c * n:(c + 1) * n] for c in range(4))
        if readonly:
            cols = tuple(c.toreadonly() for c in cols)
        return cols

    # -- access -------------------------------------------------------- #

    @property
    def descriptor(self) -> SharedRectDescriptor:
        return SharedRectDescriptor(name=self.name, n=self.n)

    def columns(self) -> tuple[Any, Any, Any, Any]:
        if self._columns is None:
            raise GeometryError("shared rect buffer is closed")
        return self._columns

    @property
    def closed(self) -> bool:
        return self._columns is None and self.n > 0

    # -- lifecycle ----------------------------------------------------- #

    def close(self) -> None:
        """Release this process's mapping (idempotent).

        Views handed out by :meth:`columns` become invalid; the caller
        must drop its own references to them first, or the OS mapping
        lingers until they die (the segment itself is unaffected —
        only :meth:`unlink` destroys it).
        """
        self._columns = None
        if self._base_mv is not None:
            self._base_mv.release()
            self._base_mv = None
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
            raise GeometryError(
                "only the creating process may unlink a shared rect buffer"
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
        state = "closed" if self.closed else "open"
        role = "owner" if self.owner else "attached"
        return (
            f"SharedRectBuffer(name={self.name!r}, n={self.n}, "
            f"{role}, {state})"
        )


class SharedRectArray(RectArray):
    """A :class:`RectArray` view whose columns live in shared memory.

    Construction mirrors the buffer lifecycle: :meth:`share` (or
    :meth:`create`) in the owning process, :meth:`attach` elsewhere.
    The instance doubles as a context manager that closes — and, for
    the owner, unlinks — on exit, so ``with SharedRectArray.share(ra)``
    cannot leak a segment even under ``KeyboardInterrupt``.
    """

    __slots__ = ("buffer",)

    def __init__(self, buffer: SharedRectBuffer) -> None:
        xlo, ylo, xhi, yhi = buffer.columns()
        super().__init__(xlo, ylo, xhi, yhi, is_numpy=buffer.is_numpy)
        self.buffer = buffer

    # -- construction -------------------------------------------------- #

    @classmethod
    def share(cls, rects: RectArray) -> "SharedRectArray":
        """Copy an in-process array's columns into a new shared segment."""
        return cls(SharedRectBuffer.create(
            rects.xlo, rects.ylo, rects.xhi, rects.yhi,
            backend="numpy" if rects.is_numpy else "python",
        ))

    @classmethod
    def create(
        cls, entries: "Sequence[tuple[Rect, int]] | Iterable[Rect]",
        backend: str | None = None,
    ) -> "SharedRectArray":
        """Share the rectangles of ``(rect, oid)`` entries or bare rects."""
        seq = list(entries)
        rects = [
            item[0] if isinstance(item, tuple) else item for item in seq
        ]
        return cls(SharedRectBuffer.create(
            [r.xlo for r in rects], [r.ylo for r in rects],
            [r.xhi for r in rects], [r.yhi for r in rects],
            backend,
        ))

    @classmethod
    def attach(
        cls, descriptor: SharedRectDescriptor, backend: str | None = None
    ) -> "SharedRectArray":
        """A read-only view of another process's shared columns."""
        return cls(SharedRectBuffer.attach(descriptor, backend))

    # -- lifecycle ----------------------------------------------------- #

    @property
    def descriptor(self) -> SharedRectDescriptor:
        return self.buffer.descriptor

    def close(self) -> None:
        """Drop this view's columns and release the mapping."""
        empty: Any = (
            np.empty(0, dtype=np.float64) if self.is_numpy else []
        )
        self.xlo = self.ylo = self.xhi = self.yhi = empty
        self.n = 0
        self.buffer.close()

    def unlink(self) -> None:
        """Destroy the backing segment (owner only)."""
        self.close()
        self.buffer.unlink()

    def __enter__(self) -> "SharedRectArray":
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.buffer.owner:
            self.unlink()
        else:
            self.close()

    def __repr__(self) -> str:
        backend = "numpy" if self.is_numpy else "python"
        return (
            f"SharedRectArray(n={self.n}, backend={backend}, "
            f"name={self.buffer.name!r})"
        )
