"""Struct-of-arrays rectangle storage.

A :class:`RectArray` holds ``n`` rectangles as four parallel
``numpy.float64`` coordinate columns (``xlo``, ``ylo``, ``xhi``,
``yhi``) instead of ``n`` boxed :class:`~repro.geometry.rect.Rect`
objects. The columns store exactly the IEEE-754 doubles of the source
rectangles, so kernels that only compare or min/max them reproduce the
scalar results bit for bit.

Every consumer of a :class:`RectArray` works on a whole set (NAIVE's
inner set, a published dataset's columns), so numpy is the only
representation. The one node-sized kernel, Guttman's quadratic split,
takes its node's coordinate lists directly
(:func:`~repro.kernels.batch.quadratic_split_indices`) and builds no
array object. Columns shared across processes are a
:class:`~repro.parallel.shm.SharedRectArray`, a view of one
shared-memory segment.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from ..geometry.rect import Rect


class RectArray:
    """``n`` rectangles as four parallel float64 coordinate columns.

    Each column may be given as any sequence of floats; a float64 array
    is kept as it is (no copy), so a view of shared memory stays one.
    """

    __slots__ = ("n", "xlo", "ylo", "xhi", "yhi")

    def __init__(self, xlo: Any, ylo: Any, xhi: Any, yhi: Any) -> None:
        self.xlo = np.asarray(xlo, dtype=np.float64)
        self.ylo = np.asarray(ylo, dtype=np.float64)
        self.xhi = np.asarray(xhi, dtype=np.float64)
        self.yhi = np.asarray(yhi, dtype=np.float64)
        self.n = len(self.xlo)

    @classmethod
    def from_rects(cls, rects: Iterable[Rect]) -> "RectArray":
        """Columns of the given rectangles, in iteration order."""
        seq = rects if isinstance(rects, (list, tuple)) else list(rects)
        return cls(
            [r.xlo for r in seq], [r.ylo for r in seq],
            [r.xhi for r in seq], [r.yhi for r in seq],
        )

    def __len__(self) -> int:
        return self.n

    def rect_at(self, i: int) -> Rect:
        """The ``i``-th rectangle re-boxed as a scalar :class:`Rect`."""
        return Rect(
            float(self.xlo[i]), float(self.ylo[i]),
            float(self.xhi[i]), float(self.yhi[i]),
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"
