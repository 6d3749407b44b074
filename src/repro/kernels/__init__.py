"""Vectorized geometry kernels for the join hot path.

The scalar geometry code in :mod:`repro.geometry` is the *semantic
reference*: every kernel in this package computes bit-identical answers
(pair lists in the same order, the same floats, the same
``CpuCounters`` increments) while operating on struct-of-arrays data
instead of per-object attribute chains.

Layout
------
* :mod:`~repro.kernels.backend` — the ``REPRO_KERNELS`` switch between
  the scalar reference and the fast path (these kernels, batch
  traversal plans, construction replay, and ZJOIN's batch z-order
  decomposition, which lives with the scalar rule in
  :mod:`repro.zorder.curve`).
* :mod:`~repro.kernels.rect_array` — :class:`RectArray`, the parallel
  ``xlo/ylo/xhi/yhi`` coordinate columns, with a small-array heuristic
  that keeps node-sized arrays on list columns where numpy's per-call
  overhead would dominate.
* :mod:`~repro.kernels.batch` — the batch kernels: intersect-filter,
  MBR-of-slice, least-enlargement scan, center-distance scan, the
  analytic plane sweep, the Guttman quadratic split, and the workload
  generator's clipped-area sum.
* :mod:`~repro.kernels.node_store` — :class:`ColumnTree`, the
  level-order struct-of-arrays snapshot of a built tree, plus the
  batch traversal plan builders (whole-frontier window descent,
  level-at-a-time tree matching, segmented multi-node plane sweep).

The kernels are *pure*: no buffered I/O, no metrics phases, no module
state. Counter updates happen only where the scalar path updated them,
with analytically derived (not measured) increments — see DESIGN.md
§10 for the counting contract.
"""

from .backend import BACKEND, batch_enabled, kernels_enabled
from .batch import (
    all_points,
    clipped_area_total,
    intersect_indices,
    least_enlargement_index,
    mbr_of,
    min_center_distance_index,
    quadratic_split_indices,
    sweep_pairs_batch,
)
from .node_store import (
    ColumnTree,
    MatchPlan,
    WindowPlan,
    build_match_plans,
    build_window_plans,
    sweep_pairs_segmented,
)
from .rect_array import (
    NUMPY_MIN_N,
    RectArray,
    SharedRectArray,
    SharedRectBuffer,
    SharedRectDescriptor,
)

__all__ = [
    "BACKEND",
    "ColumnTree",
    "MatchPlan",
    "NUMPY_MIN_N",
    "RectArray",
    "SharedRectArray",
    "SharedRectBuffer",
    "SharedRectDescriptor",
    "WindowPlan",
    "all_points",
    "batch_enabled",
    "build_match_plans",
    "build_window_plans",
    "clipped_area_total",
    "intersect_indices",
    "kernels_enabled",
    "least_enlargement_index",
    "mbr_of",
    "min_center_distance_index",
    "quadratic_split_indices",
    "sweep_pairs_batch",
    "sweep_pairs_segmented",
]
