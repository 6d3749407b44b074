"""The opt-in runtime invariant sanitizer.

Enabled by ``REPRO_SANITIZE=1`` in the environment or ``sanitize=True``
on :func:`~repro.join.api.spatial_join`, a :class:`Sanitizer` rides an
:class:`~repro.join.engine.ExecutionContext` and validates, at every
pipeline phase boundary:

* **tree well-formedness** — parent entry MBRs are the exact union of
  their child's entries, fanout respects the node capacity, levels
  decrease properly (by exactly one in a balanced R-tree; strictly in a
  finished seeded tree, which is unbalanced by design), non-root nodes
  are non-empty, leaf counts match the tree's object count, and a
  finished seeded tree carries no leftover shadow boxes (the clean-up
  postcondition of Section 3.2);
* **buffer-pool consistency** — frame keys match their page ids, the
  pool respects its capacity, pin counts are non-negative, and no pin
  survives a phase boundary (a surviving pin is a leak: pins are
  operation-scoped);
* **counter monotonicity** — every I/O, CPU, and fault counter is
  non-decreasing across successive snapshots of the same collector;
* **node-MBR memo coherence** — a node's memoised MBR
  (:meth:`~repro.rtree.node.Node.cached_mbr`, which the scalar tree
  matcher reads) must be the exact union of its live entries; a stale
  memo means some mutation path forgot
  :meth:`~repro.rtree.node.Node.invalidate_caches`;
* **snapshot coherence** — a tree's memoised columnar snapshot
  (:func:`repro.join.batch.column_tree_of`), when it is at the tree's
  current version stamp, must equal a fresh pack of the live nodes
  (:func:`packed_snapshot`) bit for bit. That covers snapshots carried
  from a build or a replay and snapshots assembled from a previous one;
* **page lifetime** — once a join has freed its scratch
  (:mod:`repro.join.lifetime`), every page reachable from ``T_R`` and
  from the result's index is still stored, and no buffer frame holds a
  freed page.

Everything is observed through unaccounted paths (``peek``-backed node
access, direct counter reads), so a sanitized run's
:class:`~repro.metrics.CostSummary` is bit-identical to an unsanitized
one — the property the analysis test suite pins down.

Violations raise :class:`~repro.errors.InvariantViolation`.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any

from ..errors import InvariantViolation, TreeError
from ..kernels.node_store import ColumnTree
from ..metrics.collector import CollectorSnapshot, MetricsCollector
from ..rtree.node import Node, node_mbr
from .witness import (  # noqa: F401  (re-export: the runtime lock witness)
    witness_enabled,
    witnessed_lock,
)

__all__ = [
    "Sanitizer",
    "packed_snapshot",
    "resolve_sanitizer",
    "sanitizer_enabled",
    "witness_enabled",
    "witnessed_lock",
]

ENV_VAR = "REPRO_SANITIZE"


def sanitizer_enabled() -> bool:
    """Whether the environment opts into runtime invariant checking."""
    return os.environ.get(ENV_VAR, "").strip().lower() not in (
        "", "0", "false", "no", "off",
    )


def resolve_sanitizer(flag: "bool | Sanitizer | None") -> "Sanitizer | None":
    """Tri-state resolution: ``True`` forces a sanitizer on, ``False``
    forces it off, ``None`` defers to :data:`ENV_VAR`. An existing
    instance passes through (degradation re-enters the engine with the
    same context and must keep its snapshot history)."""
    if isinstance(flag, Sanitizer):
        return flag
    if flag is True:
        return Sanitizer()
    if flag is False:
        return None
    return Sanitizer() if sanitizer_enabled() else None


def packed_snapshot(tree: Any) -> ColumnTree | None:
    """The reference snapshot of a finished tree: every node's entries
    packed by :meth:`ColumnTree.build` at the tree's current stamp, or
    ``None`` when an object id does not fit int64."""
    records = []
    for node in tree.iter_nodes():
        entries = node.entries
        records.append((
            node.page_id,
            node.level,
            [e.ref for e in entries],
            [e.mbr.xlo for e in entries],
            [e.mbr.ylo for e in entries],
            [e.mbr.xhi for e in entries],
            [e.mbr.yhi for e in entries],
        ))
    try:
        return ColumnTree.build(records, tree.root_id,
                                stamp=(tree.mutations, tree.root_id))
    except OverflowError:
        return None


def _is_tree(obj: Any) -> bool:
    """Duck-typed 'tree over the buffered page store' check."""
    return hasattr(obj, "root_id") and hasattr(obj, "_node_unaccounted")


class Sanitizer:
    """Structural invariant checks hooked to phase boundaries.

    One instance accompanies one pipeline run (the engine resolves it in
    :meth:`~repro.join.engine.JoinPipeline.execute`); the parallel
    executor gives each worker its own via the shipped task. All checks
    are also callable directly, which is how the unit tests corrupt a
    structure and assert detection.
    """

    def __init__(self) -> None:
        self._last: CollectorSnapshot | None = None

    # ----------------------------------------------------------------- #
    # Engine hook
    # ----------------------------------------------------------------- #

    def after_phase(self, ctx: Any, phase_name: str) -> None:
        """Validate everything reachable from a context at a boundary."""
        where = f"after phase {phase_name!r}"
        self.check_counters(ctx.metrics, where=where)
        if ctx.buffer is not None:
            self.check_buffer(ctx.buffer, where=where)
        for candidate in (ctx.state.get("index"), ctx.tree_r):
            if _is_tree(candidate):
                self.check_tree(candidate, where=where)

    def check_freed(self, buffer: Any, structures: Any,
                    where: str = "after the join freed its pages") -> None:
        """Freeing kept every live page and left no frame behind."""
        disk = buffer.disk
        for _key, page_id, _pins, _dirty in buffer.audit_frames():
            if disk.is_freed(page_id):
                raise InvariantViolation(
                    f"a buffer frame still holds freed page {page_id} "
                    f"({where})"
                )
        for structure in structures:
            name = getattr(structure, "name", structure)
            if _is_tree(structure):
                if structure.root_id == -1:
                    continue
                try:
                    # Peeks the buffer, then the disk, for every node.
                    for _node in structure.iter_nodes():
                        pass
                except TreeError as exc:
                    raise InvariantViolation(
                        f"live structure {name!r} lost a page: {exc} "
                        f"({where})"
                    ) from None
            elif hasattr(structure, "first_page_id") and hasattr(
                structure, "num_pages"
            ):
                first = structure.first_page_id
                for page_id in range(first, first + structure.num_pages):
                    if not disk.exists(page_id):
                        raise InvariantViolation(
                            f"live structure {name!r} lost page "
                            f"{page_id} ({where})"
                        )

    # ----------------------------------------------------------------- #
    # Counter monotonicity
    # ----------------------------------------------------------------- #

    def check_counters(self, metrics: MetricsCollector, where: str = "") -> None:
        """Counters only ever grow; a decrease means lost accounting."""
        snapshot = CollectorSnapshot.capture(metrics)
        last = self._last
        self._last = snapshot
        if last is None:
            return
        for phase_name, io in last.io.items():
            self._require_monotonic(
                io, snapshot.io.get(phase_name), f"io[{phase_name}]", where
            )
        for phase_name, faults in last.faults.items():
            self._require_monotonic(
                faults, snapshot.faults.get(phase_name),
                f"faults[{phase_name}]", where,
            )
        self._require_monotonic(last.cpu, snapshot.cpu, "cpu", where)

    @staticmethod
    def _require_monotonic(
        before: Any, after: Any, label: str, where: str
    ) -> None:
        if after is None:
            raise InvariantViolation(
                f"counter group {label} vanished between snapshots ({where})"
            )
        for field in dataclasses.fields(before):
            b = getattr(before, field.name)
            a = getattr(after, field.name)
            if a < b:
                raise InvariantViolation(
                    f"counter {label}.{field.name} decreased "
                    f"{b} -> {a} ({where})"
                )

    # ----------------------------------------------------------------- #
    # Buffer-pool invariants
    # ----------------------------------------------------------------- #

    def check_buffer(self, buffer: Any, where: str = "") -> None:
        frames = buffer.audit_frames()
        if len(frames) > buffer.capacity:
            raise InvariantViolation(
                f"buffer holds {len(frames)} frames over capacity "
                f"{buffer.capacity} ({where})"
            )
        pinned_total = 0
        for key, page_id, pin_count, _dirty in frames:
            if key != page_id:
                raise InvariantViolation(
                    f"frame keyed {key} holds page {page_id}: the LRU "
                    f"index no longer matches its pages ({where})"
                )
            if pin_count < 0:
                raise InvariantViolation(
                    f"page {page_id} has negative pin count {pin_count} "
                    f"({where})"
                )
            pinned_total += pin_count
        if pinned_total:
            leaked = [
                (page_id, pin_count)
                for _key, page_id, pin_count, _dirty in frames
                if pin_count
            ]
            raise InvariantViolation(
                f"{pinned_total} pin(s) survived a phase boundary "
                f"(pins are operation-scoped): {leaked} ({where})"
            )

    # ----------------------------------------------------------------- #
    # Tree well-formedness
    # ----------------------------------------------------------------- #

    def check_tree(self, tree: Any, where: str = "") -> None:
        """Dispatch on tree flavour; all access is peek-only."""
        if getattr(tree, "root_id", -1) == -1:
            return  # not yet seeded / empty shell
        phase = getattr(tree, "phase", None)
        if hasattr(tree, "_slots") and phase is not None:
            if getattr(phase, "value", None) == "ready":
                self._check_finished_seeded(tree, where)
            else:
                self._check_mid_construction_seeded(tree, where)
        else:
            self._check_rtree(tree, where)
        self.check_snapshot(tree, where)

    @staticmethod
    def check_snapshot(tree: Any, where: str = "") -> None:
        """A memoised snapshot at the tree's stamp equals a fresh pack.

        A snapshot at an older stamp is never served again (the next
        :func:`~repro.join.batch.column_tree_of` assembles a new one),
        so only a current one is checked. A mismatch means an entry was
        edited without ``invalidate_caches()``: with the stamp unmoved
        the memoised snapshot went stale, and with it moved the assembly
        kept that node's old rows.
        """
        record = getattr(tree, "_column_tree", None)
        if record is None or record.stamp != (tree.mutations, tree.root_id):
            return
        cached, fresh = record.snapshot, packed_snapshot(tree)
        if cached is None or fresh is None:
            if cached is not fresh:
                raise InvariantViolation(
                    f"cached snapshot is {cached!r} where a fresh pack "
                    f"gives {fresh!r} ({where})"
                )
            return
        column = cached.differs_from(fresh)
        if column is not None:
            how = "carried" if record.carried else (
                f"assembled with {record.reread} of {record.nodes} "
                f"nodes re-read")
            raise InvariantViolation(
                f"cached snapshot ({how}) differs from a fresh pack of "
                f"the live tree in {column!r} ({where})"
            )

    def _check_rtree(self, tree: Any, where: str) -> None:
        """Balanced R-tree: uniform leaf depth via exact level stepping,
        and the node count and height the tree keeps."""
        counted = 0
        nodes = 0
        root_id = tree.root_id
        stack: list[int] = [root_id]
        while stack:
            page_id = stack.pop()
            node: Node = tree._node_unaccounted(page_id)
            nodes += 1
            self._check_node_common(tree, node, page_id,
                                    is_root=page_id == root_id, where=where)
            if node.is_leaf:
                counted += len(node.entries)
                if node.level != 0:
                    raise InvariantViolation(
                        f"leaf node {page_id} at level {node.level} "
                        f"(leaves live at level 0) ({where})"
                    )
                continue
            for entry in node.entries:
                child = tree._node_unaccounted(entry.ref)
                if child.level != node.level - 1:
                    raise InvariantViolation(
                        f"child {entry.ref} at level {child.level} under "
                        f"level-{node.level} node {page_id}: leaf depth "
                        f"is no longer uniform ({where})"
                    )
                self._check_parent_mbr(entry, child, where)
                stack.append(entry.ref)
        self._check_count(tree, counted, where)
        height = tree._node_unaccounted(root_id).level + 1
        kept = (getattr(tree, "_num_nodes", nodes),
                getattr(tree, "_height", height))
        if kept != (nodes, height):
            raise InvariantViolation(
                f"tree keeps {kept[0]} nodes and height {kept[1]}, but a "
                f"walk finds {nodes} nodes and height {height} ({where})"
            )

    def _check_finished_seeded(self, tree: Any, where: str) -> None:
        """Clean-up postconditions + general well-formedness (READY)."""
        counted = 0
        stack: list[int] = [tree.root_id]
        while stack:
            page_id = stack.pop()
            node: Node = tree._node_unaccounted(page_id)
            self._check_node_common(tree, node, page_id,
                                    is_root=page_id == tree.root_id,
                                    where=where)
            for entry in node.entries:
                if entry.shadow is not None:
                    raise InvariantViolation(
                        f"entry in node {page_id} still carries a shadow "
                        f"box after clean-up ({where})"
                    )
            if node.is_leaf:
                counted += len(node.entries)
                continue
            for entry in node.entries:
                child = tree._node_unaccounted(entry.ref)
                if child.level >= node.level:
                    raise InvariantViolation(
                        f"child {entry.ref} level {child.level} not below "
                        f"parent level {node.level} ({where})"
                    )
                self._check_parent_mbr(entry, child, where)
                stack.append(entry.ref)
        self._check_count(tree, counted, where)

    def _check_mid_construction_seeded(self, tree: Any, where: str) -> None:
        """Light checks while slots still hold indices, not page ids.

        Below the slot level the grown subtrees are ordinary R-trees but
        are only reachable through the private slot table; the full walk
        happens on the finished tree. Here the seed levels themselves
        are validated: fanout, and shadow presence exactly when
        seed-level filtering is on (Section 3.2 needs the original
        bounding boxes preserved alongside the transformed ones).
        """
        if not hasattr(tree, "_seed_nodes_by_depth"):
            return
        filtering = bool(getattr(tree, "filtering", False))
        for depth, nodes in enumerate(tree._seed_nodes_by_depth()):
            for node in nodes:
                if len(node.entries) > tree.capacity:
                    raise InvariantViolation(
                        f"seed node {node.page_id} at depth {depth} over "
                        f"capacity ({where})"
                    )
                for entry in node.entries:
                    if filtering and entry.shadow is None:
                        raise InvariantViolation(
                            f"seed entry in node {node.page_id} lost its "
                            f"shadow box with filtering on ({where})"
                        )

    # -- shared pieces -------------------------------------------------- #

    @staticmethod
    def _check_node_common(
        tree: Any, node: Node, page_id: int, is_root: bool, where: str
    ) -> None:
        if node.page_id != page_id:
            raise InvariantViolation(
                f"node fetched via page {page_id} says it is page "
                f"{node.page_id} ({where})"
            )
        if len(node.entries) > tree.capacity:
            raise InvariantViolation(
                f"node {page_id} holds {len(node.entries)} entries over "
                f"capacity {tree.capacity} ({where})"
            )
        if not node.entries and not is_root:
            raise InvariantViolation(
                f"empty non-root node {page_id} ({where})"
            )
        Sanitizer._check_node_caches(node, page_id, where)

    @staticmethod
    def _check_node_caches(node: Node, page_id: int, where: str) -> None:
        """A populated node-MBR memo must be the exact union of the live
        entries.

        A ``None`` memo is always fine (lazily built); a stale populated
        one means an entry mutation skipped ``invalidate_caches()`` and
        the scalar matcher would read a dead box.
        """
        mbr_cache = getattr(node, "_mbr_cache", None)
        if mbr_cache is not None and (
            not node.entries or mbr_cache != node_mbr(node)
        ):
            raise InvariantViolation(
                f"node {page_id} carries a stale node-MBR cache "
                f"{mbr_cache} (exact union is "
                f"{node_mbr(node) if node.entries else 'empty'}) ({where})"
            )

    @staticmethod
    def _check_parent_mbr(entry: Any, child: Node, where: str) -> None:
        exact = node_mbr(child)
        if entry.mbr != exact:
            raise InvariantViolation(
                f"parent entry MBR {entry.mbr} for node {child.page_id} "
                f"is not the exact union {exact} of its entries ({where})"
            )

    @staticmethod
    def _check_count(tree: Any, counted: int, where: str) -> None:
        expected = getattr(tree, "_count", None)
        if expected is not None and counted != expected:
            raise InvariantViolation(
                f"tree says {expected} objects but its leaves hold "
                f"{counted} ({where})"
            )
