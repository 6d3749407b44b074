"""A ready-made environment wiring the storage stack together.

:class:`Workspace` bundles the pieces every join needs — config, metrics
collector, simulated disk, dedicated buffer — and reproduces the paper's
experimental protocol:

* pre-existing structures (input data files, the R-tree ``T_R``) are
  built during the metrics SETUP phase, which summaries exclude;
* after setup the buffer is purged and the disk arm reset, so the join
  under measurement starts with a cold cache;
* everything after that is charged to whichever phase the join algorithm
  declares (CONSTRUCT / MATCH).

Examples and the experiment harness both build on this class.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .config import SystemConfig
from .geometry import Rect
from .kernels import kernels_enabled
from .metrics import MetricsCollector, Phase
from .rtree import RTree
from .rtree.split import SplitFunction, quadratic_split
from .storage import BufferPool, DataFile, DiskSimulator, FaultInjector

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .seeded import SeededTree


class Workspace:
    """Config + metrics + disk + buffer, wired the way the paper ran.

    Pass an (unarmed) :class:`~repro.storage.FaultInjector` to make the
    stack fault-capable: setup stays fault-free, and the caller arms the
    injector (``ws.disk.injector.arm()``) right before the join under
    test. A disarmed injector perturbs nothing.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        injector: FaultInjector | None = None,
    ):
        self.config = config or SystemConfig()
        self.metrics = MetricsCollector(self.config)
        self.disk = DiskSimulator(self.metrics, injector=injector)
        self.buffer = BufferPool(self.config.buffer_pages, self.disk)

    # ----------------------------------------------------------------- #
    # Un-charged setup
    # ----------------------------------------------------------------- #

    def install_datafile(
        self, entries: Iterable[tuple[Rect, int]], name: str = ""
    ) -> DataFile:
        """Write a sequential input file during the SETUP phase."""
        with self.metrics.phase(Phase.SETUP):
            return DataFile.create(self.disk, self.config, entries, name=name)

    def install_rtree(
        self,
        entries: Iterable[tuple[Rect, int]],
        name: str = "T_R",
        split: SplitFunction = quadratic_split,
        bulk: bool = False,
    ) -> RTree:
        """Build a pre-existing R-tree (the paper's ``T_R``) for free.

        Construction happens in the SETUP phase (excluded from cost
        summaries); afterwards the buffer is purged so the measured join
        starts cold, exactly like a pre-computed index sitting on disk.

        ``bulk=True`` builds via STR packing instead of one-by-one
        insertion — the per-shard substrate path of the parallel
        executor uses this: each worker must stand up its tile's
        ``T_R`` inside the measured wall-clock window, and a packed
        build is both far cheaper and deterministic.

        On the fast path over a disk with no injector or deadline, the
        one-by-one build runs log-first
        (:func:`~repro.seeded.builder.build_rtree`): the same pages,
        buffer state and tree, and the tree arrives with its columnar
        snapshot, so its first join packs nothing.
        """
        from .seeded.builder import build_rtree
        from .seeded.replay import plain_disk

        fast = kernels_enabled()
        with self.metrics.phase(Phase.SETUP):
            if bulk:
                from .rtree.bulk import bulk_load_str

                tree = bulk_load_str(
                    self.buffer, self.config, entries, metrics=None,
                    name=name,
                )
            elif fast and plain_disk(self.disk):
                tree = build_rtree(
                    self.buffer, self.config, None, entries,
                    split=split, name=name,
                )
            else:
                tree = RTree.build(
                    self.buffer, self.config, entries,
                    metrics=None,  # setup CPU is not the paper's metric
                    split=split, name=name, fast=fast,
                )
            tree.metrics = self.metrics  # joins charge CPU from here on
            self.buffer.purge()
        self.disk.reset_arm()
        return tree

    def install_seeded_tree(
        self,
        partner: RTree,
        entries: Iterable[tuple[Rect, int]],
        name: str = "T_S",
        seed_levels: int = 2,
        **kwargs,
    ) -> "SeededTree":
        """Build a pre-existing *retained* seeded tree during SETUP.

        The dynamic-update scenario starts from a seeded tree that was
        built by some earlier join and retained as an ordinary index
        (paper Section 5); like :meth:`install_rtree` the construction
        is free, the buffer is purged afterwards, and everything the
        stream does to the tree later is charged. The build's scratch
        (pruned seed nodes, linked-list batches) is freed, as a join's
        is.
        """
        from .join.lifetime import free_scratch
        from .seeded import SeededTree

        start = self.disk.allocated_pages
        with self.metrics.phase(Phase.SETUP):
            tree = SeededTree(
                self.buffer, self.config, metrics=None,
                seed_levels=seed_levels, name=name, **kwargs,
            )
            tree.seed(partner)
            tree.grow_from(list(entries))
            tree.cleanup()
            tree.metrics = self.metrics
            free_scratch(self.buffer, start, tree)
            self.buffer.purge()
        self.disk.reset_arm()
        return tree

    # ----------------------------------------------------------------- #
    # Resident-service operations (charged phases live here: the
    # workspace and the engine are the only legal phase-entry points)
    # ----------------------------------------------------------------- #

    def window_query(
        self, tree: "RTree | SeededTree", window: Rect
    ) -> list[int]:
        """One resident-tree window query, charged to the MATCH phase.

        The resident join service routes its window-query requests
        through here so selection traffic lands in the same accounting
        column as join-time matching.
        """
        with self.metrics.phase(Phase.MATCH):
            return tree.window_query(window)

    def match_resident(self, tree_a, tree_b) -> list[tuple[int, int]]:
        """TM tree-matching between two resident indexes, charged to MATCH.

        The dynamic scenario joins its resident seeded tree against the
        resident partner without rebuilding anything; only the match
        phase exists, exactly the regime re-seed policies optimise.
        """
        from .join.matching import match_trees

        with self.metrics.phase(Phase.MATCH):
            return match_trees(tree_a, tree_b, self.metrics)

    def maintenance_phase(self):
        """Accounting context for resident-index maintenance.

        Insert/delete streams against a registered resident tree are
        index construction work that the original one-shot protocol
        never had; they charge to CONSTRUCT, next to join-time builds.
        """
        return self.metrics.phase(Phase.CONSTRUCT)

    def record_service_fallback(self) -> None:
        """Count one service-level degradation (e.g. STJ request answered
        by BFJ under overload or an admission downgrade).

        Recorded under CONSTRUCT exactly like the engine's own
        irrecoverable-construction fallback, so the existing fault table
        shows engine and service downgrades in one column.
        """
        with self.metrics.phase(Phase.CONSTRUCT):
            self.metrics.record_fallback()

    # ----------------------------------------------------------------- #
    # Between-run hygiene
    # ----------------------------------------------------------------- #

    def start_measurement(self) -> None:
        """Cold-start the cache and zero the counters for a fresh run.

        A safe point: the pages of join indexes dropped since the last
        one are freed first, so the purge does not write them back.
        """
        self.buffer.free_pending()
        with self.metrics.phase(Phase.SETUP):
            self.buffer.purge()
        self.disk.reset_arm()
        self.metrics.reset()

    def __repr__(self) -> str:
        return (
            f"Workspace(page={self.config.page_size}B, "
            f"buffer={self.config.buffer_pages}p, "
            f"disk_pages={self.disk.written_pages})"
        )
