"""The session/workspace registry of resident trees.

A :class:`ResidentSession` is the long-lived unit the service serves
from: one :class:`~repro.workspace.Workspace` substrate (config, metrics
collector, simulated disk, buffer) plus a pre-built R-tree that stays
resident across requests — the warm-index scenario the one-shot
``spatial_join`` protocol could never exercise. Sessions also accept
insert/delete streams (Guttman's Delete with condensing), so a resident
tree can drift under update traffic between joins.

Sessions are registered in a :class:`WorkspaceRegistry` by name. Each
session owns a re-entrant lock: the substrate (buffer pins, LRU order,
tree caches) is not thread-safe, so the service serializes requests per
session while different sessions proceed concurrently on different
executor threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..analysis.witness import witnessed_lock
from ..config import SystemConfig
from ..errors import ExperimentError
from ..geometry import Rect
from ..rtree import RTree
from ..storage import DataFile, FaultInjector, RecoveryPolicy
from ..workload.updates import DELETE, INSERT, MOVE, QUERY, UpdateOp
from ..workspace import Workspace


@dataclass(frozen=True)
class UpdateReport:
    """The answer payload of one applied maintenance batch.

    ``missing`` counts delete/move ops whose target was not in the tree
    (the tree answer for those is "no such object", not an error — the
    batch as a whole still applied); ``query_hits`` totals the result
    sizes of embedded window queries.
    """

    inserts: int = 0
    deletes: int = 0
    moves: int = 0
    queries: int = 0
    missing: int = 0
    query_hits: int = 0
    tree_size: int = 0
    mutations: int = 0

    @property
    def applied(self) -> int:
        return self.inserts + self.deletes + self.moves


class ResidentSession:
    """One named workspace with a resident ``T_R`` and its own lock."""

    def __init__(
        self,
        name: str,
        workspace: Workspace,
        tree: RTree,
        recovery: RecoveryPolicy | None = None,
    ):
        self.name = name
        self.workspace = workspace
        self.tree = tree
        self.recovery = recovery
        self.lock = witnessed_lock("session", threading.RLock())
        self._installed_inputs = 0

    # ----------------------------------------------------------------- #
    # Operations (each takes the session lock; re-entrant under the
    # service worker, which holds it for the whole request)
    # ----------------------------------------------------------------- #

    def window_query(self, window: Rect) -> list[int]:
        """Resident-tree selection, charged to MATCH."""
        with self.lock:
            return self.workspace.window_query(self.tree, window)

    def insert(self, rect: Rect, oid: int) -> None:
        """Add one object to the resident tree (charged maintenance)."""
        with self.lock, self.workspace.maintenance_phase():
            self.tree.insert(rect, oid)

    def delete(self, rect: Rect, oid: int) -> bool:
        """Remove one object, condensing the tree (charged maintenance)."""
        with self.lock, self.workspace.maintenance_phase():
            return self.tree.delete(rect, oid)

    def apply_updates(self, ops: Sequence[UpdateOp]) -> UpdateReport:
        """Apply one ordered maintenance batch to the resident tree.

        The session lock covers the whole batch, so concurrent joins on
        the same session see either the pre-batch or post-batch tree,
        never a half-applied one. Writes charge to the maintenance
        (CONSTRUCT) phase; embedded queries charge to MATCH, exactly as
        :class:`~repro.dynamic.UpdateStream` accounts them.
        """
        inserts = deletes = moves = queries = missing = hits = 0
        with self.lock:
            for op in ops:
                if op.kind == QUERY:
                    hits += len(
                        self.workspace.window_query(self.tree, op.rect)
                    )
                    queries += 1
                    continue
                with self.workspace.maintenance_phase():
                    if op.kind == INSERT:
                        self.tree.insert(op.rect, op.oid)
                        inserts += 1
                    elif op.kind == DELETE:
                        if self.tree.delete(op.rect, op.oid):
                            deletes += 1
                        else:
                            missing += 1
                    elif op.kind == MOVE:
                        assert op.to_rect is not None
                        if self.tree.delete(op.rect, op.oid):
                            self.tree.insert(op.to_rect, op.oid)
                            moves += 1
                        else:
                            missing += 1
            return UpdateReport(
                inserts=inserts, deletes=deletes, moves=moves,
                queries=queries, missing=missing, query_hits=hits,
                tree_size=len(self.tree), mutations=self.tree.mutations,
            )

    def install_join_input(
        self, entries: Iterable[tuple[Rect, int]]
    ) -> DataFile:
        """Materialise one request's derived data set in the substrate.

        SETUP-charged, like every pre-existing input: the request's data
        arrived from outside the measured system.
        """
        with self.lock:
            self._installed_inputs += 1
            return self.workspace.install_datafile(
                entries, name=f"D_S[{self.name}#{self._installed_inputs}]"
            )

    def release_join_input(self, data_s: DataFile) -> None:
        """Free an input made by :meth:`install_join_input`, and the
        pages of join indexes already queued on the session's buffer."""
        buffer = self.workspace.buffer
        first = data_s.first_page_id
        with self.lock:
            # An empty file still took one page id.
            buffer.free(range(first, first + max(data_s.num_pages, 1)))
            buffer.free_pending()

    def __len__(self) -> int:
        return len(self.tree)

    def __repr__(self) -> str:
        return (
            f"ResidentSession({self.name!r}, {len(self.tree)} objects, "
            f"height={self.tree.height})"
        )


class WorkspaceRegistry:
    """Named resident sessions, created once and served many times."""

    def __init__(self, config: SystemConfig | None = None):
        self.default_config = config or SystemConfig()
        self._sessions: dict[str, ResidentSession] = {}
        self._lock = witnessed_lock("registry", threading.Lock())

    def create(
        self,
        name: str,
        entries_r: Iterable[tuple[Rect, int]],
        config: SystemConfig | None = None,
        injector: FaultInjector | None = None,
        recovery: RecoveryPolicy | None = None,
        bulk: bool = True,
        split=None,
    ) -> ResidentSession:
        """Build and register a session around a resident tree.

        ``bulk=True`` (the default) STR-packs the resident tree — the
        natural choice for a pre-computed index. ``injector`` wires the
        substrate for fault injection; it stays disarmed through the
        build, so chaos schedules only bite on served traffic.
        """
        with self._lock:
            if name in self._sessions:
                raise ExperimentError(f"session {name!r} already registered")
        workspace = Workspace(config or self.default_config, injector=injector)
        kwargs = {} if split is None else {"split": split}
        tree = workspace.install_rtree(
            entries_r, name=f"T_R[{name}]", bulk=bulk, **kwargs
        )
        session = ResidentSession(name, workspace, tree, recovery=recovery)
        with self._lock:
            if name in self._sessions:
                raise ExperimentError(f"session {name!r} already registered")
            self._sessions[name] = session
        return session

    def get(self, name: str) -> ResidentSession:
        with self._lock:
            try:
                return self._sessions[name]
            except KeyError:
                raise ExperimentError(
                    f"unknown session {name!r}; registered: "
                    f"{sorted(self._sessions) or 'none'}"
                ) from None

    def drop(self, name: str) -> None:
        """Unregister a session (its substrate is garbage once released)."""
        with self._lock:
            if self._sessions.pop(name, None) is None:
                raise ExperimentError(f"unknown session {name!r}")

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

    def sessions(self) -> Iterator[ResidentSession]:
        with self._lock:
            items = list(self._sessions.values())
        yield from items

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._sessions
