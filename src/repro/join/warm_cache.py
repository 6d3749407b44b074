"""One bounded cache of warm join state per persistent tree.

A resident workspace re-joining the same inputs skips work through three
kinds of derived state, all functions of one persistent tree's version
plus something about the join's other side:

* ``match`` — a lowered batch match plan
  (:mod:`repro.join.batch`), keyed by the peer snapshot's structural
  digest;
* ``window`` — a lowered batch window plan, keyed by checksums of the
  query batch;
* ``construct`` — a seeded-construction recording
  (:mod:`repro.seeded.replay`), keyed by the replay key.

They live in one :class:`WarmCache` owned by the tree every join of the
kind reads (``T_R`` for STJ, RTJ and BFJ; ``tree_b`` for a match in
general) and reached through :func:`warm_cache_of`. Every key depends on
that tree's version, so the cache carries the tree's ``(mutations,
root_id)`` stamp and is emptied whole when the stamp moves. Keys are
lookup keys only: checksums and digests can collide, so every caller
compares the stored inputs exactly before it reuses an entry, and treats
a mismatch as a miss.

The cache is bounded: at most :data:`CAPACITY` entries across all kinds,
least recently used evicted first. Per kind it counts ``hits`` (reused
as stored), ``rebinds`` (reused after re-lowering page ids for a new
but equal peer), ``misses`` (nothing usable was stored) and
``evictions`` (pushed out by the bound); the counts survive a stamp
drop. Only the fast path reads or fills the cache; the scalar reference
never creates one.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Any

__all__ = ["CAPACITY", "KINDS", "OUTCOMES", "WarmCache", "warm_cache_of"]

KINDS = ("match", "window", "construct")
OUTCOMES = ("hits", "rebinds", "misses", "evictions")

#: Live entries across all kinds. A resident session that re-joins one
#: D_S with STJ, RTJ and BFJ keeps four (two match plans, one window
#: plan, one recording); a second STJ variant adds two more.
CAPACITY = 8


class WarmCache:
    """Entries keyed by ``(kind, key)`` for one version of one tree."""

    __slots__ = ("stamp", "counts", "_entries")

    def __init__(self, stamp: tuple) -> None:
        self.stamp = stamp
        #: ``(kind, outcome)`` -> count, over the tree's lifetime.
        self.counts: Counter = Counter()
        self._entries: OrderedDict = OrderedDict()

    def lookup(self, kind: str, key: Any) -> Any | None:
        """The entry stored under ``(kind, key)``, or ``None``."""
        slot = (kind, key)
        entry = self._entries.get(slot)
        if entry is not None:
            self._entries.move_to_end(slot)
        return entry

    def store(self, kind: str, key: Any, entry: Any) -> None:
        """Keep ``entry`` under ``(kind, key)``, evicting past the bound."""
        slot = (kind, key)
        self._entries[slot] = entry
        self._entries.move_to_end(slot)
        while len(self._entries) > CAPACITY:
            (evicted, _), _ = self._entries.popitem(last=False)
            self.counts[evicted, "evictions"] += 1

    def note(self, kind: str, outcome: str) -> None:
        """Count one lookup's outcome: ``hits``, ``rebinds`` or ``misses``."""
        self.counts[kind, outcome] += 1

    def entries(self, kind: str) -> list:
        """The live entries of one kind, least recently used first."""
        return [e for (k, _), e in self._entries.items() if k == kind]

    def stats(self, kind: str) -> dict[str, int]:
        """This kind's counts, one per outcome."""
        return {outcome: self.counts[kind, outcome] for outcome in OUTCOMES}

    def __len__(self) -> int:
        return len(self._entries)


def warm_cache_of(tree: Any) -> WarmCache:
    """``tree``'s warm cache, emptied first if the tree's version moved.

    The stamp is the one :func:`repro.join.batch.column_tree_of` keys
    snapshots on: every mutating lane bumps ``mutations``, and root
    replacement covers the root-split/collapse edge.
    """
    stamp = (tree.mutations, tree.root_id)
    cache = getattr(tree, "_warm_cache", None)
    if cache is None:
        cache = WarmCache(stamp)
        tree._warm_cache = cache
    elif cache.stamp != stamp:
        cache._entries.clear()
        cache.stamp = stamp
    return cache
