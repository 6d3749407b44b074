"""The repo's declared lock-order lattice.

Four lock domains grew across PRs 6–8, plus the dataset cache's; this
module is the single checked-in statement of the order they may nest:

    registry  →  session  →  pool  →  dataset  →  metrics

* ``registry`` — ``WorkspaceRegistry._lock`` guards the session table.
* ``session`` — per-``ResidentSession`` ``lock`` serialises joins and
  maintenance against one workspace.
* ``pool`` — ``WorkerPool._lock`` serialises dispatch over one pool.
* ``dataset`` — ``DatasetCache._lock`` guards the published-segment
  cache. The executor publishes a join's dataset before the pool lock
  is taken, so the two never nest today; ``dataset`` is ordered after
  ``pool`` so that a pool may still consult the cache while it
  dispatches. A pooled service join holds ``session`` while it
  publishes and while it dispatches, which records ``session →
  dataset`` and ``session → pool``.
* ``metrics`` — ``ServiceMetrics._lock`` is a strict leaf: nothing may
  be acquired while it is held, so a metrics record can be dropped into
  any code path without deadlock risk.

A thread may take locks left-to-right (skipping any) and may re-enter a
domain it already holds (sessions use an RLock); taking a domain while
holding any *later*-ordered one is a lattice inversion. RPR009 enforces
this statically over the CFG; :mod:`repro.analysis.witness` enforces the
same lattice at runtime when the sanitizer is armed, and
``repro-lint --check-witness`` diffs what the witness observed against
this spec, so the two can never drift apart silently.

Per-request ``_Ticket._lock`` is deliberately *not* in the lattice: it
is a leaf-by-construction resolve latch local to one ticket, never held
across calls into any domain above.
"""

from __future__ import annotations

import ast

__all__ = [
    "CLASS_ATTR_DOMAINS",
    "DOMAIN_ORDER",
    "RECEIVER_ATTR_DOMAINS",
    "classify_lock_expr",
    "domain_index",
    "may_acquire_while_holding",
]

#: The lattice, earliest-acquired first. ``metrics`` last = strict leaf.
DOMAIN_ORDER: tuple[str, ...] = (
    "registry", "session", "pool", "dataset", "metrics",
)

#: (enclosing class name, attribute name) → domain, for ``self._lock``
#: style acquisitions inside the owning class.
CLASS_ATTR_DOMAINS: dict[tuple[str, str], str] = {
    ("WorkspaceRegistry", "_lock"): "registry",
    ("ResidentSession", "lock"): "session",
    ("WorkerPool", "_lock"): "pool",
    ("DatasetCache", "_lock"): "dataset",
    ("ServiceMetrics", "_lock"): "metrics",
}

#: (receiver name, attribute name) → domain, for acquisitions through a
#: conventionally named local/attribute receiver (``session.lock``,
#: ``pool._lock``, …) outside the owning class.
RECEIVER_ATTR_DOMAINS: dict[tuple[str, str], str] = {
    ("registry", "_lock"): "registry",
    ("session", "lock"): "session",
    ("pool", "_lock"): "pool",
    ("cache", "_lock"): "dataset",
    ("metrics", "_lock"): "metrics",
}


def domain_index(domain: str) -> int:
    """Position of ``domain`` in the lattice; raises on unknown domains."""
    return DOMAIN_ORDER.index(domain)


def may_acquire_while_holding(held: str, wanted: str) -> bool:
    """Whether taking ``wanted`` while holding ``held`` respects the
    lattice. Same-domain re-entry is allowed (the session lock is an
    RLock); otherwise the wanted domain must be strictly later."""
    if held == wanted:
        return True
    return domain_index(held) < domain_index(wanted)


def _receiver_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def classify_lock_expr(
    expr: ast.expr, enclosing_class: str | None
) -> str | None:
    """Map a lock expression to its declared domain, or ``None``.

    ``self._lock`` / ``self.lock`` / ``cls._lock`` classify through the
    enclosing class; ``session.lock`` / ``x.pool._lock`` classify
    through the receiver's trailing name. Unknown lock expressions
    return ``None`` — RPR009 ignores locks outside the lattice (e.g.
    the per-ticket resolve latch), by design.
    """
    if not isinstance(expr, ast.Attribute):
        return None
    attr = expr.attr
    receiver = expr.value
    if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
        if enclosing_class is not None:
            domain = CLASS_ATTR_DOMAINS.get((enclosing_class, attr))
            if domain is not None:
                return domain
        return None
    name = _receiver_name(receiver)
    if name is None:
        return None
    for (recv, lock_attr), domain in RECEIVER_ATTR_DOMAINS.items():
        if lock_attr == attr and (name == recv or name.endswith(recv)):
            return domain
    return None
