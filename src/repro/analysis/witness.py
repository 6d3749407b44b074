"""Runtime lock witness: the dynamic half of the RPR009 lattice.

:mod:`repro.analysis.lockspec` declares the order in which the repo's
lock domains may nest (registry → session → pool → dataset → metrics);
RPR009 enforces it statically over every function's CFG. This module
enforces the *same* lattice on the locks the process actually takes:
when armed, :func:`witnessed_lock` wraps a domain's lock so every
acquisition records the edge ``held-domain → acquired-domain`` in a
process-global ledger and raises
:class:`~repro.errors.InvariantViolation` the moment an acquisition
inverts the declared order — the chaos, service, and dynamic suites run
with the witness armed, so a deadlock-shaped regression fails loudly at
the exact acquisition instead of hanging a CI job.

Arming is decided once, at lock *creation* time: with ``REPRO_SANITIZE``
or ``REPRO_WITNESS`` truthy in the environment, ``witnessed_lock``
returns a wrapper; otherwise it returns the raw lock untouched, so the
production path pays nothing. The wrapper itself does no accounted I/O
and touches no metrics — a sanitized run's ``CostSummary`` stays
bit-identical to an unsanitized one.

With ``REPRO_WITNESS_OUT=<path>`` set, the observed edge set is
merge-written to that JSON file at interpreter exit (unioned with
whatever an earlier run left there; a process with an empty ledger —
worker processes usually — only ensures the file exists, never
rewrites it). CI points the witness-armed suite legs at one file and
then runs ``repro-lint --check-witness <path>``, which replays every
recorded edge against the declared lattice: the static spec and the
runtime observations must agree or the job fails. Most critical
sections are single-domain, so most runs nest nothing; a pooled
service join nests ``session → dataset`` and ``session → pool``, and
the service chaos leg runs one. An empty edge set passes vacuously,
while a missing or unreadable file fails as a mis-wired harness.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
from typing import Any, Protocol, Union

from ..errors import InvariantViolation
from .lockspec import DOMAIN_ORDER, may_acquire_while_holding

__all__ = [
    "LockLike",
    "check_edges",
    "observed_edges",
    "reset_witness",
    "witness_enabled",
    "witnessed_lock",
]

ENV_WITNESS = "REPRO_WITNESS"
ENV_OUT = "REPRO_WITNESS_OUT"
_TRUTHY_OFF = ("", "0", "false", "no", "off")


def witness_enabled() -> bool:
    """Whether lock wrappers should be installed at creation time.

    ``REPRO_SANITIZE=1`` arms the witness alongside the structural
    sanitizer; ``REPRO_WITNESS=1`` arms it alone.
    """
    for var in ("REPRO_SANITIZE", ENV_WITNESS):
        if os.environ.get(var, "").strip().lower() not in _TRUTHY_OFF:
            return True
    return False


class LockLike(Protocol):
    """The slice of the ``threading`` lock interface the repo relies on."""

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool: ...

    def release(self) -> None: ...

    def __enter__(self) -> bool: ...

    def __exit__(self, *exc: object) -> Any: ...


class _Ledger:
    """The process-global witness state, created once at import.

    ``edges`` collects every (held, acquired) domain pair the process
    observes (guarded — worker threads record concurrently); ``held``
    is the per-thread stack of currently held domains.
    """

    def __init__(self) -> None:
        self.edges: set[tuple[str, str]] = set()
        self.guard = threading.Lock()
        self.held = threading.local()

    def held_stack(self) -> list:
        stack = getattr(self.held, "stack", None)
        if stack is None:
            stack = []
            self.held.stack = stack
        return stack

    def record(self, edge: tuple[str, str]) -> None:
        with self.guard:
            self.edges.add(edge)

    def snapshot(self) -> set[tuple[str, str]]:
        with self.guard:
            return set(self.edges)

    def clear(self) -> None:
        with self.guard:
            self.edges.clear()


_LEDGER = _Ledger()


def reset_witness() -> None:
    """Drop every recorded edge (test isolation)."""
    _LEDGER.clear()


def observed_edges() -> set[tuple[str, str]]:
    """A snapshot of the (held, acquired) pairs seen so far."""
    return _LEDGER.snapshot()


def check_edges(
    edges: "set[tuple[str, str]] | list[tuple[str, str]]",
) -> list[str]:
    """Replay recorded edges against the declared lattice.

    Returns one human-readable violation per offending edge (unknown
    domains are violations too — an edge the spec cannot classify means
    the witness and the spec have drifted apart).
    """
    problems: list[str] = []
    for held, acquired in sorted(set(edges)):
        if held not in DOMAIN_ORDER or acquired not in DOMAIN_ORDER:
            problems.append(
                f"edge {held!r} -> {acquired!r} names a domain outside "
                f"the declared lattice {'->'.join(DOMAIN_ORDER)}"
            )
        elif not may_acquire_while_holding(held, acquired):
            problems.append(
                f"observed acquisition of {acquired!r} while holding "
                f"{held!r} inverts the declared lattice "
                f"{'->'.join(DOMAIN_ORDER)}"
            )
    return problems


class _WitnessedLock:
    """A lock proxy that records and polices domain nesting.

    Delegates to the wrapped lock (Lock or RLock) and keeps a
    thread-local stack of held domains; each successful acquire records
    one edge per currently held domain and fails fast on inversion.
    """

    __slots__ = ("_domain", "_lock")

    def __init__(self, domain: str, lock: LockLike) -> None:
        if domain not in DOMAIN_ORDER:
            raise ValueError(f"unknown lock domain {domain!r}")
        self._domain = domain
        self._lock = lock

    def _record(self) -> None:
        stack = _LEDGER.held_stack()
        for held in stack:
            if held == self._domain:
                continue  # re-entry; recorded on first acquisition
            _LEDGER.record((held, self._domain))
            if not may_acquire_while_holding(held, self._domain):
                raise InvariantViolation(
                    f"lock witness: acquiring {self._domain!r} while "
                    f"holding {held!r} inverts the declared lattice "
                    f"{'->'.join(DOMAIN_ORDER)}"
                )
        stack.append(self._domain)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._record()
        return acquired

    def release(self) -> None:
        stack = _LEDGER.held_stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == self._domain:
                del stack[i]
                break
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def locked(self) -> bool:
        return self._lock.locked()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return f"<witnessed {self._domain} lock {self._lock!r}>"


def witnessed_lock(
    domain: str, lock: LockLike
) -> Union[LockLike, "_WitnessedLock"]:
    """Wrap ``lock`` as domain ``domain`` when the witness is armed.

    Called at every lattice lock's creation site; disarmed processes get
    the raw lock back, so the wrapper costs nothing unless
    ``REPRO_SANITIZE``/``REPRO_WITNESS`` opted in.
    """
    if not witness_enabled():
        return lock
    return _WitnessedLock(domain, lock)


def _merge_write(path: str) -> None:
    """Union this process's edges into ``path`` (best-effort, atexit)."""
    edges = observed_edges()
    if not edges:
        # Nothing to merge, but the file's existence is the proof that
        # an armed run actually flushed — create it (exclusively, so a
        # concurrent writer with real edges is never clobbered) and
        # leave any existing content alone.
        try:
            with open(path, "x", encoding="utf-8") as fh:
                json.dump({"edges": []}, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError:
            pass
        return
    merged = set(edges)
    try:
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
        merged.update(tuple(edge) for edge in previous.get("edges", []))
    except (OSError, ValueError):
        pass
    payload = {"edges": sorted(list(edge) for edge in merged)}
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


@atexit.register
def _flush_at_exit() -> None:
    out = os.environ.get(ENV_OUT, "").strip()
    if out:
        _merge_write(out)
