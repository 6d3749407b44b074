"""The runtime execution switch.

Join execution has two paths, selected by ``REPRO_KERNELS``: the scalar
reference (``REPRO_KERNELS=0``) and the default fast path — log-first
construction and its replay, the quadratic-split kernel, batch
traversal plans and batch z-order decomposition.
:func:`kernels_enabled` parses the environment variable on every call
and caches nothing, which keeps this module free of mutable state
(RPR005) and lets the differential tests flip paths with
``monkeypatch.setenv``. Its callers read it once per operation: a join
once, when it starts, into its
:class:`~repro.join.engine.ExecutionMode`, which it passes down; a tree
built outside a join once, when it is built.
"""

from __future__ import annotations

import os

#: The array library behind the kernels (a declared dependency), as run
#: records report it.
BACKEND = "numpy"

_DISABLED_VALUES = ("0", "false", "no", "off")


def kernels_enabled() -> bool:
    """Whether this call takes the fast path rather than the scalar one.

    Controlled by ``REPRO_KERNELS`` (default: enabled). Any of ``0``,
    ``false``, ``no``, ``off`` (case-insensitive) selects the scalar
    reference path everywhere.
    """
    value = os.environ.get("REPRO_KERNELS", "")
    return value.strip().lower() not in _DISABLED_VALUES


def batch_enabled() -> bool:
    """Whether batch traversal runs: the same switch as the kernels.

    Batch traversal plans and construction replay are part of the fast
    path, so this is :func:`kernels_enabled` under the name run records
    already use.
    """
    return kernels_enabled()
