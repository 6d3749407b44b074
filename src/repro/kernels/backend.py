"""The runtime execution switch.

Join execution has two paths, selected by ``REPRO_KERNELS``: the scalar
reference (``REPRO_KERNELS=0``) and the default fast path —
construction kernels, batch traversal plans, construction replay and
batch z-order decomposition.
:func:`kernels_enabled` reads the environment variable on every call.
Reading it per call instead of caching it in a module flag keeps this
module free of mutable state (RPR005) and lets the differential tests
flip paths with ``monkeypatch.setenv`` — the hot paths cache the answer
once per join run, so the per-call cost never lands in an inner loop.
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
    value = os.environ.get("REPRO_KERNELS")
    if value is None or value == "1":
        # Fast path for the two overwhelmingly common states: unset and
        # the bench harness's explicit "1".
        return True
    return value.strip().lower() not in _DISABLED_VALUES


def batch_enabled() -> bool:
    """Whether batch traversal runs: the same switch as the kernels.

    Batch traversal plans and construction replay are part of the fast
    path, so this is :func:`kernels_enabled` under the name run records
    already use.
    """
    return kernels_enabled()
