"""Lifecycle tests for shared-memory segments and the rect view over them.

The ownership contract under test (see ``repro.parallel.shm``): the
creating process owns a segment and alone may unlink it; attachers map
read-only views and only ever close. One parametrized test runs that
contract on both segment shapes the pool publishes — a float64
``(4, n)`` block of rectangle coordinates and an int64 ``(n,)`` vector
of oids or CSR index entries. The scenarios that leak in practice — a
child that exits normally, a child that is SIGKILLed mid-attachment,
and an owner interrupted by ``KeyboardInterrupt`` — each assert that no
``/dev/shm`` segment survives the owner. A Hypothesis sweep pins value
parity between the shared view and the plain in-process
:class:`RectArray`.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParallelError
from repro.geometry import Rect
from repro.kernels.rect_array import RectArray
from repro.parallel.shm import SharedRectArray, SharedSegment, _attach_untracked


def _segment_exists(name: str) -> bool:
    try:
        shm = _attach_untracked(name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


def _shm_names() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _rects(n: int, base: float = 0.0) -> list[Rect]:
    return [
        Rect(base + i, base + 2 * i, base + i + 1.5, base + 2 * i + 0.5)
        for i in range(n)
    ]


def _entries(n: int) -> list[tuple[Rect, int]]:
    return [(r, 100 + i) for i, r in enumerate(_rects(n))]


def _columns_equal(a: RectArray, b: RectArray) -> bool:
    return len(a) == len(b) and all(
        a.rect_at(i) == b.rect_at(i) for i in range(len(a))
    )


# --------------------------------------------------------------------- #
# The segment contract, on both published shapes
# --------------------------------------------------------------------- #


def _values(dtype: str, n: int) -> np.ndarray:
    """Arbitrary bit patterns: every float64 (NaN payloads, signed
    zeros, subnormals, infinities included) or every int64."""
    rng = np.random.default_rng(n)
    if dtype == "float64":
        bits = rng.integers(-(2**63), 2**63 - 1, size=(4, n), dtype=np.int64)
        return bits.view(np.float64)
    return rng.integers(-(2**63), 2**63 - 1, size=n, dtype=np.int64)


@pytest.mark.parametrize("n", (0, 1, 20_000))
@pytest.mark.parametrize("dtype", ("float64", "int64"))
def test_shared_segment_lifecycle(dtype, n):
    values = _values(dtype, n)
    before = _shm_names()
    owner = SharedSegment.create(values, dtype)
    name = owner.name
    assert (name is None) == (n == 0)   # an empty array needs no segment
    attached = SharedSegment.attach(owner.descriptor)
    try:
        for segment in (owner, attached):
            view = segment.values
            # Bit-identical round trip, owner -> descriptor -> attacher.
            assert view.dtype == values.dtype and view.shape == values.shape
            assert view.tobytes() == values.tobytes()
            # Read-only in every process, the owner included.
            with pytest.raises(ValueError):
                view[...] = 0
        assert not attached.owner
        with pytest.raises(ParallelError):
            attached.unlink()
    finally:
        attached.close()
    owner.unlink()
    assert name is None or not _segment_exists(name)

    # An abandoned owner is unlinked when it is garbage-collected.
    abandoned = SharedSegment.create(values, dtype)
    name = abandoned.name
    del abandoned
    gc.collect()
    assert name is None or not _segment_exists(name)

    if dtype == "int64":
        with pytest.raises(ParallelError):
            SharedSegment.create(values.tolist() + [2**63], dtype)
    assert _shm_names() <= before


# --------------------------------------------------------------------- #
# The rect view: in-process lifecycle
# --------------------------------------------------------------------- #


def test_empty_array_allocates_no_segment():
    shared = SharedRectArray.create([])
    assert shared.descriptor.name is None
    attached = SharedRectArray.attach(shared.descriptor)
    assert len(attached) == 0 and attached.xlo.shape == (0,)
    attached.close()
    shared.unlink()  # no-op, must not raise


def test_only_owner_may_unlink():
    shared = SharedRectArray.create(_entries(4))
    try:
        attached = SharedRectArray.attach(shared.descriptor)
        with pytest.raises(ParallelError):
            attached.unlink()
        attached.close()
        assert _segment_exists(shared.descriptor.name)
    finally:
        shared.unlink()


def test_close_is_idempotent_and_unlink_twice_safe():
    shared = SharedRectArray.create(_entries(4))
    name = shared.descriptor.name
    shared.close()
    shared.close()
    shared.unlink()
    shared.unlink()
    assert not _segment_exists(name)


def test_context_manager_unlinks_on_keyboard_interrupt():
    name = None
    with pytest.raises(KeyboardInterrupt):
        with SharedRectArray.create(_entries(6)) as shared:
            name = shared.descriptor.name
            assert _segment_exists(name)
            raise KeyboardInterrupt
    assert not _segment_exists(name)


# --------------------------------------------------------------------- #
# Cross-process lifecycle
# --------------------------------------------------------------------- #

_FORK = "fork" in multiprocessing.get_all_start_methods()


def _child_attach_and_check(descriptor, expected_n, ok):
    attached = SharedRectArray.attach(descriptor)
    try:
        ok.value = 1 if len(attached) == expected_n else 0
    finally:
        attached.close()


def _child_attach_and_hang(descriptor, attached_event):
    attached = SharedRectArray.attach(descriptor)
    attached_event.set()
    import time

    while True:  # killed by the parent
        time.sleep(0.05)
        assert len(attached) > 0


@pytest.mark.skipif(not _FORK, reason="needs the fork start method")
def test_child_normal_exit_leaves_owner_segment_intact():
    ctx = multiprocessing.get_context("fork")
    shared = SharedRectArray.create(_entries(12))
    try:
        ok = ctx.Value("i", -1)
        child = ctx.Process(
            target=_child_attach_and_check,
            args=(shared.descriptor, 12, ok),
        )
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 0
        assert ok.value == 1
        # The attacher's exit must not have destroyed the segment.
        assert _segment_exists(shared.descriptor.name)
    finally:
        name = shared.descriptor.name
        shared.unlink()
    assert not _segment_exists(name)


@pytest.mark.skipif(not _FORK, reason="needs the fork start method")
def test_sigkilled_attacher_does_not_destroy_segment():
    ctx = multiprocessing.get_context("fork")
    shared = SharedRectArray.create(_entries(9))
    try:
        attached_event = ctx.Event()
        child = ctx.Process(
            target=_child_attach_and_hang,
            args=(shared.descriptor, attached_event),
        )
        child.start()
        assert attached_event.wait(timeout=30)
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=30)
        assert child.exitcode == -signal.SIGKILL
        assert _segment_exists(shared.descriptor.name)
        # The owner still reads its own data after the crash...
        assert shared.rect_at(0) == Rect(0.0, 0.0, 1.5, 0.5)
    finally:
        name = shared.descriptor.name
        shared.unlink()
    # ...and still tears the segment down cleanly.
    assert not _segment_exists(name)


def test_interrupted_owner_process_leaks_nothing():
    """An owner interpreter dying to KeyboardInterrupt (no context
    manager, no explicit unlink) must still leave no segment behind —
    the ``weakref.finalize`` backstop runs at interpreter shutdown."""
    script = textwrap.dedent("""
        from repro.geometry import Rect
        from repro.parallel.shm import SharedRectArray

        shared = SharedRectArray.create([(Rect(0, 0, 1, 1), 1)] * 5)
        print(shared.descriptor.name, flush=True)
        raise KeyboardInterrupt
    """)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    name = proc.stdout.strip()
    assert name.startswith("psm_") or name, proc.stderr
    assert proc.returncode != 0  # the interrupt did terminate it
    assert not _segment_exists(name)


# --------------------------------------------------------------------- #
# Hypothesis parity: shared view vs in-process RectArray
# --------------------------------------------------------------------- #

_coord = st.floats(
    allow_nan=False, allow_infinity=False, width=64,
    min_value=-1e12, max_value=1e12,
)


@st.composite
def _rect_lists(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    rects = []
    for _ in range(n):
        x1, x2 = sorted((draw(_coord), draw(_coord)))
        y1, y2 = sorted((draw(_coord), draw(_coord)))
        rects.append(Rect(x1, y1, x2, y2))
    return rects


@settings(max_examples=25, deadline=None)
@given(rects=_rect_lists())
def test_shared_array_bit_identical_to_local(rects):
    local = RectArray.from_rects(rects)
    shared = SharedRectArray.create([(r, i) for i, r in enumerate(rects)])
    try:
        assert _columns_equal(shared, local)
        attached = SharedRectArray.attach(shared.descriptor)
        try:
            assert _columnwise_bits_equal(attached, local)
        finally:
            attached.close()
    finally:
        shared.unlink()


def _columnwise_bits_equal(a: RectArray, b: RectArray) -> bool:
    """Exact IEEE-754 equality, column by column (no tolerance)."""
    import struct

    if len(a) != len(b):
        return False
    for col in ("xlo", "ylo", "xhi", "yhi"):
        for va, vb in zip(getattr(a, col), getattr(b, col)):
            if struct.pack("<d", float(va)) != struct.pack("<d", float(vb)):
                return False
    return True
