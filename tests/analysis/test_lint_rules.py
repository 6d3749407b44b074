"""Fixture suite for the repro-lint rules.

Each rule gets a *bad* snippet that must fire and a *good* twin —
minimally different, doing the same job the approved way — that must
stay silent. Snippets are linted under virtual paths so the per-rule
path scoping (storage/ exemptions, test exemptions, and so on) is
exercised exactly as it is on the real tree.
"""

from __future__ import annotations

import textwrap

from repro.analysis import RULES, lint_source
from repro.analysis.rules import RULE_SUMMARIES


def findings_for(snippet: str, path: str = "src/repro/join/example.py"):
    return lint_source(textwrap.dedent(snippet), path)


def codes_for(snippet: str, path: str = "src/repro/join/example.py"):
    return [f.code for f in findings_for(snippet, path)]


def test_every_rule_has_a_summary():
    for code in RULES:
        assert code in RULE_SUMMARIES
    assert "RPR000" in RULE_SUMMARIES  # the meta-rule has one too


# --------------------------------------------------------------------- #
# RPR001: direct disk access outside storage/
# --------------------------------------------------------------------- #

BAD_DISK = """
    def load(self, page_id):
        return self.disk.read(page_id)
"""

GOOD_DISK = """
    def load(self, page_id):
        return self.buffer.fetch(page_id)
"""


def test_rpr001_fires_on_direct_disk_read():
    assert codes_for(BAD_DISK) == ["RPR001"]


def test_rpr001_silent_on_buffer_fetch():
    assert codes_for(GOOD_DISK) == []


def test_rpr001_exempts_storage_package():
    assert codes_for(BAD_DISK, "src/repro/storage/buffer.py") == []


def test_rpr001_exempts_tests():
    assert codes_for(BAD_DISK, "tests/storage/test_disk.py") == []


def test_rpr001_allows_unaccounted_peek():
    snippet = """
        def inspect(self, page_id):
            return self.disk.peek(page_id)
    """
    assert codes_for(snippet) == []


def test_rpr001_fires_on_direct_disk_free():
    bad = """
        def release(self, page_ids):
            self.buffer.disk.free(page_ids)
    """
    good = """
        def release(self, page_ids):
            self.buffer.free(page_ids)
    """
    assert codes_for(bad) == ["RPR001"]
    assert codes_for(good) == []
    assert codes_for(bad, "src/repro/storage/buffer.py") == []


# --------------------------------------------------------------------- #
# RPR002: nondeterminism primitives outside workload/seeding.py
# --------------------------------------------------------------------- #

BAD_RANDOM = """
    import random

    def jitter():
        return random.random()
"""

GOOD_RANDOM = """
    import random

    def jitter(seed):
        return random.Random(seed).random()
"""


def test_rpr002_fires_on_bare_random():
    assert codes_for(BAD_RANDOM) == ["RPR002"]


def test_rpr002_silent_on_seeded_rng():
    assert codes_for(GOOD_RANDOM) == []


def test_rpr002_fires_on_wall_clock():
    snippet = """
        import time

        def stamp():
            return time.time()
    """
    assert codes_for(snippet) == ["RPR002"]


def test_rpr002_fires_on_builtin_hash():
    snippet = """
        def bucket(key, n):
            return hash(key) % n
    """
    assert codes_for(snippet) == ["RPR002"]


def test_rpr002_allows_hash_in_dunder_hash():
    snippet = """
        class Key:
            def __hash__(self):
                return hash((self.a, self.b))
    """
    assert codes_for(snippet) == []


def test_rpr002_exempts_seeding_module():
    assert codes_for(BAD_RANDOM, "src/repro/workload/seeding.py") == []


# --------------------------------------------------------------------- #
# RPR003: pin acquire without a release on every path
# --------------------------------------------------------------------- #

BAD_PIN = """
    def visit(buffer, page_id):
        page = buffer.fetch(page_id, pin=True)
        if page.payload is None:
            raise ValueError("empty page")
        result = page.payload.entries
        buffer.unpin(page_id)
        return result
"""

GOOD_PIN = """
    def visit(buffer, page_id):
        page = buffer.fetch(page_id, pin=True)
        try:
            if page.payload is None:
                raise ValueError("empty page")
            return page.payload.entries
        finally:
            buffer.unpin(page_id)
"""


def test_rpr003_fires_on_unprotected_release():
    assert codes_for(BAD_PIN) == ["RPR003"]


def test_rpr003_silent_with_finally():
    assert codes_for(GOOD_PIN) == []


def test_rpr003_fires_when_release_is_missing_entirely():
    snippet = """
        def leak(buffer, page_id):
            return buffer.fetch(page_id, pin=True).payload
    """
    assert codes_for(snippet) == ["RPR003"]


def test_rpr003_ignores_nested_function_releases():
    # The release lives in a nested function that may never run; the
    # outer function still leaks.
    snippet = """
        def outer(buffer, page_id):
            buffer.pin(page_id)

            def later():
                buffer.unpin(page_id)

            return later
    """
    assert "RPR003" in codes_for(snippet)


def test_rpr003_exempts_tests():
    assert codes_for(BAD_PIN, "tests/rtree/test_pins.py") == []


# --------------------------------------------------------------------- #
# RPR004: I/O or phase entry outside the engine's jurisdiction
# --------------------------------------------------------------------- #

BAD_PHASE = """
    from repro.metrics import Phase

    def run(metrics):
        with metrics.phase(Phase.MATCH):
            pass
"""


def test_rpr004_fires_on_phase_entry_outside_engine():
    assert codes_for(BAD_PHASE) == ["RPR004"]


def test_rpr004_allows_phase_entry_in_engine():
    assert codes_for(BAD_PHASE, "src/repro/join/engine.py") == []


def test_rpr004_allows_phase_entry_in_workspace():
    assert codes_for(BAD_PHASE, "src/repro/workspace.py") == []


def test_rpr004_fires_on_module_level_io():
    snippet = """
        PAGES = buffer.fetch(0)
    """
    assert codes_for(snippet) == ["RPR004"]


def test_rpr004_silent_on_function_level_io():
    snippet = """
        def load(buffer):
            return buffer.fetch(0)
    """
    assert codes_for(snippet) == []


# --------------------------------------------------------------------- #
# RPR005: module-level mutable state
# --------------------------------------------------------------------- #

BAD_STATE = """
    _cache = {}

    def lookup(key):
        return _cache.get(key)
"""

GOOD_STATE = """
    _DEFAULTS = ("a", "b")

    def lookup(key, cache):
        return cache.get(key)
"""


def test_rpr005_fires_on_module_level_dict():
    assert codes_for(BAD_STATE) == ["RPR005"]


def test_rpr005_silent_on_immutable_constants():
    assert codes_for(GOOD_STATE) == []


def test_rpr005_fires_on_global_statement():
    snippet = """
        counter = 0

        def bump():
            global counter
            counter += 1
    """
    assert "RPR005" in codes_for(snippet)


def test_rpr005_allows_all_caps_registry():
    # ALL_CAPS module registries (rule tables, flavour maps) are the
    # sanctioned pattern: written once at import, never per-run.
    snippet = """
        RULES = {}

        def register(cls):
            RULES[cls.code] = cls
            return cls
    """
    assert codes_for(snippet) == []


def test_rpr005_exempts_tests():
    assert codes_for(BAD_STATE, "tests/join/test_cache.py") == []


# --------------------------------------------------------------------- #
# RPR006: raw float equality on rectangle coordinates
# --------------------------------------------------------------------- #

BAD_EQ = """
    def touches(a, b):
        return a.xhi == b.xlo
"""

GOOD_EQ = """
    from repro.geometry import feq

    def touches(a, b):
        return feq(a.xhi, b.xlo)
"""


def test_rpr006_fires_on_raw_coordinate_equality():
    assert codes_for(BAD_EQ) == ["RPR006"]


def test_rpr006_silent_on_feq():
    assert codes_for(GOOD_EQ) == []


def test_rpr006_exempts_geometry_package():
    assert codes_for(BAD_EQ, "src/repro/geometry/rect.py") == []


def test_rpr006_ignores_non_coordinate_attributes():
    snippet = """
        def same_page(a, b):
            return a.page_id == b.page_id
    """
    assert codes_for(snippet) == []


# --------------------------------------------------------------------- #
# RPR008: writes to shared/attached column views
# --------------------------------------------------------------------- #

BAD_COLUMN_WRITE = """
    def nudge(columns, i, dx):
        columns.xlo[i] += dx
"""

GOOD_COLUMN_WRITE = """
    def nudge(columns, i, dx):
        return columns.patch_row(i, shifted(columns.rect_at(i), dx))
"""


def test_rpr008_fires_on_column_subscript_store():
    assert codes_for(BAD_COLUMN_WRITE) == ["RPR008"]


def test_rpr008_fires_on_values_store():
    snippet = """
        def renumber(descriptor, i, oid):
            segment = SharedSegment.attach(descriptor)
            try:
                segment.values[i] = oid
            finally:
                segment.close()
    """
    assert codes_for(snippet) == ["RPR008"]


def test_rpr008_silent_on_patch_row():
    assert codes_for(GOOD_COLUMN_WRITE) == []


def test_rpr008_silent_on_local_subscript_store():
    # Writing through a bare local (the owner's memoryview during
    # create) carries no attribute chain and stays legal.
    snippet = """
        def fill(mv, coords):
            for i, x in enumerate(coords):
                mv[i] = x
    """
    assert codes_for(snippet) == []


def test_rpr008_fires_on_writeable_reenable():
    snippet = """
        def unseal(arr):
            arr.flags.writeable = True
    """
    assert codes_for(snippet) == ["RPR008"]


def test_rpr008_silent_on_writeable_clear():
    snippet = """
        def seal(arr):
            arr.flags.writeable = False
    """
    assert codes_for(snippet) == []


def test_rpr008_exempts_owning_modules_and_tests():
    assert codes_for(BAD_COLUMN_WRITE, "src/repro/parallel/shm.py") == []
    assert codes_for(BAD_COLUMN_WRITE, "tests/parallel/test_pool.py") == []
    # RectArray creates no segment, so its module is not an owner.
    assert codes_for(
        BAD_COLUMN_WRITE, "src/repro/kernels/rect_array.py"
    ) == ["RPR008"]


# --------------------------------------------------------------------- #
# RPR003 (flow-sensitive): custody transfer and blanket finallys
# --------------------------------------------------------------------- #

CUSTODY_PIN = """
    def find_leaf_path(tree, rect, oid, pinned):
        node = tree.read_node(tree.root_id, pin=True)
        pinned.append(node.page_id)

        def descend(node):
            child = tree.read_node(node.ref, pin=True)
            pinned.append(node.ref)
            found = descend(child)
            if found:
                return found
            pinned.pop()
            tree.buffer.unpin(node.ref)
            return None

        return descend(node)
"""

BLANKET_PIN = """
    def delete(self, rect, oid):
        pinned = []
        try:
            self._find_leaf_path(rect, oid, pinned)
            if not pinned:
                return False
            return True
        finally:
            for pid in pinned:
                self.buffer.unpin(pid)
"""

DOUBLE_PIN = """
    def match(self, page_a, page_b):
        node_a = self.buffer.fetch(page_a, pin=True)
        node_b = self.buffer.fetch(page_b, pin=True)
        try:
            return node_a, node_b
        finally:
            self.buffer.unpin(page_a)
            self.buffer.unpin(page_b)
"""

NESTED_PIN = """
    def match(self, page_a, page_b):
        node_a = self.buffer.fetch(page_a, pin=True)
        try:
            node_b = self.buffer.fetch(page_b, pin=True)
            try:
                return node_a, node_b
            finally:
                self.buffer.unpin(page_b)
        finally:
            self.buffer.unpin(page_a)
"""


def test_rpr003_custody_transfer_to_caller_param_is_silent():
    # The find_leaf_path shape the PR 8 suppressions papered over: the
    # rewrite must understand it without any directive.
    assert codes_for(CUSTODY_PIN) == []


def test_rpr003_blanket_finally_release_is_silent():
    assert codes_for(BLANKET_PIN) == []


def test_rpr003_fires_on_second_pin_before_try():
    # The double-pin-before-try shape: the first pin leaks if the
    # second fetch faults.
    assert codes_for(DOUBLE_PIN) == ["RPR003"]


def test_rpr003_silent_on_nested_try_per_pin():
    assert codes_for(NESTED_PIN) == []


def test_rpr003_fires_on_loop_carried_leak():
    snippet = """
        def sweep(self, pages):
            for page_id in pages:
                node = self.buffer.fetch(page_id, pin=True)
                if node.is_leaf:
                    continue
                self.buffer.unpin(page_id)
    """
    assert "RPR003" in codes_for(snippet)


def test_rpr003_loop_carried_release_is_silent():
    snippet = """
        def sweep(self, pages):
            for page_id in pages:
                node = self.buffer.fetch(page_id, pin=True)
                try:
                    node.touch()
                finally:
                    self.buffer.unpin(page_id)
    """
    assert codes_for(snippet) == []


# --------------------------------------------------------------------- #
# RPR009: lock-order lattice
# --------------------------------------------------------------------- #

BAD_LOCK_ORDER = """
    class ServiceMetrics:
        def report(self, registry):
            with self._lock:
                with registry._lock:
                    return registry.size()
"""

GOOD_LOCK_ORDER = """
    class ServiceMetrics:
        def report(self, registry):
            with registry._lock:
                size = registry.size()
            with self._lock:
                return size
"""


def test_rpr009_fires_on_lattice_inversion():
    assert codes_for(BAD_LOCK_ORDER, "src/repro/service/example.py") == [
        "RPR009"
    ]


def test_rpr009_silent_on_sequential_lattice_order():
    assert codes_for(GOOD_LOCK_ORDER, "src/repro/service/example.py") == []


def test_rpr009_allows_forward_nesting():
    snippet = """
        class WorkspaceRegistry:
            def serve(self, session):
                with self._lock:
                    with session.lock:
                        return session.run()
    """
    assert codes_for(snippet, "src/repro/service/example.py") == []


def test_rpr009_fires_on_manual_acquire_without_release_path():
    snippet = """
        class WorkerPool:
            def dispatch(self, job):
                self._lock.acquire()
                if job.empty():
                    return None
                self._lock.release()
                return job
    """
    assert "RPR009" in codes_for(snippet, "src/repro/parallel/example.py")


def test_rpr009_silent_on_manual_acquire_with_finally():
    snippet = """
        class WorkerPool:
            def dispatch(self, job):
                self._lock.acquire()
                try:
                    return job.run()
                finally:
                    self._lock.release()
    """
    assert codes_for(snippet, "src/repro/parallel/example.py") == []


def test_rpr009_sees_inversion_through_helper_summary():
    snippet = """
        def _publish(pool, item):
            with pool._lock:
                pool.push(item)


        class ServiceMetrics:
            def record(self, pool, item):
                with self._lock:
                    _publish(pool, item)
    """
    assert "RPR009" in codes_for(snippet, "src/repro/service/example.py")


def test_rpr009_ignores_unclassified_locks():
    snippet = """
        class _Ticket:
            def resolve(self, response):
                with self._lock:
                    self.value = response
    """
    assert codes_for(snippet, "src/repro/service/example.py") == []


# --------------------------------------------------------------------- #
# RPR010: shared-segment lifecycle
# --------------------------------------------------------------------- #

BAD_SEGMENT_LEAK = """
    from multiprocessing.shared_memory import SharedMemory

    def build(nbytes):
        seg = SharedMemory(create=True, size=nbytes)
        seg.buf[:4] = b"demo"
        seg.close()
"""

GOOD_SEGMENT_FULL_LIFECYCLE = """
    from multiprocessing.shared_memory import SharedMemory

    def build(nbytes):
        seg = SharedMemory(create=True, size=nbytes)
        try:
            seg.buf[:4] = b"demo"
        finally:
            seg.close()
            seg.unlink()
"""


def test_rpr010_fires_on_created_segment_without_unlink():
    assert codes_for(
        BAD_SEGMENT_LEAK, "src/repro/parallel/example.py"
    ) == ["RPR010"]
    snippet = """
        import numpy as np
        from repro.parallel.shm import SharedSegment

        def total(oids):
            seg = SharedSegment.create(oids, np.int64)
            value = int(seg.values.sum())
            seg.close()
            return value
    """
    assert codes_for(snippet, "src/repro/parallel/example.py") == ["RPR010"]


def test_rpr010_silent_on_full_lifecycle():
    assert codes_for(
        GOOD_SEGMENT_FULL_LIFECYCLE, "src/repro/parallel/example.py"
    ) == []


def test_rpr010_fires_on_attached_segment_without_close():
    snippet = """
        from multiprocessing.shared_memory import SharedMemory

        def read(name):
            seg = SharedMemory(name=name)
            return bytes(seg.buf[:4])
    """
    assert "RPR010" in codes_for(snippet, "src/repro/parallel/example.py")


def test_rpr010_fires_on_attacher_unlink():
    snippet = """
        from multiprocessing.shared_memory import SharedMemory

        def teardown(name):
            seg = SharedMemory(name=name)
            seg.close()
            seg.unlink()
    """
    assert "RPR010" in codes_for(snippet, "src/repro/parallel/example.py")
    snippet = """
        from repro.parallel.shm import SharedSegment

        def teardown(descriptor):
            seg = SharedSegment.attach(descriptor)
            seg.close()
            seg.unlink()
    """
    assert "RPR010" in codes_for(snippet, "src/repro/parallel/example.py")


def test_rpr010_escape_transfers_the_obligation():
    snippet = """
        from multiprocessing.shared_memory import SharedMemory

        def build(nbytes, registry):
            seg = SharedMemory(create=True, size=nbytes)
            registry.adopt(seg)
    """
    assert codes_for(snippet, "src/repro/parallel/example.py") == []
    snippet = """
        import numpy as np
        from repro.parallel.shm import SharedSegment

        def publish(oids, registry):
            seg = SharedSegment.create(oids, np.int64)
            registry.adopt(seg)
    """
    assert codes_for(snippet, "src/repro/parallel/example.py") == []


def test_rpr010_raise_paths_are_exempt():
    snippet = """
        from multiprocessing.shared_memory import SharedMemory

        def build(nbytes):
            seg = SharedMemory(create=True, size=nbytes)
            if nbytes > 1 << 30:
                raise ValueError("too big")
            return seg
    """
    assert codes_for(snippet, "src/repro/parallel/example.py") == []


# --------------------------------------------------------------------- #
# RPR011: blocking calls in service coroutines
# --------------------------------------------------------------------- #

BAD_ASYNC_SLEEP = """
    import time

    async def watchdog(self):
        time.sleep(1.0)
"""

GOOD_ASYNC_SLEEP = """
    import asyncio

    async def watchdog(self):
        await asyncio.sleep(1.0)
"""

SERVICE = "src/repro/service/example.py"


def test_rpr011_fires_on_time_sleep_in_coroutine():
    assert codes_for(BAD_ASYNC_SLEEP, SERVICE) == ["RPR011"]


def test_rpr011_silent_on_awaited_sleep():
    assert codes_for(GOOD_ASYNC_SLEEP, SERVICE) == []


def test_rpr011_only_applies_to_service_paths():
    assert codes_for(BAD_ASYNC_SLEEP, "src/repro/join/example.py") == []


def test_rpr011_fires_on_executor_shutdown_inline():
    snippet = """
        async def stop(self):
            self._executor.shutdown(wait=True)
    """
    assert codes_for(snippet, SERVICE) == ["RPR011"]


def test_rpr011_silent_on_executor_hop():
    snippet = """
        import asyncio
        import functools

        async def stop(self):
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None, functools.partial(self._executor.shutdown, wait=True)
            )
    """
    assert codes_for(snippet, SERVICE) == []


def test_rpr011_nowait_shutdown_is_exempt():
    snippet = """
        async def stop(self):
            self._executor.shutdown(wait=False)
    """
    assert codes_for(snippet, SERVICE) == []


def test_rpr011_fires_on_sync_lattice_lock_in_coroutine():
    snippet = """
        async def record(self, session):
            with session.lock:
                session.touch()
    """
    assert codes_for(snippet, SERVICE) == ["RPR011"]


def test_rpr011_fires_on_accounted_io_in_coroutine():
    snippet = """
        async def peek(self, page_id):
            return self.buffer.fetch(page_id)
    """
    assert codes_for(snippet, SERVICE) == ["RPR011"]


def test_rpr011_sync_helpers_inside_service_are_exempt():
    snippet = """
        def helper(buffer, page_id):
            return buffer.fetch(page_id)
    """
    assert codes_for(snippet, SERVICE) == []
