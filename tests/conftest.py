"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
import sys
from collections import Counter
from typing import Any, Callable

import pytest

from repro.config import SystemConfig
from repro.geometry import Rect
from repro.metrics import MetricsCollector
from repro.storage import BufferPool, DiskSimulator


@pytest.fixture
def config() -> SystemConfig:
    """A mid-size physical design: fan-out 24, 64-page buffer."""
    return SystemConfig(page_size=512, buffer_pages=64)


@pytest.fixture
def cap4_config() -> SystemConfig:
    """A micro design (fan-out 4) that forces splits with few inserts."""
    return SystemConfig(page_size=104, buffer_pages=64)


@pytest.fixture
def metrics(config) -> MetricsCollector:
    return MetricsCollector(config)


@pytest.fixture
def disk(metrics) -> DiskSimulator:
    return DiskSimulator(metrics)


@pytest.fixture
def buffer(disk, config) -> BufferPool:
    return BufferPool(config.buffer_pages, disk)


def random_rects(n: int, seed: int = 0, side: float = 0.05) -> list[Rect]:
    """Deterministic random rectangles in the unit square."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        cx, cy = rng.random(), rng.random()
        w, h = rng.random() * side, rng.random() * side
        r = Rect.from_center(cx, cy, w, h).clipped_to(Rect(0, 0, 1, 1))
        assert r is not None
        out.append(r)
    return out


def random_entries(
    n: int, seed: int = 0, side: float = 0.05, oid_start: int = 0
) -> list[tuple[Rect, int]]:
    return [
        (r, oid_start + i) for i, r in enumerate(random_rects(n, seed, side))
    ]


def _counting(fn: Callable, counts: Counter) -> Callable:
    def counted(*args: Any, **kwargs: Any) -> Any:
        counts[fn.__name__] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.fixture
def count_calls(monkeypatch):
    """Count calls of library functions without changing what they do.

    ``count_calls(fn, ...)`` rebinds every ``repro.*`` module attribute
    that holds ``fn`` — the names its callers look up — to a counting
    wrapper, and returns the :class:`~collections.Counter` (keyed by
    function name) that keeps counting until the test ends. Differential
    legs use it to prove which execution path they actually ran.
    """
    counts: Counter = Counter()

    def install(*fns: Callable) -> Counter:
        for fn in fns:
            counted = _counting(fn, counts)
            for name, module in list(sys.modules.items()):
                if module is None or name.split(".")[0] != "repro":
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
        return counts

    return install
