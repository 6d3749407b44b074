"""Tests for z-files and the z-order merge join."""

import pytest
from hypothesis import given, settings

from repro.config import SystemConfig
from repro.join import naive_join
from repro.join.zjoin import z_order_join
from repro.metrics import MetricsCollector, Phase
from repro.storage import DataFile, DiskSimulator
from repro.zorder import ZFile

from ..conftest import random_entries
from ..strategies import entry_lists

CFG = SystemConfig(page_size=512, buffer_pages=128)


def make_disk():
    metrics = MetricsCollector(CFG)
    return DiskSimulator(metrics), metrics


class TestZFileBuild:
    def test_entries_sorted(self):
        disk, _ = make_disk()
        zf = ZFile.build(disk, CFG, random_entries(100, seed=1))
        keys = [(e.element.zlo, -e.element.zhi) for e in zf.scan()]
        assert keys == sorted(keys)

    def test_redundancy_grows_with_budget(self):
        entries = random_entries(100, seed=2, side=0.1)
        disk, _ = make_disk()
        low = ZFile.build(disk, CFG, entries, max_elements=1)
        high = ZFile.build(disk, CFG, entries, max_elements=16)
        assert low.redundancy == 1.0
        assert high.redundancy > low.redundancy
        assert high.num_pages >= low.num_pages

    def test_empty(self):
        disk, _ = make_disk()
        zf = ZFile.build(disk, CFG, [])
        assert zf.num_entries == 0
        assert list(zf.scan()) == []

    def test_write_is_sequential(self):
        disk, metrics = make_disk()
        with metrics.phase(Phase.CONSTRUCT):
            zf = ZFile.build(disk, CFG, random_entries(200, seed=3))
        io = metrics.io_for(Phase.CONSTRUCT)
        assert io.random_writes == 1
        assert io.sequential_writes == zf.num_pages - 1

    def test_scan_is_sequential(self):
        disk, metrics = make_disk()
        zf = ZFile.build(disk, CFG, random_entries(200, seed=4))
        disk.reset_arm()
        with metrics.phase(Phase.MATCH):
            list(zf.scan())
        io = metrics.io_for(Phase.MATCH)
        assert io.random_reads == 1
        assert io.sequential_reads == zf.num_pages - 1

    def test_page_capacity(self):
        assert ZFile.page_capacity(CFG) == (512 - 24) // 28

    def test_repr(self):
        disk, _ = make_disk()
        zf = ZFile.build(disk, CFG, random_entries(5, seed=5), name="Z")
        assert "Z" in repr(zf)


@pytest.mark.parametrize("budget", [1, 4, 16])
def test_build_paths_write_identical_pages(budget, monkeypatch):
    """The batch build and the scalar build write the same entries to
    the same pages in the same order, with the same disk charges. Every
    third object is repeated under a new oid, so different objects tie
    on (zlo, zhi) and the tie order is checked too."""
    entries = random_entries(150, seed=21, side=0.1)
    entries += [(rect, oid + 10_000) for rect, oid in entries[::3]]
    legs = []
    for kernels in ("1", "0"):
        monkeypatch.setenv("REPRO_KERNELS", kernels)
        disk, metrics = make_disk()
        with metrics.phase(Phase.CONSTRUCT):
            zf = ZFile.build(disk, CFG, iter(entries), max_elements=budget)
        pages = [
            disk.peek(page_id).payload.entries
            for page_id in range(zf.first_page_id,
                                 zf.first_page_id + zf.num_pages)
        ]
        legs.append((
            (zf.first_page_id, zf.num_pages, zf.num_entries, zf.num_objects),
            pages, metrics.io_for(Phase.CONSTRUCT), metrics.summary(),
        ))
    fast, scalar = legs
    assert fast == scalar
    flat = [entry for page in fast[1] for entry in page]
    ties = [
        (a.oid, b.oid) for a, b in zip(flat, flat[1:])
        if a.element == b.element
    ]
    assert ties and all(a < b for a, b in ties), "ties must keep input order"


def run_zjoin(s_entries, r_entries, max_elements=4):
    disk, metrics = make_disk()
    with metrics.phase(Phase.SETUP):
        zfile_r = ZFile.build(disk, CFG, r_entries, name="Z_R",
                              max_elements=max_elements)
        file_s = DataFile.create(disk, CFG, s_entries, name="D_S")
    disk.reset_arm()
    result = z_order_join(file_s, zfile_r, CFG, metrics,
                          max_elements=max_elements)
    return result, metrics


class TestZOrderJoin:
    def test_matches_naive(self):
        s = random_entries(150, seed=6)
        r = random_entries(200, seed=7, oid_start=10_000)
        result, _ = run_zjoin(s, r)
        assert result.pair_set() == naive_join(s, r).pair_set()

    def test_orientation(self):
        from repro.geometry import Rect
        s = [(Rect(0.1, 0.1, 0.2, 0.2), 7)]
        r = [(Rect(0.15, 0.15, 0.3, 0.3), 9)]
        result, _ = run_zjoin(s, r)
        assert result.pairs == [(7, 9)]

    def test_empty_sides(self):
        r = random_entries(30, seed=8)
        result, _ = run_zjoin([], r)
        assert result.pairs == []
        result, _ = run_zjoin(r, [])
        assert result.pairs == []

    @pytest.mark.parametrize("budget", [1, 4, 16])
    def test_correct_at_any_redundancy(self, budget):
        s = random_entries(120, seed=9, side=0.08)
        r = random_entries(120, seed=10, side=0.08, oid_start=10_000)
        result, _ = run_zjoin(s, r, max_elements=budget)
        assert result.pair_set() == naive_join(s, r).pair_set()

    def test_costs_charged_per_phase(self):
        s = random_entries(200, seed=11)
        r = random_entries(300, seed=12, oid_start=10_000)
        result, metrics = run_zjoin(s, r)
        summary = metrics.summary()
        assert summary.construct_read > 0   # D_S scan
        assert summary.construct_write > 0  # Z_S write
        assert summary.match_read > 0       # two merge sweeps
        assert summary.bbox_tests > 0       # exact tests
        # The merge is purely sequential: no random reads beyond the
        # first page of each of the three sweeps involved.
        match_io = metrics.io_for(Phase.MATCH)
        assert match_io.random_reads <= 2

    def test_duplicate_pairs_deduplicated(self):
        from repro.geometry import Rect
        # Large overlapping rects decomposed into many elements meet
        # through many element pairs but must be reported once.
        s = [(Rect(0.1, 0.1, 0.9, 0.9), 1)]
        r = [(Rect(0.2, 0.2, 0.8, 0.8), 2)]
        result, _ = run_zjoin(s, r, max_elements=16)
        assert result.pairs == [(1, 2)]


@settings(max_examples=20, deadline=None)
@given(entry_lists(min_size=1, max_size=25),
       entry_lists(min_size=1, max_size=25))
def test_zjoin_equals_naive(s_entries, r_entries):
    r_entries = [(rect, oid + 10_000) for rect, oid in r_entries]
    result, _ = run_zjoin(s_entries, r_entries)
    assert result.pair_set() == naive_join(s_entries, r_entries).pair_set()
