"""Tests for z-files and the z-order merge join."""

from unittest import mock

import pytest
from hypothesis import given, settings

from repro.config import SystemConfig
from repro.errors import PageNotFoundError, SimulatedCrashError
from repro.join import naive_join, spatial_join
from repro.join.api import _snapshot_objects
from repro.join.batch import snapshot_record
from repro.join.zjoin import z_order_join
from repro.metrics import MetricsCollector, Phase
from repro.storage import DataFile, DiskSimulator, FaultInjector, FaultPlan
from repro.workspace import Workspace
from repro.zorder import ZFile
from repro.zorder.zfile import ObjectColumns, ZRun, ZSlice

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


# --------------------------------------------------------------------- #
# Pages as slices of one run
# --------------------------------------------------------------------- #

def _built(fast: bool, entries=None, budget: int = 4):
    disk, metrics = make_disk()
    entries = random_entries(300, seed=51, side=0.08) if entries is None \
        else entries
    zf = ZFile.build(disk, CFG, entries, max_elements=budget, fast=fast)
    return disk, metrics, zf


def _rows(run: ZRun) -> list:
    return run.entries


@pytest.mark.parametrize("fast", (True, False))
def test_read_columns_equals_scan(fast):
    """Both build paths page one run; reading the file's own pages hands
    that run back without a concat, charged exactly as a scan."""
    disk, metrics, zf = _built(fast)
    pages = [disk.peek(page_id).payload for page_id in
             range(zf.first_page_id, zf.first_page_id + zf.num_pages)]
    assert all(isinstance(page, ZSlice) for page in pages)
    assert len({id(page.run) for page in pages}) == 1
    disk.reset_arm()
    with metrics.phase(Phase.MATCH):
        scanned = list(zf.scan())
    disk.reset_arm()
    with metrics.phase(Phase.CONSTRUCT), \
            mock.patch.object(ZRun, "concat", side_effect=AssertionError):
        columns = zf.read_columns()
    assert _rows(columns) == scanned
    assert metrics.io_for(Phase.MATCH) == metrics.io_for(Phase.CONSTRUCT)
    assert metrics.io_for(Phase.MATCH).sequential_reads == zf.num_pages - 1


def test_read_columns_of_foreign_pages_concatenates():
    """A page image that is not a slice of the file's run (here: one
    rewritten with a copy of its rows) is read row for row."""
    disk, _, zf = _built(True)
    page = disk.peek(zf.first_page_id + 1)
    copy = ZRun.concat([page.payload.columns()])
    page.payload = ZSlice(copy, 0, len(copy))
    assert _rows(zf.read_columns()) == list(zf.scan())


def test_read_of_a_freed_page_raises():
    disk, _, zf = _built(True)
    disk.free([zf.first_page_id + 2])
    with pytest.raises(PageNotFoundError, match="was freed"):
        zf.read_columns()
    with pytest.raises(PageNotFoundError, match="was freed"):
        list(zf.scan())


@pytest.mark.parametrize("read", ("columns", "scan"))
def test_faulted_read_charges_then_fails(read):
    """A crash on the fourth access fails the sweep after four charged
    reads, whichever way the file is read."""
    metrics = MetricsCollector(CFG)
    injector = FaultInjector(FaultPlan(crash_after_ops=4), seed=3)
    disk = DiskSimulator(metrics, injector=injector)
    zf = ZFile.build(disk, CFG, random_entries(300, seed=52), fast=True)
    disk.reset_arm()
    injector.arm()
    with metrics.phase(Phase.MATCH), pytest.raises(SimulatedCrashError):
        if read == "columns":
            zf.read_columns()
        else:
            list(zf.scan())
    io = metrics.io_for(Phase.MATCH)
    assert (io.random_reads, io.sequential_reads) == (1, 3)


# --------------------------------------------------------------------- #
# Z_R from T_R's snapshot
# --------------------------------------------------------------------- #

def _z_file(entries, fast: bool = True):
    """One z-file on a fresh disk: shape, page images, write charges."""
    disk, metrics = make_disk()
    with metrics.phase(Phase.CONSTRUCT):
        zf = ZFile.build(disk, CFG, entries, fast=fast)
    pages = [disk.peek(page_id).payload.entries for page_id in
             range(zf.first_page_id, zf.first_page_id + zf.num_pages)]
    return ((zf.num_pages, zf.num_entries, zf.num_objects), pages,
            metrics.io_for(Phase.CONSTRUCT))


def _installed(entries):
    ws = Workspace(CFG)
    return ws, ws.install_rtree(entries)


def test_z_r_from_carried_snapshot(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "1")
    _, tree = _installed(random_entries(600, seed=61, side=0.04))
    assert snapshot_record(tree).carried
    columns = _snapshot_objects(tree)
    assert isinstance(columns, ObjectColumns)
    want = _z_file(tree.all_objects())
    assert _z_file(columns) == want
    assert _z_file(tree.all_objects(), fast=False) == want
    assert _z_file(columns, fast=False) == want


def test_z_r_from_assembled_snapshot(monkeypatch):
    """After writes past set-up the snapshot is reassembled from the
    carried one, and still lifts the objects in all_objects() order."""
    monkeypatch.setenv("REPRO_KERNELS", "1")
    entries = random_entries(600, seed=62, side=0.04)
    _, tree = _installed(entries)
    for rect, oid in random_entries(3, seed=63, side=0.04,
                                    oid_start=5_000):
        tree.insert(rect, oid)
    for rect, oid in entries[::250]:
        assert tree.delete(rect, oid)
    columns = _snapshot_objects(tree)
    record = snapshot_record(tree)
    assert not record.carried and 0 < record.reread < record.nodes
    assert _z_file(columns) == _z_file(tree.all_objects())


def test_z_r_beyond_int64_lifts_all_objects(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "1")
    _, tree = _installed(random_entries(300, seed=64, oid_start=2**63))
    assert _snapshot_objects(tree) is None


@pytest.mark.parametrize("oid_start, lifted", ((0, ObjectColumns),
                                               (2**63, list)))
def test_zjoin_prepares_z_r_from_the_snapshot(oid_start, lifted,
                                              monkeypatch):
    """The join's prepare phase hands ZFile.build the snapshot's columns
    on the fast path, ``all_objects()`` when there is no snapshot; the
    pairs and costs equal the scalar path's either way."""
    d_r = random_entries(400, seed=65, side=0.05, oid_start=oid_start)
    d_s = random_entries(200, seed=66, side=0.05, oid_start=10**6)
    build = ZFile.build.__func__
    seen: list = []

    def spy(cls, disk, config, entries, *args, **kwargs):
        seen.append((kwargs.get("name"), type(entries)))
        return build(cls, disk, config, entries, *args, **kwargs)

    legs = []
    for kernels in ("1", "0"):
        monkeypatch.setenv("REPRO_KERNELS", kernels)
        seen.clear()
        ws, tree = _installed(d_r)
        file_s = ws.install_datafile(d_s)
        ws.start_measurement()
        with mock.patch.object(ZFile, "build", classmethod(spy)):
            result = spatial_join(file_s, tree, ws.buffer, ws.config,
                                  ws.metrics, method="ZJOIN")
        legs.append((result.pairs, ws.metrics.summary(),
                     ws.buffer.stats.hits, ws.buffer.stats.misses))
        z_r = [kind for name, kind in seen if name == "Z_R"]
        assert z_r == [lifted if kernels == "1" else list]
    assert legs[0] == legs[1]
