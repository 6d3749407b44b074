"""Bit-parity of the batch kernels against the scalar reference paths.

Every kernel's contract is *exact* agreement with the scalar code it
replaces — same results, same emission order, same counter deltas — on
both backends. The strategies draw coordinates from the shared 1/1024
grid, which makes ties, duplicates, touching edges, and zero-area
rectangles common rather than rare, exactly the inputs where an
"analytically equivalent" rewrite goes wrong.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.errors import GeometryError
from repro.geometry import Rect, union_all
from repro.geometry.sweep import brute_force_pairs, sweep_pairs
from repro.kernels import (
    NUMPY_MIN_N,
    RectArray,
    all_points,
    clipped_area_total,
    intersect_indices,
    least_enlargement_index,
    mbr_of,
    min_center_distance_index,
    quadratic_split_indices,
    sweep_pairs_batch,
)
from repro.metrics.counters import CpuCounters
from repro.rtree.insertion import choose_subtree
from repro.rtree.node import Entry, Node
from repro.rtree.split import check_split, quadratic_split
from repro.seeded.tree import SeededTree
from repro.workspace import Workspace

from ..strategies import rect_lists, rects

BACKENDS = ("numpy", "python")

backend_param = pytest.mark.parametrize("backend", BACKENDS)

SMALL = SystemConfig(page_size=512, buffer_pages=16)


def arr_of(rs, backend):
    return RectArray.from_rects(rs, backend=backend)


# --------------------------------------------------------------------- #
# sweep_pairs_batch
# --------------------------------------------------------------------- #


class TestSweepBatch:
    @backend_param
    @settings(max_examples=200, deadline=None)
    @given(a=rect_lists(max_size=30), b=rect_lists(max_size=30))
    def test_matches_scalar_sweep_order_and_counters(self, a, b, backend):
        """Same pairs, same order, same xy_tests as the scalar sweep."""
        scalar_counters = CpuCounters()
        scalar = sweep_pairs(
            list(enumerate(a)), list(enumerate(b)),
            rect_of=lambda t: t[1], counters=scalar_counters,
        )
        scalar_idx = [(ia, ib) for (ia, _), (ib, _) in scalar]

        batch_counters = CpuCounters()
        batch = sweep_pairs_batch(
            arr_of(a, backend), arr_of(b, backend), counters=batch_counters
        )

        assert batch == scalar_idx
        assert batch_counters.xy_tests == scalar_counters.xy_tests

    @backend_param
    @settings(max_examples=200, deadline=None)
    @given(a=rect_lists(max_size=25), b=rect_lists(max_size=25))
    def test_matches_brute_force_pair_set(self, a, b, backend):
        batch = sweep_pairs_batch(arr_of(a, backend), arr_of(b, backend))
        brute = brute_force_pairs(
            list(enumerate(a)), list(enumerate(b)), rect_of=lambda t: t[1]
        )
        assert sorted(batch) == sorted(
            (ia, ib) for (ia, _), (ib, _) in brute
        )

    @backend_param
    def test_identical_rect_lists(self, backend):
        """Fully tied inputs: every anchor decision is a tie-break."""
        a = [Rect(0.0, 0.0, 1.0, 1.0)] * 7
        b = [Rect(0.0, 0.0, 1.0, 1.0)] * 5
        sc, bc = CpuCounters(), CpuCounters()
        scalar = sweep_pairs(
            list(enumerate(a)), list(enumerate(b)),
            rect_of=lambda t: t[1], counters=sc,
        )
        batch = sweep_pairs_batch(
            arr_of(a, backend), arr_of(b, backend), counters=bc
        )
        assert batch == [(ia, ib) for (ia, _), (ib, _) in scalar]
        assert bc.xy_tests == sc.xy_tests

    @backend_param
    def test_empty_inputs_touch_no_counters(self, backend):
        counters = CpuCounters()
        assert sweep_pairs_batch(
            arr_of([], backend), arr_of([Rect(0, 0, 1, 1)], backend),
            counters=counters,
        ) == []
        assert sweep_pairs_batch(
            arr_of([Rect(0, 0, 1, 1)], backend), arr_of([], backend),
            counters=counters,
        ) == []
        assert counters.xy_tests == 0

    @backend_param
    def test_emits_python_ints(self, backend):
        pairs = sweep_pairs_batch(
            arr_of([Rect(0, 0, 1, 1)], backend),
            arr_of([Rect(0, 0, 1, 1)], backend),
        )
        assert pairs == [(0, 0)]
        assert type(pairs[0][0]) is int and type(pairs[0][1]) is int

    @settings(max_examples=100, deadline=None)
    @given(a=rect_lists(max_size=20), b=rect_lists(max_size=20))
    def test_backends_agree(self, a, b):
        ca, cb = CpuCounters(), CpuCounters()
        out_np = sweep_pairs_batch(
            arr_of(a, "numpy"), arr_of(b, "numpy"), counters=ca
        )
        out_py = sweep_pairs_batch(
            arr_of(a, "python"), arr_of(b, "python"), counters=cb
        )
        assert out_np == out_py
        assert ca.xy_tests == cb.xy_tests


# --------------------------------------------------------------------- #
# Scan kernels
# --------------------------------------------------------------------- #


class TestScanKernels:
    @backend_param
    @settings(max_examples=150, deadline=None)
    @given(rs=rect_lists(max_size=40), probe=rects())
    def test_intersect_indices(self, rs, probe, backend):
        got = list(intersect_indices(arr_of(rs, backend), probe))
        want = [i for i, r in enumerate(rs) if r.intersects(probe)]
        assert got == want

    @backend_param
    @settings(max_examples=150, deadline=None)
    @given(rs=rect_lists(min_size=1, max_size=40))
    def test_mbr_of(self, rs, backend):
        assert mbr_of(arr_of(rs, backend)) == union_all(rs)

    @backend_param
    def test_mbr_of_empty_raises(self, backend):
        with pytest.raises(GeometryError):
            mbr_of(arr_of([], backend))

    @backend_param
    @settings(max_examples=150, deadline=None)
    @given(rs=rect_lists(min_size=1, max_size=40), probe=rects())
    def test_least_enlargement_index(self, rs, probe, backend):
        """Same winner as the scalar first-minimum/area-tie-break loop."""
        best_idx = 0
        best_enl = float("inf")
        best_area = float("inf")
        for i, r in enumerate(rs):
            enl = r.enlargement(probe)
            if enl < best_enl:
                best_idx, best_enl, best_area = i, enl, r.area()
            elif enl == best_enl:
                area = r.area()
                if area < best_area:
                    best_idx, best_area = i, area
        assert least_enlargement_index(arr_of(rs, backend), probe) == best_idx

    @backend_param
    def test_least_enlargement_tie_breaks_to_first(self, backend):
        """Equal enlargement and equal area: first index wins, as in the
        scalar loop."""
        rs = [Rect(0, 0, 1, 1), Rect(2, 0, 3, 1), Rect(0, 2, 1, 3)]
        probe = Rect(0.25, 0.25, 0.75, 0.75)
        assert least_enlargement_index(arr_of(rs, backend), probe) == 0

    @pytest.mark.parametrize("n", (8, NUMPY_MIN_N + 6))
    @pytest.mark.parametrize("caller", ("choose_subtree", "seed_entry"))
    def test_nan_enlargement_defers_to_scalar_loop(self, n, caller):
        """Entry 0 is 2e200 wide, so covering a 1e200-wide probe grows it
        by inf - inf = NaN. The kernel returns None on both column
        backends, and each caller then runs its own scalar loop:
        choose_subtree (starting from +inf) skips the NaN row and picks
        entry 1, the seed descent (starting from entry 0) keeps entry 0."""
        entries = [Entry(Rect(0.0, 0.0, 2e200, 2e200), 0)]
        entries += [Entry(Rect(i, i, i + 1.0, i + 1.0), i)
                    for i in range(1, n)]
        probe = Rect(0.0, 0.0, 1e200, 1e200)
        node = Node(1, entries)
        arr = RectArray.from_entries(entries)
        assert arr.is_numpy == (n >= NUMPY_MIN_N)
        assert least_enlargement_index(arr, probe) is None

        def choice(fast):
            if caller == "choose_subtree":
                return choose_subtree(
                    SimpleNamespace(fast=fast, metrics=None), node, probe)
            tree = SeededTree(Workspace(SMALL).buffer, SMALL, fast=fast)
            return tree._choose_seed_entry(node, probe)[1]

        want = 1 if caller == "choose_subtree" else 0
        assert choice(False) == want
        assert choice(True) == want

    @pytest.mark.parametrize("n", (8, 70))
    def test_nan_center_distance_defers_to_scalar_loop(self, n):
        """Point seeds, one at (1.5e308, -1.5e308), probed at
        x=1.7e308: that seed's center distance is inf - inf = NaN and
        every other one is inf. The kernel returns None on both column
        backends, and the seed descent's scalar loop keeps entry 0,
        which the per-object path (recovery, faults and deadlines keep
        it) must pick on either execution path."""
        seeds = [Rect.point(i / 128.0, i / 128.0) for i in range(n)]
        seeds[5] = Rect.point(1.5e308, -1.5e308)
        probe = Rect.point(1.7e308, 0.0)
        for backend in BACKENDS:
            assert min_center_distance_index(
                arr_of(seeds, backend), probe) is None
        node = Node(1, [Entry(r, i) for i, r in enumerate(seeds)])
        assert RectArray.from_entries(node.entries).is_numpy == (
            n >= NUMPY_MIN_N)
        for fast in (False, True):
            tree = SeededTree(Workspace(SMALL).buffer, SMALL, fast=fast)
            assert tree._choose_seed_entry(node, probe)[1] == 0

    @backend_param
    @settings(max_examples=150, deadline=None)
    @given(rs=rect_lists(min_size=1, max_size=40), probe=rects())
    def test_min_center_distance_index(self, rs, probe, backend):
        dists = [r.center_distance_sq(probe) for r in rs]
        want = dists.index(min(dists))
        assert min_center_distance_index(arr_of(rs, backend), probe) == want

    @backend_param
    def test_all_points(self, backend):
        pts = [Rect.point(0.5, 0.5), Rect.point(0.25, 1.0)]
        assert all_points(arr_of(pts, backend))
        assert not all_points(arr_of(pts + [Rect(0, 0, 0.5, 0)], backend))


# --------------------------------------------------------------------- #
# clipped_area_total
# --------------------------------------------------------------------- #


WINDOW = Rect(0.0, 0.0, 1.0, 1.0)

unit = st.integers(min_value=0, max_value=1024).map(lambda v: v / 1024.0)


class TestClippedAreaTotal:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.lists(st.tuples(unit, unit, unit, unit), min_size=1,
                      max_size=30),
        scale=st.integers(min_value=1, max_value=64).map(lambda v: v / 16.0),
    )
    def test_matches_scalar_chain(self, data, scale):
        cx = [t[0] for t in data]
        cy = [t[1] for t in data]
        w = [t[2] for t in data]
        h = [t[3] for t in data]
        got = clipped_area_total(cx, cy, w, h, scale, WINDOW)

        total = 0.0
        expected: float | None = 0.0
        for k in range(len(data)):
            clipped = Rect.from_center(
                cx[k], cy[k], w[k] * scale, h[k] * scale
            ).clipped_to(WINDOW)
            if clipped is None:
                expected = None
                break
            total += clipped.area()
        if expected is None:
            assert got is None
        else:
            assert got == total  # bit-identical, not approx

    def test_outside_window_returns_none(self):
        assert clipped_area_total(
            [5.0], [5.0], [0.1], [0.1], 1.0, WINDOW
        ) is None


# --------------------------------------------------------------------- #
# RectArray plumbing
# --------------------------------------------------------------------- #


class TestRectArray:
    @backend_param
    def test_round_trip_and_take(self, backend):
        rs = [Rect(0, 0, 1, 1), Rect(0.5, 0.25, 2, 3), Rect(1, 1, 1, 1)]
        arr = arr_of(rs, backend)
        assert len(arr) == 3
        assert [arr.rect_at(i) for i in range(3)] == rs

    def test_unknown_backend_rejected(self):
        with pytest.raises(GeometryError):
            RectArray.from_rects([], backend="fortran")

    def test_auto_backend_small_arrays_stay_python(self):
        """Without an explicit backend, node-sized arrays use list
        columns — numpy's fixed per-call overhead dominates at fanout
        sizes (the NUMPY_MIN_N heuristic)."""
        small = RectArray.from_rects([Rect(0, 0, 1, 1)] * 4)
        assert not small.is_numpy
        big = RectArray.from_rects([Rect(0, 0, 1, 1)] * NUMPY_MIN_N)
        assert big.is_numpy

    def test_explicit_backend_overrides_heuristic(self):
        assert RectArray.from_rects([Rect(0, 0, 1, 1)], backend="numpy").is_numpy
        many = [Rect(0, 0, 1, 1)] * (NUMPY_MIN_N + 8)
        assert not RectArray.from_rects(many, backend="python").is_numpy


# --------------------------------------------------------------------- #
# quadratic_split_indices
# --------------------------------------------------------------------- #


def scalar_quadratic_split(entries, min_fill):
    """Run the wired scalar path with the kernels forced off."""
    previous = os.environ.get("REPRO_KERNELS")
    os.environ["REPRO_KERNELS"] = "0"
    try:
        return quadratic_split(entries, min_fill)
    finally:
        if previous is None:
            os.environ.pop("REPRO_KERNELS", None)
        else:
            os.environ["REPRO_KERNELS"] = previous


@st.composite
def split_inputs(draw):
    rs = draw(rect_lists(min_size=2, max_size=32))
    min_fill = draw(st.integers(min_value=1, max_value=len(rs) // 2))
    return rs, min_fill


class TestQuadraticSplitParity:
    @backend_param
    @settings(max_examples=200, deadline=None)
    @given(case=split_inputs())
    def test_matches_scalar_split(self, case, backend):
        """Same seeds, same assignment order, same groups as Guttman's
        scalar loops — including the first-win tie-breaks."""
        rs, min_fill = case
        entries = [Entry(r, i) for i, r in enumerate(rs)]
        groups = quadratic_split_indices(arr_of(rs, backend), min_fill)
        assert groups is not None  # grid inputs never hit the NaN escape
        idx_a, idx_b = groups
        group_a, group_b = scalar_quadratic_split(entries, min_fill)
        assert [entries[k] for k in idx_a] == group_a
        assert [entries[k] for k in idx_b] == group_b
        check_split(entries, ([entries[k] for k in idx_a],
                              [entries[k] for k in idx_b]), min_fill)

    @backend_param
    def test_tie_storm_identical_rects(self, backend):
        """25 identical rectangles force every comparison through the
        tie chain; the kernel must walk it in the scalar order."""
        rs = [Rect(0.25, 0.25, 0.5, 0.5)] * 25
        entries = [Entry(r, i) for i, r in enumerate(rs)]
        idx_a, idx_b = quadratic_split_indices(arr_of(rs, backend), 10)
        group_a, group_b = scalar_quadratic_split(entries, 10)
        assert [e.ref for e in group_a] == [entries[k].ref for k in idx_a]
        assert [e.ref for e in group_b] == [entries[k].ref for k in idx_b]

    @backend_param
    def test_min_fill_absorption(self, backend):
        """A skewed input that trips Guttman's absorb-the-rest rule."""
        rs = [Rect(0, 0, 0.01, 0.01)] * 8 + [Rect(0.9, 0.9, 1, 1)]
        entries = [Entry(r, i) for i, r in enumerate(rs)]
        idx_a, idx_b = quadratic_split_indices(arr_of(rs, backend), 4)
        group_a, group_b = scalar_quadratic_split(entries, 4)
        assert [e.ref for e in group_a] == [entries[k].ref for k in idx_a]
        assert [e.ref for e in group_b] == [entries[k].ref for k in idx_b]
