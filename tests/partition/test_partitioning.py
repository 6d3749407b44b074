"""Property tests pinning down the grid-partitioning invariants.

The parallel executor's correctness rests on three facts about
:class:`~repro.partition.GridPartitioner`:

1. **Replication is total** — every rectangle lands in at least one
   tile, so no input object can vanish during sharding.
2. **Dedup is exact** — for any intersecting pair, exactly one tile
   both holds copies of the pair (replication) and owns it
   (reference-point rule). One owner means no duplicates; the owner
   being inside both replication sets means no losses.
3. **Tiling covers the universe** — the tiles' union is the universe
   with no gaps, including at the float-sensitive last row/column.

Hypothesis drives these over adversarial extents: zero-area
rectangles, rectangles spanning every tile, and degenerate (zero
width/height) universes.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.geometry import Rect
from repro.partition import (
    GridPartitioner,
    joint_universe,
    make_shard_descriptors,
)

from ..strategies import rects, small_rects

UNIT = Rect(0.0, 0.0, 1.0, 1.0)

grid_dims = st.tuples(
    st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7)
)

#: Rectangles including deliberately nasty ones: points (zero area),
#: thin slivers along an axis, and the full universe.
adversarial_rects = st.one_of(
    rects(),
    small_rects(),
    st.builds(lambda x, y: Rect(x, y, x, y), st.floats(0, 1), st.floats(0, 1)),
    st.builds(lambda y: Rect(0.0, y, 1.0, y), st.floats(0, 1)),
    st.just(UNIT),
)


# --------------------------------------------------------------------- #
# Grid construction
# --------------------------------------------------------------------- #


@given(grid_dims)
def test_tiling_covers_universe(dims):
    rows, cols = dims
    part = GridPartitioner(UNIT, rows, cols)
    assert len(part.tiles) == rows * cols == part.num_tiles
    # Tiles abut exactly: each row/column boundary is shared, and the
    # last tile closes on the universe edge with no float drift.
    for tile in part.tiles:
        assert tile.index == tile.row * cols + tile.col
        if tile.col == cols - 1:
            # repro-lint: disable=RPR006 -- bit-exact shared edges are the tested property
            assert tile.rect.xhi == UNIT.xhi
        else:
            right = part.tiles[tile.index + 1]
            # repro-lint: disable=RPR006 -- bit-exact shared edges are the tested property
            assert tile.rect.xhi == right.rect.xlo
        if tile.row == rows - 1:
            # repro-lint: disable=RPR006 -- bit-exact shared edges are the tested property
            assert tile.rect.yhi == UNIT.yhi
        else:
            above = part.tiles[tile.index + cols]
            # repro-lint: disable=RPR006 -- bit-exact shared edges are the tested property
            assert tile.rect.yhi == above.rect.ylo
    # Area is conserved, so there are neither gaps nor overlaps beyond
    # the shared (measure-zero) boundaries.
    total = sum(t.rect.width * t.rect.height for t in part.tiles)
    assert math.isclose(total, UNIT.width * UNIT.height, rel_tol=1e-9)


@given(st.integers(min_value=1, max_value=40))
def test_for_tile_count_reaches_target(n):
    part = GridPartitioner.for_tile_count(UNIT, n)
    assert part.num_tiles >= n
    # Near-square: never more than one extra row's worth of tiles.
    assert part.num_tiles <= n + part.cols


def test_degenerate_grids_rejected():
    with pytest.raises(ExperimentError):
        GridPartitioner(UNIT, 0, 3)
    with pytest.raises(ExperimentError):
        GridPartitioner.for_tile_count(UNIT, 0)


@given(adversarial_rects, grid_dims)
def test_degenerate_universe_collapses_axis(rect, dims):
    """A zero-width universe still tiles, owns, and replicates."""
    rows, cols = dims
    flat = Rect(0.25, 0.0, 0.25, 1.0)
    part = GridPartitioner(flat, rows, cols)
    tiles = part.tiles_for(rect)
    assert tiles
    assert all(0 <= t < part.num_tiles for t in tiles)
    assert 0 <= part.owner_of(rect.xlo, rect.ylo) < part.num_tiles


# --------------------------------------------------------------------- #
# Replication
# --------------------------------------------------------------------- #


@given(adversarial_rects, grid_dims)
def test_every_rect_lands_in_a_tile(rect, dims):
    rows, cols = dims
    part = GridPartitioner(UNIT, rows, cols)
    tiles = part.tiles_for(rect)
    assert len(tiles) >= 1
    assert len(set(tiles)) == len(tiles)
    # Replication is sound: each listed tile really touches the rect
    # (closed-boundary containment, so edge contact counts).
    for idx in tiles:
        assert part.tiles[idx].rect.intersects(rect)


@given(adversarial_rects, grid_dims)
def test_replication_is_complete(rect, dims):
    """Every tile whose *open interior* meets the rect is listed.

    (Boundary-only contact may be attributed to either neighbour — the
    clamped-floor rule picks one — so the completeness claim is about
    interiors, which is what the join needs: any point where an
    intersection can start has its owner in the replication set.)
    """
    rows, cols = dims
    part = GridPartitioner(UNIT, rows, cols)
    listed = set(part.tiles_for(rect))
    for tile in part.tiles:
        t = tile.rect
        interior_overlap = (
            min(t.xhi, rect.xhi) > max(t.xlo, rect.xlo)
            and min(t.yhi, rect.yhi) > max(t.ylo, rect.ylo)
        )
        if interior_overlap:
            assert tile.index in listed


@given(adversarial_rects, grid_dims)
def test_owner_is_unique_and_replicated(rect, dims):
    """The dedup anchor: each point has one owner, inside the rect's
    replication set."""
    rows, cols = dims
    part = GridPartitioner(UNIT, rows, cols)
    listed = part.tiles_for(rect)
    for x, y in [(rect.xlo, rect.ylo), (rect.xhi, rect.yhi),
                 ((rect.xlo + rect.xhi) / 2, (rect.ylo + rect.yhi) / 2)]:
        owner = part.owner_of(x, y)
        assert owner in listed


# --------------------------------------------------------------------- #
# Reference-point dedup
# --------------------------------------------------------------------- #


@settings(max_examples=60)
@given(
    st.lists(adversarial_rects, min_size=1, max_size=12),
    st.lists(adversarial_rects, min_size=1, max_size=12),
    grid_dims,
)
def test_dedup_exactly_once(rects_a, rects_b, dims):
    """Distributed pair discovery equals the brute-force ground truth.

    Simulates the executor faithfully: replicate both sides into tiles,
    join within each tile, keep a pair only if the tile owns it. The
    multiset of kept pairs must equal the set of intersecting pairs —
    equality of the *list* and the *set* proves both no-loss and
    no-duplicate at once.
    """
    rows, cols = dims
    part = GridPartitioner(UNIT, rows, cols)
    shards_a: dict[int, list[int]] = {}
    shards_b: dict[int, list[int]] = {}
    for i, r in enumerate(rects_a):
        for t in part.tiles_for(r):
            shards_a.setdefault(t, []).append(i)
    for j, r in enumerate(rects_b):
        for t in part.tiles_for(r):
            shards_b.setdefault(t, []).append(j)

    reported: list[tuple[int, int]] = []
    for t in range(part.num_tiles):
        for i in shards_a.get(t, []):
            for j in shards_b.get(t, []):
                if rects_a[i].intersects(rects_b[j]) and part.owns_pair(
                    t, rects_a[i], rects_b[j]
                ):
                    reported.append((i, j))

    truth = {
        (i, j)
        for i, ra in enumerate(rects_a)
        for j, rb in enumerate(rects_b)
        if ra.intersects(rb)
    }
    assert len(reported) == len(set(reported)), "pair reported twice"
    assert set(reported) == truth


@given(adversarial_rects, adversarial_rects, grid_dims)
def test_owns_pair_single_winner(ra, rb, dims):
    rows, cols = dims
    part = GridPartitioner(UNIT, rows, cols)
    owners = [
        t for t in range(part.num_tiles) if part.owns_pair(t, ra, rb)
    ]
    if ra.intersects(rb):
        assert len(owners) == 1
        # Symmetric in its arguments: both orders pick the same tile.
        assert part.owns_pair(owners[0], rb, ra)
    else:
        assert owners == []


# --------------------------------------------------------------------- #
# Sharding helpers
# --------------------------------------------------------------------- #


@given(
    st.lists(small_rects(), min_size=1, max_size=20),
    st.lists(small_rects(), min_size=1, max_size=20),
)
def test_make_shards_partitions_all_entries(ra, rb):
    entries_r = [(r, i) for i, r in enumerate(ra)]
    entries_s = [(r, 1000 + i) for i, r in enumerate(rb)]
    universe = joint_universe(entries_r, entries_s)
    assert universe is not None
    part = GridPartitioner.for_tile_count(universe, 9)
    shards = make_shard_descriptors(
        part, entries_r, entries_s, keep_unproductive=True
    )
    assert [d.tile.index for d in shards] == list(range(part.num_tiles))
    # The scatter pass inlines tiles_for's arithmetic; membership and
    # order must agree with the canonical method exactly.
    for d in shards:
        t = d.tile.index
        assert d.indices_r == [
            i for i, e in enumerate(entries_r) if t in part.tiles_for(e[0])
        ]
        assert d.indices_s == [
            i for i, e in enumerate(entries_s) if t in part.tiles_for(e[0])
        ]
    # Replication means every index lands in >= 1 tile.
    assert {i for d in shards for i in d.indices_r} == set(
        range(len(entries_r))
    )
    assert {i for d in shards for i in d.indices_s} == set(
        range(len(entries_s))
    )
    # Dropping unproductive tiles removes only tiles missing a side.
    productive = make_shard_descriptors(part, entries_r, entries_s)
    assert [d.tile.index for d in productive] == [
        d.tile.index for d in shards if d.indices_r and d.indices_s
    ]
    for kept in productive:
        full = shards[kept.tile.index]
        assert (kept.indices_r, kept.indices_s) == (
            full.indices_r, full.indices_s
        )


def test_joint_universe_empty():
    assert joint_universe([], []) is None
