"""Unit and property tests for the rectangle algebra."""

import math

import pytest
from hypothesis import given

from repro.errors import GeometryError
from repro.geometry import Rect, union_all

from ..strategies import rects

NAN = float("nan")


class TestConstruction:
    def test_basic_fields(self):
        r = Rect(0.0, 1.0, 2.0, 3.0)
        assert (r.xlo, r.ylo, r.xhi, r.yhi) == (0.0, 1.0, 2.0, 3.0)

    def test_rejects_inverted_x(self):
        with pytest.raises(GeometryError):
            Rect(2.0, 0.0, 1.0, 1.0)

    def test_rejects_inverted_y(self):
        with pytest.raises(GeometryError):
            Rect(0.0, 2.0, 1.0, 1.0)

    @pytest.mark.parametrize("coords", [
        (NAN, 0.0, 1.0, 1.0), (0.0, NAN, 1.0, 1.0),
        (0.0, 0.0, NAN, 1.0), (0.0, 0.0, 1.0, NAN), (NAN, NAN, NAN, NAN),
    ])
    def test_rejects_nan(self, coords):
        """A NaN passes ``xlo > xhi``; the fast and scalar paths then
        disagree on every test against that box, so it is refused."""
        with pytest.raises(GeometryError):
            Rect(*coords)

    def test_nan_from_internal_constructors_is_refused(self):
        with pytest.raises(GeometryError):
            Rect.from_center(NAN, 0.5, 0.1, 0.1)
        with pytest.raises(GeometryError):
            Rect.from_center(0.5, 0.5, NAN, 0.1)
        with pytest.raises(GeometryError):
            Rect(-math.inf, 0.0, math.inf, 0.0).center_rect()

    def test_from_center(self):
        r = Rect.from_center(0.5, 0.5, 0.2, 0.4)
        assert r.xlo == pytest.approx(0.4)
        assert r.xhi == pytest.approx(0.6)
        assert r.ylo == pytest.approx(0.3)
        assert r.yhi == pytest.approx(0.7)

    def test_from_center_rejects_negative_extent(self):
        with pytest.raises(GeometryError):
            Rect.from_center(0.5, 0.5, -0.1, 0.1)

    def test_point_is_degenerate(self):
        p = Rect.point(0.3, 0.7)
        assert p.is_point()
        assert p.area() == 0.0

    def test_zero_width_rect_is_legal(self):
        r = Rect(0.5, 0.0, 0.5, 1.0)
        assert r.area() == 0.0
        assert not r.is_point()


class TestMeasures:
    def test_area(self):
        assert Rect(0, 0, 2, 3).area() == 6.0

    def test_margin(self):
        assert Rect(0, 0, 2, 3).margin() == 5.0

    def test_center(self):
        assert Rect(0, 0, 2, 4).center() == (1.0, 2.0)

    def test_center_rect_is_point_at_center(self):
        c = Rect(0, 0, 2, 4).center_rect()
        assert c.is_point()
        assert c.center() == (1.0, 2.0)

    def test_width_height(self):
        r = Rect(1, 2, 4, 8)
        assert r.width == 3.0
        assert r.height == 6.0


class TestPredicates:
    def test_disjoint_do_not_intersect(self):
        assert not Rect(0, 0, 1, 1).intersects(Rect(2, 2, 3, 3))

    def test_touching_edges_intersect(self):
        # Closed-rectangle convention: sharing an edge counts.
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 0, 2, 1))

    def test_touching_corner_intersects(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 1, 2, 2))

    def test_containment(self):
        outer = Rect(0, 0, 10, 10)
        inner = Rect(2, 2, 3, 3)
        assert outer.contains(inner)
        assert not inner.contains(outer)

    def test_contains_self(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains(r)

    def test_contains_point(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains_point(0.5, 0.5)
        assert r.contains_point(1.0, 1.0)  # boundary
        assert not r.contains_point(1.1, 0.5)

    def test_disjoint_in_y_only(self):
        assert not Rect(0, 0, 1, 1).intersects(Rect(0, 2, 1, 3))


class TestCombination:
    def test_union_encloses_both(self):
        u = Rect(0, 0, 1, 1).union(Rect(2, 2, 3, 3))
        assert u == Rect(0, 0, 3, 3)

    def test_intersection_of_overlapping(self):
        i = Rect(0, 0, 2, 2).intersection(Rect(1, 1, 3, 3))
        assert i == Rect(1, 1, 2, 2)

    def test_intersection_of_disjoint_is_none(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(2, 2, 3, 3)) is None

    def test_intersection_of_touching_is_degenerate(self):
        i = Rect(0, 0, 1, 1).intersection(Rect(1, 0, 2, 1))
        assert i == Rect(1, 0, 1, 1)

    def test_enlargement_zero_for_contained(self):
        assert Rect(0, 0, 10, 10).enlargement(Rect(1, 1, 2, 2)) == 0.0

    def test_enlargement_positive_for_outside(self):
        assert Rect(0, 0, 1, 1).enlargement(Rect(2, 0, 3, 1)) == 2.0

    def test_center_distance_sq(self):
        a = Rect.point(0.0, 0.0)
        b = Rect.point(3.0, 4.0)
        assert a.center_distance_sq(b) == 25.0

    def test_clipped_to_inside_window(self):
        r = Rect(-1, -1, 0.5, 0.5)
        clipped = r.clipped_to(Rect(0, 0, 1, 1))
        assert clipped == Rect(0, 0, 0.5, 0.5)

    def test_clipped_to_outside_window_is_none(self):
        assert Rect(2, 2, 3, 3).clipped_to(Rect(0, 0, 1, 1)) is None


class TestUnionAll:
    def test_single(self):
        r = Rect(0, 0, 1, 1)
        assert union_all([r]) == r

    def test_many(self):
        rs = [Rect(0, 0, 1, 1), Rect(5, 5, 6, 6), Rect(-1, 2, 0, 3)]
        assert union_all(rs) == Rect(-1, 0, 6, 6)

    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            union_all([])


class TestDunder:
    def test_equality_and_hash(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(0, 0, 1, 1)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Rect(0, 0, 1, 2)

    def test_equality_against_other_type(self):
        assert Rect(0, 0, 1, 1) != "rect"

    def test_iteration_and_tuple(self):
        r = Rect(0, 1, 2, 3)
        assert tuple(r) == (0, 1, 2, 3)
        assert r.as_tuple() == (0, 1, 2, 3)

    def test_repr_round_trips(self):
        r = Rect(0.25, 0.5, 0.75, 1.0)
        assert eval(repr(r)) == r


# --------------------------------------------------------------------- #
# Property-based laws
# --------------------------------------------------------------------- #


@given(rects(), rects())
def test_intersects_is_symmetric(a, b):
    assert a.intersects(b) == b.intersects(a)


@given(rects(), rects())
def test_intersects_iff_intersection_exists(a, b):
    assert a.intersects(b) == (a.intersection(b) is not None)


@given(rects(), rects())
def test_union_contains_both(a, b):
    u = a.union(b)
    assert u.contains(a)
    assert u.contains(b)


@given(rects(), rects())
def test_union_is_commutative(a, b):
    assert a.union(b) == b.union(a)


@given(rects())
def test_union_is_idempotent(a):
    assert a.union(a) == a


@given(rects(), rects())
def test_intersection_contained_in_both(a, b):
    i = a.intersection(b)
    if i is not None:
        assert a.contains(i)
        assert b.contains(i)


@given(rects(), rects())
def test_enlargement_matches_union_area(a, b):
    assert a.enlargement(b) == a.union(b).area() - a.area()


@given(rects(), rects())
def test_enlargement_non_negative(a, b):
    assert a.enlargement(b) >= 0.0


@given(rects(), rects(), rects())
def test_union_is_associative(a, b, c):
    assert a.union(b).union(c) == a.union(b.union(c))


@given(rects(), rects())
def test_containment_implies_intersection(a, b):
    if a.contains(b):
        assert a.intersects(b)


@given(rects())
def test_center_inside_rect(a):
    cx, cy = a.center()
    assert a.contains_point(cx, cy)
