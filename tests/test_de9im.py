"""Unit tests for DE-9IM: matrices and every named predicate.

Expected matrices follow the OGC reference semantics (checked against the
standard's worked examples and PostGIS behaviour for the same inputs).
"""

import pytest

from repro.algorithms.de9im import (
    DE9IM,
    contains,
    covered_by,
    covers,
    crosses,
    disjoint,
    equals,
    intersects,
    overlaps,
    relate,
    relate_pattern,
    touches,
    within,
)
from repro.geometry import (
    EMPTY,
    LineString,
    MultiPoint,
    Point,
    Polygon,
    wkt_loads,
)


class TestMatrixClass:
    def test_from_string_roundtrip(self):
        m = DE9IM.from_string("212101212")
        assert str(m) == "212101212"

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ValueError):
            DE9IM.from_string("21210121X")

    def test_matches_wildcards(self):
        m = DE9IM.from_string("212101212")
        assert m.matches("T********")
        assert m.matches("2********")
        assert m.matches("*********")
        assert not m.matches("F********")
        assert not m.matches("1********")

    def test_matches_f(self):
        m = DE9IM.from_string("FF2FF1212")
        assert m.matches("FF*FF****")

    def test_matches_length_checked(self):
        with pytest.raises(ValueError):
            DE9IM.from_string("212101212").matches("T*")

    def test_transpose(self):
        m = DE9IM.from_string("01201F012")
        # transpose swaps rows/columns of the 3x3 matrix
        assert str(m.transpose()) == "0001112F2"
        assert m.transpose().transpose() == m

    def test_equality_with_string(self):
        assert DE9IM.from_string("212101212") == "212101212"


class TestPolygonPolygonMatrices:
    def test_overlapping_squares(self, unit_square, shifted_square):
        assert str(relate(unit_square, shifted_square)) == "212101212"

    def test_disjoint_squares(self, unit_square, far_square):
        assert str(relate(unit_square, far_square)) == "FF2FF1212"

    def test_contained_square(self, unit_square, inner_square):
        assert str(relate(inner_square, unit_square)) == "2FF1FF212"

    def test_identical_squares(self, unit_square):
        twin = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        assert str(relate(unit_square, twin)) == "2FFF1FFF2"

    def test_edge_touching_squares(self, unit_square):
        neighbour = Polygon([(10, 0), (20, 0), (20, 10), (10, 10)])
        assert str(relate(unit_square, neighbour)) == "FF2F11212"

    def test_corner_touching_squares(self, unit_square):
        corner = Polygon([(10, 10), (20, 10), (20, 20), (10, 20)])
        assert str(relate(unit_square, corner)) == "FF2F01212"

    def test_transpose_symmetry(self, unit_square, shifted_square):
        ab = relate(unit_square, shifted_square)
        ba = relate(shifted_square, unit_square)
        assert ab.transpose() == ba

    def test_square_inside_touching_border(self, unit_square):
        snug = Polygon([(0, 0), (5, 0), (5, 5), (0, 5)])
        # within but sharing part of the boundary: covered, not within
        assert str(relate(snug, unit_square)) == "2FF11F212"


class TestLinePolygonMatrices:
    def test_line_crossing_polygon(self, unit_square):
        line = LineString([(-5, 5), (15, 5)])
        assert str(relate(line, unit_square)) == "101FF0212"

    def test_line_inside_polygon(self, unit_square):
        line = LineString([(2, 2), (8, 8)])
        assert str(relate(line, unit_square)) == "1FF0FF212"

    def test_line_on_polygon_boundary(self, unit_square):
        line = LineString([(2, 0), (8, 0)])
        assert str(relate(line, unit_square)) == "F1FF0F212"

    def test_line_entering_and_stopping_inside(self, unit_square):
        line = LineString([(-5, 5), (5, 5)])
        matrix = relate(line, unit_square)
        assert matrix.cell(*_II) == 1
        assert matrix.matches("1010F0212")

    def test_line_touching_polygon_at_endpoint(self, unit_square):
        line = LineString([(10, 5), (20, 5)])
        assert str(relate(line, unit_square)) == "FF1F00212"


class TestLineLineMatrices:
    def test_crossing_lines(self):
        a = LineString([(0, 0), (10, 10)])
        b = LineString([(0, 10), (10, 0)])
        assert str(relate(a, b)) == "0F1FF0102"

    def test_collinear_overlapping_lines(self):
        a = LineString([(0, 0), (10, 0)])
        b = LineString([(5, 0), (15, 0)])
        assert str(relate(a, b)) == "1010F0102"

    def test_touching_at_endpoints(self):
        a = LineString([(0, 0), (5, 5)])
        b = LineString([(5, 5), (10, 0)])
        assert str(relate(a, b)) == "FF1F00102"

    def test_identical_lines(self):
        a = LineString([(0, 0), (10, 0)])
        b = LineString([(0, 0), (10, 0)])
        assert str(relate(a, b)) == "1FFF0FFF2"

    def test_t_junction_interior_boundary(self):
        a = LineString([(0, 0), (10, 0)])
        b = LineString([(5, 0), (5, 10)])
        # b's endpoint lies in a's interior
        matrix = relate(a, b)
        assert matrix.cell(*_IB) == 0


class TestPointMatrices:
    def test_point_in_polygon(self, unit_square, center_point):
        assert str(relate(center_point, unit_square)) == "0FFFFF212"

    def test_point_on_polygon_boundary(self, unit_square):
        assert str(relate(Point(5, 0), unit_square)) == "F0FFFF212"

    def test_point_outside_polygon(self, unit_square):
        assert str(relate(Point(50, 50), unit_square)) == "FF0FFF212"

    def test_point_on_line_interior(self):
        line = LineString([(0, 0), (10, 0)])
        assert str(relate(Point(5, 0), line)) == "0FFFFF102"

    def test_point_on_line_endpoint(self):
        line = LineString([(0, 0), (10, 0)])
        assert str(relate(Point(0, 0), line)) == "F0FFFF102"

    def test_point_on_doubled_end_vertex_is_boundary(self):
        # the end vertex repeated: still the line's boundary, not interior
        line = LineString([(0, 0), (0, 2), (0, 2)])
        assert str(relate(Point(0, 2), line)) == "F0FFFF102"

    def test_point_point_equal(self):
        assert str(relate(Point(1, 1), Point(1, 1))) == "0FFFFFFF2"

    def test_point_point_distinct(self):
        assert str(relate(Point(1, 1), Point(2, 2))) == "FF0FFF0F2"


class TestEmpty:
    def test_empty_vs_polygon(self, unit_square):
        matrix = relate(EMPTY, unit_square)
        assert matrix.matches("FFFFFF21*")

    def test_empty_vs_empty(self):
        assert str(relate(EMPTY, EMPTY)) == "FFFFFFFF2"


_II = (0, 0)
_IB = (0, 1)


class TestNamedPredicates:
    def test_intersects_vs_disjoint_complement(
        self, unit_square, shifted_square, far_square
    ):
        assert intersects(unit_square, shifted_square)
        assert not disjoint(unit_square, shifted_square)
        assert disjoint(unit_square, far_square)
        assert not intersects(unit_square, far_square)

    def test_touches_edge_and_corner(self, unit_square):
        edge = Polygon([(10, 0), (20, 0), (20, 10), (10, 10)])
        corner = Polygon([(10, 10), (20, 10), (20, 20), (10, 20)])
        assert touches(unit_square, edge)
        assert touches(unit_square, corner)
        assert not touches(unit_square, unit_square)

    def test_points_never_touch(self):
        assert not touches(Point(0, 0), Point(0, 0))
        assert not touches(Point(0, 0), MultiPoint([(0, 0)]))

    def test_point_touches_polygon_boundary(self, unit_square):
        assert touches(Point(5, 0), unit_square)
        assert not touches(Point(5, 5), unit_square)

    def test_crosses_line_polygon(self, unit_square):
        crossing = LineString([(-5, 5), (15, 5)])
        inside = LineString([(2, 2), (8, 8)])
        assert crosses(crossing, unit_square)
        assert crosses(unit_square, crossing)  # symmetric by definition
        assert not crosses(inside, unit_square)

    def test_crosses_line_line_at_point(self):
        a = LineString([(0, 0), (10, 10)])
        b = LineString([(0, 10), (10, 0)])
        assert crosses(a, b)

    def test_collinear_overlap_is_not_cross(self):
        a = LineString([(0, 0), (10, 0)])
        b = LineString([(5, 0), (15, 0)])
        assert not crosses(a, b)
        assert overlaps(a, b)

    def test_within_contains_duality(self, unit_square, inner_square):
        assert within(inner_square, unit_square)
        assert contains(unit_square, inner_square)
        assert not within(unit_square, inner_square)

    def test_within_allows_shared_boundary_for_areas(self, unit_square):
        # OGC: a polygon inside another that touches the container's
        # border is still Within (only interior/exterior entries matter)
        snug = Polygon([(0, 0), (5, 0), (5, 5), (0, 5)])
        assert within(snug, unit_square)
        assert covered_by(snug, unit_square)
        assert covers(unit_square, snug)

    def test_boundary_point_is_covered_but_not_within(self, unit_square):
        boundary_point = Point(5, 0)
        assert not within(boundary_point, unit_square)
        assert covered_by(boundary_point, unit_square)

    def test_covers_implies_intersects(self, unit_square, inner_square):
        assert covers(unit_square, inner_square)
        assert intersects(unit_square, inner_square)

    def test_overlaps_same_dimension_only(self, unit_square, shifted_square):
        assert overlaps(unit_square, shifted_square)
        line = LineString([(-5, 5), (15, 5)])
        assert not overlaps(unit_square, line)

    def test_equals_topological(self):
        a = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        # same shape, extra collinear vertex and different start
        b = Polygon([(10, 0), (10, 10), (0, 10), (0, 0), (5, 0)])
        assert equals(a, b)

    def test_equals_dimension_mismatch(self, unit_square):
        assert not equals(unit_square, unit_square.exterior())

    def test_relate_pattern(self, unit_square, shifted_square):
        assert relate_pattern(unit_square, shifted_square, "T*T***T**")
        assert not relate_pattern(unit_square, shifted_square, "FF*FF****")


class TestPredicateConsistency:
    """Cross-predicate invariants on a mixed bag of pairs."""

    PAIRS = [
        ("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
         "POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))"),
        ("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
         "POLYGON ((10 0, 20 0, 20 10, 10 10, 10 0))"),
        ("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
         "LINESTRING (-5 5, 15 5)"),
        ("LINESTRING (0 0, 10 10)", "LINESTRING (0 10, 10 0)"),
        ("POINT (5 5)", "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"),
        ("POINT (50 50)", "LINESTRING (0 0, 1 1)"),
        ("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
         "POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))"),
    ]

    @pytest.mark.parametrize("wkt_a,wkt_b", PAIRS)
    def test_disjoint_is_not_intersects(self, wkt_a, wkt_b):
        a, b = wkt_loads(wkt_a), wkt_loads(wkt_b)
        assert disjoint(a, b) != intersects(a, b)

    @pytest.mark.parametrize("wkt_a,wkt_b", PAIRS)
    def test_within_implies_intersects(self, wkt_a, wkt_b):
        a, b = wkt_loads(wkt_a), wkt_loads(wkt_b)
        if within(a, b):
            assert intersects(a, b)
            assert covered_by(a, b)

    @pytest.mark.parametrize("wkt_a,wkt_b", PAIRS)
    def test_touches_excludes_interior_overlap(self, wkt_a, wkt_b):
        a, b = wkt_loads(wkt_a), wkt_loads(wkt_b)
        if touches(a, b):
            assert relate(a, b).cell(0, 0) == -1

    @pytest.mark.parametrize("wkt_a,wkt_b", PAIRS)
    def test_matrix_transpose_symmetry(self, wkt_a, wkt_b):
        a, b = wkt_loads(wkt_a), wkt_loads(wkt_b)
        assert relate(a, b).transpose() == relate(b, a)
