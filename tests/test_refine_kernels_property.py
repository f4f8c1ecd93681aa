"""Equivalence of the gated refinement kernels with plain references.

``on_segment``, ``segment_intersection`` and ``_candidate_pairs`` test
envelopes before any orientation, and a prepared geometry locates points
through a slab edge index. Each must answer exactly what the ungated,
linear form answers. The reference forms live here, in the test, and not
as a second code path in ``src/``.

Inputs lean on the degenerate cases the gates must not get wrong:
collinear and touching segments, shared endpoints, coordinates nudged by
one ulp, and magnitudes up to 1e7. Segments have distinct endpoints, as
every caller's segments do (``LineString.segments`` and the polygon ring
walk skip repeated vertices).

Where the gate answers differently from the ungated kernel, the ungated
answer is wrong, and that case is pinned by its own test below.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms import de9im
from repro.algorithms.de9im import (
    _candidate_pairs,
    _features_of,
    _segment_grid,
    relate,
)
from repro.algorithms.location import locate, locate_plain
from repro.algorithms.predicates import (
    _collinear_overlap,
    _proper_intersection_point,
    on_segment,
    orientation,
    segment_intersection,
)
from repro.geometry import LineString, MultiLineString, Point, Polygon
from repro.geometry.point import MultiPoint
from repro.geometry.polygon import MultiPolygon

# -- references: the kernels as they were before the gates ------------------


def ref_on_segment(p, a, b):
    if orientation(a, b, p) != 0:
        return False
    eps = 1e-12 * max(abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1]), 1.0)
    return (
        min(a[0], b[0]) - eps <= p[0] <= max(a[0], b[0]) + eps
        and min(a[1], b[1]) - eps <= p[1] <= max(a[1], b[1]) + eps
    )


def ref_segment_intersection(a, b, c, d):
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if o1 != o2 and o3 != o4 and o1 and o2 and o3 and o4:
        return _proper_intersection_point(a, b, c, d)
    if o1 == 0 and o2 == 0 and o3 == 0 and o4 == 0:
        return _collinear_overlap(a, b, c, d)
    touches = []
    if o1 == 0 and ref_on_segment(c, a, b):
        touches.append(c)
    if o2 == 0 and ref_on_segment(d, a, b):
        touches.append(d)
    if o3 == 0 and ref_on_segment(a, c, d):
        touches.append(a)
    if o4 == 0 and ref_on_segment(b, c, d):
        touches.append(b)
    if not touches:
        if o1 != o2 and o3 != o4:
            return _proper_intersection_point(a, b, c, d)
        return None
    unique = sorted(set(touches))
    return unique[0] if len(unique) == 1 else (unique[0], unique[-1])


def ref_candidate_pairs(segs_a, segs_b):
    if len(segs_a) * len(segs_b) <= 4096:
        return {(i, j) for i in range(len(segs_a)) for j in range(len(segs_b))}
    spans = [max(abs(b[0] - a[0]), abs(b[1] - a[1])) for a, b, _r, _l in segs_b]
    cell = max(sum(spans) / len(spans), 1e-9) * 2.0
    grid = _segment_grid(segs_b, cell)
    pairs = set()
    for i, (a, b, _r, _l) in enumerate(segs_a):
        x0, x1 = sorted((a[0], b[0]))
        y0, y1 = sorted((a[1], b[1]))
        for gx in range(math.floor(x0 / cell), math.floor(x1 / cell) + 1):
            for gy in range(math.floor(y0 / cell), math.floor(y1 / cell) + 1):
                pairs.update((i, j) for j in grid.get((gx, gy), ()))
    return pairs


# -- strategies ---------------------------------------------------------------

small = st.integers(min_value=-6, max_value=6).map(float)
offsets = st.sampled_from([0.0, 1e3, -7.5e5, 1e7 - 8, -1e7 + 8])


def _nudge(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.inf if steps > 0 else -math.inf)
    return value


@st.composite
def coords(draw, offset):
    x, y = draw(small), draw(small)
    nudge = draw(st.sampled_from([0, 0, 0, 1, -1, 2]))
    return (_nudge(offset + x, nudge), offset + y)


@st.composite
def segment_quads(draw):
    """Four points at one magnitude; often collinear or sharing points."""
    offset = draw(offsets)
    a, b = draw(coords(offset)), draw(coords(offset))
    assume(a != b)
    shape = draw(st.sampled_from(["free", "collinear", "shared", "touch"]))
    if shape == "collinear":
        t, u = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])), \
            draw(st.sampled_from([-1.5, 0.25, 0.5, 1.0, 3.0]))
        c = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
        d = (a[0] + u * (b[0] - a[0]), a[1] + u * (b[1] - a[1]))
    elif shape == "shared":
        c = draw(st.sampled_from([a, b]))
        d = draw(coords(offset))
    elif shape == "touch":
        c = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
        d = draw(coords(offset))
    else:
        c, d = draw(coords(offset)), draw(coords(offset))
    if draw(st.booleans()):
        c = (_nudge(c[0], draw(st.sampled_from([1, -1]))), c[1])
    assume(c != d)
    return a, b, c, d


@st.composite
def rings(draw, offset):
    """A simple star-shaped ring around a lattice centre."""
    cx, cy = draw(small), draw(small)
    n = draw(st.integers(min_value=3, max_value=9))
    radii = draw(st.lists(st.integers(min_value=1, max_value=6),
                          min_size=n, max_size=n))
    return [
        (offset + cx + r * math.cos(2 * math.pi * i / n),
         offset + cy + r * math.sin(2 * math.pi * i / n))
        for i, r in enumerate(radii)
    ]


@st.composite
def polygons(draw, offset=None):
    if offset is None:
        offset = draw(offsets)
    shell = draw(rings(offset))
    poly = Polygon(shell)
    if draw(st.booleans()):
        # a hole: the shell scaled by 0.2 about its vertex mean
        cx = sum(x for x, _ in shell) / len(shell)
        cy = sum(y for _, y in shell) / len(shell)
        hole = [(cx + 0.2 * (x - cx), cy + 0.2 * (y - cy)) for x, y in shell]
        try:
            poly = Polygon(shell, holes=[hole])
        except Exception:
            pass
    return poly


@st.composite
def lines(draw, offset=None):
    if offset is None:
        offset = draw(offsets)
    pts = draw(st.lists(coords(offset), min_size=2, max_size=7))
    assume(len(set(pts)) >= 2)
    return LineString(pts)


@st.composite
def located_geometries(draw):
    offset = draw(offsets)
    kind = draw(st.sampled_from(["polygon", "multipolygon", "line", "multiline"]))
    if kind == "polygon":
        return draw(polygons(offset))
    if kind == "multipolygon":
        return MultiPolygon([draw(polygons(offset)) for _ in range(2)])
    if kind == "line":
        return draw(lines(offset))
    return MultiLineString([draw(lines(offset)) for _ in range(2)])


def _probes(geom, draw):
    """Vertices, edge midpoints, their 1-ulp neighbours and points drawn
    around the envelope."""
    vertices = list(geom.coords_iter())
    env = geom.envelope
    points = []
    for a, b in zip(vertices, vertices[1:]):
        points.append(a)
        points.append(((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0))
    points = [
        (_nudge(x, k), _nudge(y, j)) for x, y in points
        for k, j in ((0, 0), (1, 0), (0, -1))
    ]
    for _ in range(6):
        points.append((
            env.min_x + draw(st.floats(-0.2, 1.2)) * (env.width or 1.0),
            env.min_y + draw(st.floats(-0.2, 1.2)) * (env.height or 1.0),
        ))
    return points


# -- the primitives -------------------------------------------------------------


@given(segment_quads())
@settings(max_examples=400, deadline=None)
def test_on_segment_equals_reference(quad):
    a, b, c, d = quad
    for p in (a, b, c, d):
        for s, e in ((a, b), (c, d), (b, a)):
            assert on_segment(p, s, e) == ref_on_segment(p, s, e)


@given(segment_quads())
@settings(max_examples=600, deadline=None)
def test_segment_intersection_equals_reference(quad):
    a, b, c, d = quad
    assert segment_intersection(a, b, c, d) == ref_segment_intersection(a, b, c, d)
    assert segment_intersection(c, d, a, b) == ref_segment_intersection(c, d, a, b)


def test_gate_drops_a_spurious_crossing_of_near_parallel_segments():
    # The lines cross inside ab at a ~1e-12 rad angle, but cd starts
    # about 2.5 units past b and runs away from it: the segments are
    # disjoint. The ungated kernel's straddle fallback (one orientation
    # inside the collinearity band) reports a point clamped onto ab that
    # is not on cd; the envelope gate answers None.
    a = (46.94947092082701, -42.34948108496488)
    b = (85.429434549456, 10.479644100908473)
    c = (86.92928360720455, 12.538786214230386)
    d = (176.1136445945587, 134.97995629005857)
    spurious = ref_segment_intersection(a, b, c, d)
    assert spurious is not None
    assert not ref_on_segment(spurious, c, d)
    assert segment_intersection(a, b, c, d) is None


def test_gate_drops_a_zero_length_segment_far_from_the_other():
    # no caller builds a zero-length segment; the ungated kernel called
    # this one, 100 units from cd, an intersection
    a = b = (5.0, 0.0)
    c, d = (5.0, 100.0), (5.0, 200.0)
    assert ref_segment_intersection(a, b, c, d) == a
    assert segment_intersection(a, b, c, d) is None


# -- candidate pairs -----------------------------------------------------------------


@given(st.one_of(polygons(0.0), lines(0.0)), st.one_of(polygons(0.0), lines(0.0)))
@settings(max_examples=150, deadline=None)
def test_candidate_pairs_drop_only_pairs_that_cannot_meet(a, b):
    fa, fb = _features_of(a), _features_of(b)
    gated = set(_candidate_pairs(fa, fb))
    plain = ref_candidate_pairs(fa.segments, fb.segments)
    assert gated <= plain

    def hits(pairs):
        return {
            (i, j) for i, j in pairs
            if segment_intersection(
                fa.segments[i][0], fa.segments[i][1],
                fb.segments[j][0], fb.segments[j][1],
            ) is not None
        }

    assert hits(gated) == hits(plain)


def test_candidate_pairs_grid_path_drops_only_pairs_that_cannot_meet():
    # more than 4096 segment pairs: the grid path
    teeth = [(float(i), float(i % 2) * 3.0) for i in range(90)]
    saw = LineString(teeth)
    wave = LineString([(x + 0.5, 1.5 + math.sin(x)) for x, _ in teeth])
    fa, fb = _features_of(saw), _features_of(wave)
    assert len(fa.segments) * len(fb.segments) > 4096
    gated = set(_candidate_pairs(fa, fb))
    plain = ref_candidate_pairs(fa.segments, fb.segments)
    assert gated <= plain
    met = {
        (i, j) for i, j in plain
        if segment_intersection(
            fa.segments[i][0], fa.segments[i][1],
            fb.segments[j][0], fb.segments[j][1],
        ) is not None
    }
    assert met and met <= gated


# -- prepared point location -----------------------------------------------------------


@given(located_geometries(), st.data())
@settings(max_examples=200, deadline=None)
def test_prepared_locate_equals_linear_walk(geom, data):
    probes = _probes(geom, data.draw)
    plain = [locate_plain(p, geom) for p in probes]
    assert geom._features is None
    _features_of(geom)  # prepared: locate now goes through the slab index
    assert [locate(p, geom) for p in probes] == plain


def test_prepared_locate_is_built_on_first_use():
    square = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
    feats = _features_of(square)
    assert feats._locator is None
    assert locate((5.0, 5.0), square) is de9im._INT
    assert feats._locator is not None


# -- named predicates against the full matrix -------------------------------------------------


def _named_from_matrix(name, a, b):
    m = relate(a, b)
    da, db = a.dimension, b.dimension
    if name == "equals":
        return m.matches("T*F**FFF*")
    if name == "disjoint":
        return m.matches("FF*FF****")
    if name == "intersects":
        return not m.matches("FF*FF****")
    if name == "touches":
        return any(m.matches(p) for p in ("FT*******", "F**T*****", "F***T****"))
    if name == "crosses":
        if da == 1 and db == 1:
            return m.matches("0********")
        if da < db:
            return m.matches("T*T******")
        if da > db:
            return m.matches("T*****T**")
        return False
    if name == "within":
        return m.matches("T*F**F***")
    if name == "contains":
        return relate(b, a).matches("T*F**F***")
    if name == "overlaps":
        if da != db:
            return False
        return m.matches("1*T***T**" if da == 1 else "T*T***T**")
    if name == "covers":
        return any(m.matches(p) for p in
                   ("T*****FF*", "*T****FF*", "***T**FF*", "****T*FF*"))
    if name == "covered_by":
        return any(relate(b, a).matches(p) for p in
                   ("T*****FF*", "*T****FF*", "***T**FF*", "****T*FF*"))
    raise AssertionError(name)


NAMED = ("equals", "disjoint", "intersects", "touches", "crosses", "within",
         "contains", "overlaps", "covers", "covered_by")


lattice = st.tuples(small, small)


@st.composite
def any_geometry(draw):
    """Points and lines on the integer lattice, star polygons around it.

    No 1-ulp nudges here: the named predicates' envelope early-outs are
    exact while point location is tolerant, which the next test pins.
    """
    kind = draw(st.sampled_from(["point", "multipoint", "line", "polygon"]))
    if kind == "point":
        return Point(*draw(lattice))
    if kind == "multipoint":
        pts = draw(st.lists(lattice, min_size=2, max_size=4, unique=True))
        return MultiPoint([Point(*p) for p in pts])
    if kind == "line":
        pts = draw(st.lists(lattice, min_size=2, max_size=7))
        assume(len(set(pts)) >= 2)
        return LineString(pts)
    return draw(polygons(0.0))


@given(any_geometry(), any_geometry())
@settings(max_examples=200, deadline=None)
def test_named_predicates_equal_the_matrix(a, b):
    for name in NAMED:
        assert getattr(de9im, name)(a, b) == _named_from_matrix(name, a, b), name


@pytest.mark.xfail(strict=True, reason=(
    "relate's envelope early-out is exact, point location is tolerant: "
    "a point 1 ulp off a vertical line is within it yet relate calls the "
    "pair disjoint"
))
def test_named_predicates_equal_the_matrix_one_ulp_off_a_line():
    a = Point(5e-324, 0.0)
    b = LineString([(0.0, 0.0), (0.0, 1.0)])
    assert de9im.within(a, b) == _named_from_matrix("within", a, b)
