"""Point location: where does a point sit relative to a geometry?

DE-9IM is defined over the interior/boundary/exterior partition, so the
location primitives return one of the three :class:`Location` labels rather
than a bare boolean. Ring tests use a crossing-number walk with explicit
boundary detection (a point on an edge is BOUNDARY, never mis-counted).

A geometry that DE-9IM refinement has prepared (its memoised feature set,
``geom._features``, exists) is located through :func:`prepared_locate`
instead: the same walk, over only the edges an index of horizontal slabs
offers for the point's height (GEOS's ``IndexedPointInAreaLocator``).
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, Sequence, Tuple

from repro.algorithms.predicates import on_segment
from repro.geometry.base import Coord, Envelope, Geometry
from repro.geometry.collection import GeometryCollection
from repro.geometry.linestring import LineString, MultiLineString
from repro.geometry.point import MultiPoint, Point
from repro.geometry.polygon import MultiPolygon, Polygon


class Location(enum.IntEnum):
    INTERIOR = 0
    BOUNDARY = 1
    EXTERIOR = 2


def locate_in_ring(p: Coord, ring: Sequence[Coord]) -> Location:
    """Locate ``p`` against a closed ring (interior = inside the ring)."""
    px, py = p
    inside = False
    for a, b in zip(ring, ring[1:]):
        if a == b:
            continue
        if on_segment(p, a, b):
            return Location.BOUNDARY
        ax, ay = a
        bx, by = b
        # Count crossings of the upward ray from p: half-open rule on y.
        if (ay > py) != (by > py):
            x_cross = ax + (py - ay) * (bx - ax) / (by - ay)
            if x_cross > px:
                inside = not inside
    return Location.INTERIOR if inside else Location.EXTERIOR


def locate_in_polygon(p: Coord, polygon: Polygon) -> Location:
    """Locate ``p`` against a polygon with holes."""
    # The envelope rejection must be tolerant: a point carrying overlay
    # rounding error can sit epsilon outside the exact envelope while the
    # ring walk below would classify it BOUNDARY. Only the walk decides.
    env = polygon.envelope
    pad = env.tolerance()
    px, py = p
    if (
        px < env.min_x - pad
        or px > env.max_x + pad
        or py < env.min_y - pad
        or py > env.max_y + pad
    ):
        return Location.EXTERIOR
    where = locate_in_ring(p, polygon.shell)
    if where is not Location.INTERIOR:
        return where
    for hole in polygon.holes:
        inner = locate_in_ring(p, hole)
        if inner is Location.BOUNDARY:
            return Location.BOUNDARY
        if inner is Location.INTERIOR:
            return Location.EXTERIOR
    return Location.INTERIOR


def locate_in_multipolygon(p: Coord, geom: MultiPolygon) -> Location:
    return _best(locate_in_polygon(p, polygon) for polygon in geom.polygons)


def locate_on_line(p: Coord, line: LineString) -> Location:
    """Locate ``p`` against a linestring (interior = on the line, not an endpoint)."""
    if not line.envelope.expanded(1e-9).contains_point(*p):
        return Location.EXTERIOR
    if not line.is_closed and (p == line.coords[0] or p == line.coords[-1]):
        return Location.BOUNDARY
    for a, b in line.segments():
        if on_segment(p, a, b):
            return Location.INTERIOR
    return Location.EXTERIOR


def locate_on_multiline(p: Coord, geom: MultiLineString) -> Location:
    boundary = {pt.coord for pt in geom.boundary_points()}
    if p in boundary:
        return Location.BOUNDARY
    for line in geom.lines:
        for a, b in line.segments():
            if on_segment(p, a, b):
                return Location.INTERIOR
    return Location.EXTERIOR


def locate(p: Coord, geom: Geometry) -> Location:
    """Locate a coordinate against any geometry type."""
    # a prepared operand carries its edge index on the feature set (built
    # on first use); everything else takes the plain walk
    feats = geom._features
    if feats is not None:
        return feats.locator(p)
    return locate_plain(p, geom)


def locator(geom: Geometry) -> Callable[[Coord], Location]:
    """:func:`locate` for many points against one geometry.

    A prepared operand's own locator; otherwise :func:`prepared_locate`,
    built on the first call and dropped with the returned function, for
    loops (such as the overlay's, once per split piece) that locate many
    points against a transient geometry.
    """
    feats = geom._features
    if feats is not None:
        return feats.locator
    prepared: Optional[Callable[[Coord], Location]] = None

    def locate_many(p: Coord) -> Location:
        nonlocal prepared
        if prepared is None:
            prepared = prepared_locate(geom)
        return prepared(p)

    return locate_many


def locate_plain(p: Coord, geom: Geometry) -> Location:
    """:func:`locate` by a linear walk over every edge."""
    if isinstance(geom, Point):
        return Location.INTERIOR if p == geom.coord else Location.EXTERIOR
    if isinstance(geom, MultiPoint):
        return (
            Location.INTERIOR
            if any(p == pt.coord for pt in geom.points)
            else Location.EXTERIOR
        )
    if isinstance(geom, LineString):
        return locate_on_line(p, geom)
    if isinstance(geom, MultiLineString):
        return locate_on_multiline(p, geom)
    if isinstance(geom, Polygon):
        return locate_in_polygon(p, geom)
    if isinstance(geom, MultiPolygon):
        return locate_in_multipolygon(p, geom)
    if isinstance(geom, GeometryCollection):
        return _best(locate(p, member) for member in geom.geoms)
    raise TypeError(f"cannot locate against {type(geom).__name__}")


# ---------------------------------------------------------------------------
# prepared point location
# ---------------------------------------------------------------------------

Edge = Tuple[Coord, Coord, int]


class _Slabs:
    """Tagged edges ``(a, b, tag)`` bucketed into horizontal slabs.

    An edge is listed in every slab its y-range, widened by the gate pad
    (``env.tolerance()``: ``GATE_REL * max(|coord|, 1)`` over the edges'
    envelope, above ``on_segment``'s box tolerance), overlaps. So a point at
    height y can only lie on, or have its upward ray's half-open crossing
    rule count, an edge of y's slab: every other edge is one the linear
    walk would test and skip.
    """

    __slots__ = ("y0", "y1", "scale", "slabs")

    def __init__(self, edges: List[Edge], env: Envelope):
        pad = env.tolerance()
        self.y0 = y0 = env.min_y - pad
        self.y1 = env.max_y + pad
        count = max(1, len(edges) // 2)
        self.scale = scale = count / (self.y1 - y0)
        last = count - 1
        self.slabs: List[List[Edge]] = [[] for _ in range(count)]
        for edge in edges:
            ay, by = edge[0][1], edge[1][1]
            if ay > by:
                ay, by = by, ay
            k0 = min(max(int((ay - pad - y0) * scale), 0), last)
            k1 = min(int((by + pad - y0) * scale), last)
            for k in range(k0, k1 + 1):
                self.slabs[k].append(edge)

    def near(self, y: float) -> List[Edge]:
        if y < self.y0 or y > self.y1:
            return []
        slabs = self.slabs
        return slabs[min(int((y - self.y0) * self.scale), len(slabs) - 1)]


def _ring_edges(rings: Sequence[Sequence[Coord]]) -> List[Edge]:
    return [
        (a, b, tag)
        for tag, ring in enumerate(rings)
        for a, b in zip(ring, ring[1:])
        if a != b
    ]


class _PreparedPolygon:
    """:func:`locate_in_polygon` over a slab index of all its rings."""

    __slots__ = ("env", "pad", "slabs", "holes")

    def __init__(self, polygon: Polygon):
        self.env = polygon.envelope
        self.pad = self.env.tolerance()
        rings = [polygon.shell] + list(polygon.holes)
        edges = _ring_edges(rings)
        self.slabs = _Slabs(edges, self.env) if edges else None
        self.holes = len(polygon.holes)

    def locate(self, p: Coord) -> Location:
        env, pad = self.env, self.pad
        px, py = p
        if (
            px < env.min_x - pad
            or px > env.max_x + pad
            or py < env.min_y - pad
            or py > env.max_y + pad
            or self.slabs is None
        ):
            return Location.EXTERIOR
        # per ring (bit = tag): p lies on an edge / odd crossing count
        on = 0
        inside = 0
        for a, b, tag in self.slabs.near(py):
            if on_segment(p, a, b):
                if tag == 0:
                    return Location.BOUNDARY
                on |= 1 << tag
                continue
            ax, ay = a
            bx, by = b
            if (ay > py) != (by > py):
                if ax + (py - ay) * (bx - ax) / (by - ay) > px:
                    inside ^= 1 << tag
        if not inside & 1:
            return Location.EXTERIOR
        for tag in range(1, self.holes + 1):
            bit = 1 << tag
            if on & bit:
                return Location.BOUNDARY
            if inside & bit:
                return Location.EXTERIOR
        return Location.INTERIOR


class _PreparedLines:
    """:func:`locate_on_line` / :func:`locate_on_multiline` over a slab
    index of the segments."""

    __slots__ = ("env", "boundary", "slabs")

    def __init__(self, geom: Geometry):
        if isinstance(geom, LineString):
            lines: Sequence[LineString] = (geom,)
            # the single-line walk's own envelope early-out
            self.env = geom.envelope.expanded(1e-9)
        else:
            lines = geom.lines
            self.env = None
        self.boundary = {pt.coord for pt in geom.boundary_points()}
        edges = [(a, b, 0) for line in lines for a, b in line.segments()]
        self.slabs = _Slabs(edges, geom.envelope) if edges else None

    def locate(self, p: Coord) -> Location:
        if self.env is not None and not self.env.contains_point(*p):
            return Location.EXTERIOR
        if p in self.boundary:
            return Location.BOUNDARY
        if self.slabs is not None:
            for a, b, _tag in self.slabs.near(p[1]):
                if on_segment(p, a, b):
                    return Location.INTERIOR
        return Location.EXTERIOR


def prepared_locate(geom: Geometry) -> Callable[[Coord], Location]:
    """:func:`locate_plain` against ``geom`` through slab edge indexes.

    Polygons, multipolygons, linestrings and multilinestrings are indexed;
    other types keep the plain walk. Every answer equals the plain walk's.
    """
    if isinstance(geom, Polygon):
        return _PreparedPolygon(geom).locate
    if isinstance(geom, MultiPolygon):
        parts = [_PreparedPolygon(poly).locate for poly in geom.polygons]
        return lambda p: _best(part(p) for part in parts)
    if isinstance(geom, (LineString, MultiLineString)):
        return _PreparedLines(geom).locate
    return lambda p: locate_plain(p, geom)


def _best(wheres) -> Location:
    """INTERIOR if any part says so, else BOUNDARY if any, else EXTERIOR."""
    result = Location.EXTERIOR
    for where in wheres:
        if where is Location.INTERIOR:
            return Location.INTERIOR
        if where is Location.BOUNDARY:
            result = Location.BOUNDARY
    return result
