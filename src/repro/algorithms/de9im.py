"""DE-9IM: the Dimensionally Extended 9-Intersection Model.

This module is the heart of the reproduction — the paper's topological
micro benchmark is defined directly over DE-9IM relations, so every query
in experiment J-T1/J-F1 bottoms out in :func:`relate` (or its fast-path
friends) below.

The matrix is computed by *split-and-sample*: both operands are decomposed
into tagged features (isolated points carrying their interior/boundary role,
segments tagged as curve-interior or areal-boundary). Segments of each
operand are split at every intersection with the other operand, after which
each split piece lies entirely within a single interior/boundary/exterior
class of the other geometry, so classifying one midpoint classifies the
piece. Dimension-2 entries follow from an open-set limit argument: an
areal boundary piece whose midpoint sits in the other operand's interior
proves interior/interior AND exterior/interior intersections of dimension 2
(the two open sides of the piece converge to it). The only place a numeric
epsilon appears is the shared-boundary case (piece collinear with the other
polygon's boundary), where a perpendicular side probe decides whether the
interiors lie on the same side.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.algorithms.location import Location, locate, prepared_locate
from repro.algorithms.predicates import on_segment, segment_intersection
from repro.geometry.base import Coord, Envelope, Geometry
from repro.geometry.collection import GeometryCollection
from repro.geometry.linestring import LineString, MultiLineString
from repro.geometry.point import MultiPoint, Point
from repro.geometry.polygon import MultiPolygon, Polygon

_INT, _BND, _EXT = Location.INTERIOR, Location.BOUNDARY, Location.EXTERIOR

_DIM_CHARS = {-1: "F", 0: "0", 1: "1", 2: "2"}


class DE9IM:
    """An immutable 9-intersection matrix with pattern matching."""

    __slots__ = ("_cells",)

    def __init__(self, cells: Sequence[int]):
        if len(cells) != 9:
            raise ValueError("DE-9IM needs exactly nine cells")
        self._cells = tuple(cells)

    @classmethod
    def from_string(cls, text: str) -> "DE9IM":
        mapping = {"F": -1, "0": 0, "1": 1, "2": 2}
        try:
            return cls([mapping[ch] for ch in text.upper()])
        except KeyError as exc:
            raise ValueError(f"bad DE-9IM character {exc.args[0]!r}")

    def cell(self, loc_a: Location, loc_b: Location) -> int:
        return self._cells[int(loc_a) * 3 + int(loc_b)]

    def transpose(self) -> "DE9IM":
        c = self._cells
        return DE9IM([c[0], c[3], c[6], c[1], c[4], c[7], c[2], c[5], c[8]])

    def matches(self, pattern: str) -> bool:
        """Match against a nine-character pattern of ``T F * 0 1 2``."""
        if len(pattern) != 9:
            raise ValueError("DE-9IM pattern must have nine characters")
        for value, want in zip(self._cells, pattern.upper()):
            if want == "*":
                continue
            if want == "T":
                if value < 0:
                    return False
            elif want == "F":
                if value >= 0:
                    return False
            else:
                if value != int(want):
                    return False
        return True

    def __str__(self) -> str:
        return "".join(_DIM_CHARS[c] for c in self._cells)

    def __repr__(self) -> str:
        return f"DE9IM({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DE9IM):
            return self._cells == other._cells
        if isinstance(other, str):
            return str(self) == other.upper()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._cells)


class _Matrix:
    """Mutable accumulator for intersection-dimension evidence."""

    __slots__ = ("cells",)

    def __init__(self) -> None:
        self.cells = [-1] * 9

    def bump(self, loc_a: Location, loc_b: Location, dim: int) -> None:
        idx = int(loc_a) * 3 + int(loc_b)
        if dim > self.cells[idx]:
            self.cells[idx] = dim

    def freeze(self) -> DE9IM:
        return DE9IM(self.cells)


Segment = Tuple[Coord, Coord]


class _FeatureSet:
    """Flattened, role-tagged features of one operand, and the constants
    every relate against it reuses (the prepared form of the geometry)."""

    __slots__ = (
        "geom", "points", "segments", "max_dim", "has_area",
        "areal_members", "interior_reps", "boxes", "boundary",
        "boundary_dim", "mixed", "_locator",
    )

    def __init__(self, geom: Geometry):
        self.geom = geom
        self.points: List[Tuple[Coord, Location]] = []
        # (start, end, role, interior_is_left) — role is the class the
        # segment's relative interior belongs to in its own geometry.
        self.segments: List[Tuple[Coord, Coord, Location, bool]] = []
        self.areal_members: List[Geometry] = []
        self.interior_reps: List[Coord] = []
        self._collect(geom)
        self.max_dim = geom.dimension
        self.has_area = bool(self.areal_members)
        # segment envelopes (min_x, min_y, max_x, max_y) for the gates
        self.boxes: List[Tuple[float, float, float, float]] = [
            (min(a[0], b[0]), min(a[1], b[1]), max(a[0], b[0]), max(a[1], b[1]))
            for a, b, _role, _left in self.segments
        ]
        # the vertices on the operand's boundary, and its dimension (-1
        # when empty)
        self.boundary = {p for p, role in self.points if role is _BND}
        if self.has_area:
            self.boundary_dim = 1
        elif self.boundary:
            self.boundary_dim = 0
        else:
            self.boundary_dim = -1
        # areal members mixed with lower-dimensional ones?
        self.mixed = self.has_area and (
            any(role is _INT for _, role in self.points)
            or any(role is _INT for _a, _b, role, _l in self.segments)
        )
        self._locator: Optional[Callable[[Coord], Location]] = None

    def _collect(self, geom: Geometry) -> None:
        if isinstance(geom, Point):
            self.points.append((geom.coord, _INT))
        elif isinstance(geom, MultiPoint):
            for p in geom.points:
                self.points.append((p.coord, _INT))
        elif isinstance(geom, LineString):
            self._collect_line(geom, geom.boundary_points())
        elif isinstance(geom, MultiLineString):
            boundary = {p.coord for p in geom.boundary_points()}
            for line in geom.lines:
                self._collect_line(line, None, boundary)
        elif isinstance(geom, Polygon):
            self._collect_polygon(geom)
        elif isinstance(geom, MultiPolygon):
            for poly in geom.polygons:
                self._collect_polygon(poly)
        elif isinstance(geom, GeometryCollection):
            for member in geom.geoms:
                self._collect(member)
        else:
            raise TypeError(f"cannot relate {type(geom).__name__}")

    def _collect_line(self, line, boundary_pts, boundary_set=None) -> None:
        if boundary_set is None:
            boundary_set = {p.coord for p in boundary_pts}
        # a vertex repeating a boundary point (say the end vertex doubled)
        # is that boundary point, wherever it sits in the coordinate list
        for coord in (line.coords[0], line.coords[-1], *line.coords[1:-1]):
            role = _BND if coord in boundary_set else _INT
            self.points.append((coord, role))
        for a, b in line.segments():
            self.segments.append((a, b, _INT, False))

    def _collect_polygon(self, poly: Polygon) -> None:
        self.areal_members.append(poly)
        from repro.algorithms.measures import point_on_surface

        self.interior_reps.append(point_on_surface(poly).coord)
        for ring in poly.rings():
            for coord in ring[:-1]:
                self.points.append((coord, _BND))
            for a, b in zip(ring, ring[1:]):
                if a != b:
                    # shells are CCW and holes CW, so the polygon interior is
                    # always to the left of the directed ring segment
                    self.segments.append((a, b, _BND, True))

    @property
    def locator(self) -> Callable[[Coord], Location]:
        """Edge-indexed point location, built on the first locate."""
        if self._locator is None:
            self._locator = prepared_locate(self.geom)
        return self._locator

    def locate_areal(self, p: Coord) -> Location:
        """Locate against the areal members only (used by rep-point evidence)."""
        if isinstance(self.geom, (Polygon, MultiPolygon)):
            return self.locator(p)
        best = _EXT
        for member in self.areal_members:
            where = locate(p, member)
            if where is _INT:
                return _INT
            if where is _BND:
                best = _BND
        return best


def _features_of(geom: Geometry) -> "_FeatureSet":
    """Memoised feature decomposition (prepared-geometry optimisation)."""
    cached = geom._features
    if cached is None:
        cached = _FeatureSet(geom)
        geom._features = cached
    return cached


def _segment_grid(
    segments: Sequence[Tuple[Coord, Coord, Location, bool]], cell: float
) -> Dict[Tuple[int, int], List[int]]:
    grid: Dict[Tuple[int, int], List[int]] = {}
    for idx, (a, b, _role, _left) in enumerate(segments):
        x0, x1 = sorted((a[0], b[0]))
        y0, y1 = sorted((a[1], b[1]))
        for gx in range(int(math.floor(x0 / cell)), int(math.floor(x1 / cell)) + 1):
            for gy in range(
                int(math.floor(y0 / cell)), int(math.floor(y1 / cell)) + 1
            ):
                grid.setdefault((gx, gy), []).append(idx)
    return grid


def _candidate_pairs(fa: _FeatureSet, fb: _FeatureSet) -> Iterable[Tuple[int, int]]:
    """Candidate segment pairs: envelopes meeting within the gate pad.

    A pair apart by more than the pad is one ``segment_intersection``
    rejects without an orientation, so dropping it here changes no answer.
    Small products pair every segment of ``fa`` near ``fb``'s envelope with
    every one of ``fb`` near ``fa``'s; larger ones bucket ``fb`` on a grid.
    """
    # GATE_REL * max(|coord|, 1) over both operands: never below the pad
    # segment_intersection applies to any one pair
    env_a, env_b = fa.geom.envelope, fb.geom.envelope
    pad = max(env_a.tolerance(), env_b.tolerance())
    boxes_a, boxes_b = fa.boxes, fb.boxes
    near_a = _near(boxes_a, env_b, pad)
    if len(boxes_a) * len(boxes_b) <= 4096:
        near_b = _near(boxes_b, env_a, pad)
        for i, (ax0, ay0, ax1, ay1) in near_a:
            ax0 -= pad
            ay0 -= pad
            ax1 += pad
            ay1 += pad
            for j, (bx0, by0, bx1, by1) in near_b:
                if bx0 <= ax1 and ax0 <= bx1 and by0 <= ay1 and ay0 <= by1:
                    yield (i, j)
        return
    # bucket the larger side on a uniform grid sized by its average extent
    segs_b = fb.segments
    spans = []
    for a, b, _r, _l in segs_b:
        spans.append(max(abs(b[0] - a[0]), abs(b[1] - a[1])))
    cell = max(sum(spans) / len(spans), 1e-9) * 2.0
    grid = _segment_grid(segs_b, cell)
    seen_pair = set()
    for i, (ax0, ay0, ax1, ay1) in near_a:
        for gx in range(int(math.floor(ax0 / cell)), int(math.floor(ax1 / cell)) + 1):
            for gy in range(
                int(math.floor(ay0 / cell)), int(math.floor(ay1 / cell)) + 1
            ):
                for j in grid.get((gx, gy), ()):
                    if (i, j) in seen_pair:
                        continue
                    seen_pair.add((i, j))
                    bx0, by0, bx1, by1 = boxes_b[j]
                    if (bx0 <= ax1 + pad and ax0 - pad <= bx1
                            and by0 <= ay1 + pad and ay0 - pad <= by1):
                        yield (i, j)


def _near(
    boxes: Sequence[Tuple[float, float, float, float]], env: Envelope, pad: float
) -> List[Tuple[int, Tuple[float, float, float, float]]]:
    """The indexed boxes that come within ``pad`` of ``env``."""
    x0, y0 = env.min_x - pad, env.min_y - pad
    x1, y1 = env.max_x + pad, env.max_y + pad
    return [
        (i, box) for i, box in enumerate(boxes)
        if box[0] <= x1 and x0 <= box[2] and box[1] <= y1 and y0 <= box[3]
    ]


def _seg_point_param(a: Coord, b: Coord, p: Coord) -> float:
    """Parameter of ``p`` along segment ab (projection, for sorting splits)."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    if abs(dx) >= abs(dy):
        return (p[0] - a[0]) / dx if dx else 0.0
    return (p[1] - a[1]) / dy if dy else 0.0


def _side_points(a: Coord, b: Coord, mid: Coord, eps: float) -> Tuple[Coord, Coord]:
    """Points offset perpendicular to ab at mid: (left, right)."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    norm = math.hypot(dx, dy)
    ux, uy = -dy / norm, dx / norm  # left normal
    return (
        (mid[0] + eps * ux, mid[1] + eps * uy),
        (mid[0] - eps * ux, mid[1] - eps * uy),
    )


def _open_class(where: Location, feats: _FeatureSet) -> bool:
    """Is the located class an open 2-D set for this operand?"""
    if where is _EXT:
        return True
    return where is _INT and feats.max_dim == 2 and not feats.mixed


def _disjoint_matrix(fa: _FeatureSet, fb: _FeatureSet) -> DE9IM:
    m = _Matrix()
    m.bump(_INT, _EXT, fa.max_dim)
    m.bump(_BND, _EXT, fa.boundary_dim)
    m.bump(_EXT, _INT, fb.max_dim)
    m.bump(_EXT, _BND, fb.boundary_dim)
    m.bump(_EXT, _EXT, 2)
    return m.freeze()


def relate(a: Geometry, b: Geometry) -> DE9IM:
    """Compute the full DE-9IM matrix of ``a`` against ``b``."""
    fa = _features_of(a)
    fb = _features_of(b)
    if a.is_empty or b.is_empty:
        m = _Matrix()
        m.bump(_EXT, _EXT, 2)
        if not a.is_empty:
            m.bump(_INT, _EXT, fa.max_dim)
            m.bump(_BND, _EXT, fa.boundary_dim)
        if not b.is_empty:
            m.bump(_EXT, _INT, fb.max_dim)
            m.bump(_EXT, _BND, fb.boundary_dim)
        return m.freeze()
    if not a.envelope.intersects(b.envelope):
        return _disjoint_matrix(fa, fb)

    m = _Matrix()
    m.bump(_EXT, _EXT, 2)
    # A 2-D interior can never be covered by a lower-dimensional operand.
    if fa.max_dim == 2 and fb.max_dim < 2:
        m.bump(_INT, _EXT, 2)
    if fb.max_dim == 2 and fa.max_dim < 2:
        m.bump(_EXT, _INT, 2)

    # --- 0-dimensional evidence: vertices and isolated points -------------
    for p, loc_a in fa.points:
        m.bump(loc_a, locate(p, b), 0)
    for p, loc_b in fb.points:
        m.bump(locate(p, a), loc_b, 0)

    # --- segment intersections: split points + 0-dim evidence -------------
    # Intersection points are classified *structurally*: a point produced
    # from segments i of A and j of B lies on both by construction, so its
    # location in each operand is the segment's own role (curve interior /
    # areal boundary) unless it coincides with a boundary vertex. Calling
    # ``locate`` here would be both slower and fragile — the computed
    # point carries eps*|coord| error that can defeat on-segment tests.
    splits_a: Dict[int, List[Coord]] = {}
    splits_b: Dict[int, List[Coord]] = {}
    for i, j in _candidate_pairs(fa, fb):
        sa = fa.segments[i]
        sb = fb.segments[j]
        hit = segment_intersection(sa[0], sa[1], sb[0], sb[1])
        if hit is None:
            continue
        if isinstance(hit, tuple) and hit and isinstance(hit[0], tuple):
            points = list(hit)
        else:
            points = [hit]  # type: ignore[list-item]
        for p in points:
            splits_a.setdefault(i, []).append(p)
            splits_b.setdefault(j, []).append(p)
            loc_a = _BND if p in fa.boundary else sa[2]
            loc_b = _BND if p in fb.boundary else sb[2]
            m.bump(loc_a, loc_b, 0)
    # isolated points of one operand can split the other's segments too;
    # only points within the other operand's envelope widened by the
    # scan's own 1e-9 pad can lie on one of its segments
    _split_at_points(fb.segments, _points_near(fa, b.envelope), splits_b)
    _split_at_points(fa.segments, _points_near(fb, a.envelope), splits_a)

    # --- 1-dimensional evidence: classified split pieces -------------------
    _sample_pieces(m, fa, fb, splits_a, transposed=False)
    _sample_pieces(m, fb, fa, splits_b, transposed=True)

    # --- representative interior points of areal members -------------------
    for p in fa.interior_reps:
        where = locate(p, b)
        m.bump(_INT, where, 0)
        if where is _EXT:
            m.bump(_INT, _EXT, 2)
        elif where is _INT and fb.has_area and fb.locate_areal(p) is _INT:
            m.bump(_INT, _INT, 2)
    for p in fb.interior_reps:
        where = locate(p, a)
        m.bump(where, _INT, 0)
        if where is _EXT:
            m.bump(_EXT, _INT, 2)
        elif where is _INT and fa.has_area and fa.locate_areal(p) is _INT:
            m.bump(_INT, _INT, 2)

    return m.freeze()


def _points_near(feats: _FeatureSet, env: Envelope) -> List[Coord]:
    x0, y0 = env.min_x - 1e-9, env.min_y - 1e-9
    x1, y1 = env.max_x + 1e-9, env.max_y + 1e-9
    return [p for p, _loc in feats.points if x0 <= p[0] <= x1 and y0 <= p[1] <= y1]


def _split_at_points(
    segments: Sequence[Tuple[Coord, Coord, Location, bool]],
    points: Sequence[Coord],
    splits: Dict[int, List[Coord]],
) -> None:
    if not points:
        return
    for j, (c, d, _role, _left) in enumerate(segments):
        for p in points:
            if _between_env(p, c, d) and on_segment(p, c, d):
                splits.setdefault(j, []).append(p)


def _between_env(p: Coord, c: Coord, d: Coord) -> bool:
    return (
        min(c[0], d[0]) - 1e-9 <= p[0] <= max(c[0], d[0]) + 1e-9
        and min(c[1], d[1]) - 1e-9 <= p[1] <= max(c[1], d[1]) + 1e-9
    )


def _sample_pieces(
    m: _Matrix,
    fa: _FeatureSet,
    fb: _FeatureSet,
    splits: Dict[int, List[Coord]],
    transposed: bool,
) -> None:
    """Classify every split piece of ``fa``'s segments against ``fb``.

    When ``transposed`` the evidence is recorded with the roles swapped so
    the same routine serves both operands.
    """

    def bump(loc_a: Location, loc_b: Location, dim: int) -> None:
        if transposed:
            m.bump(loc_b, loc_a, dim)
        else:
            m.bump(loc_a, loc_b, dim)

    for idx, (a, b, role, interior_left) in enumerate(fa.segments):
        cut_params = [0.0, 1.0]
        for p in splits.get(idx, ()):
            t = _seg_point_param(a, b, p)
            if 0.0 < t < 1.0:
                cut_params.append(t)
        cut_params.sort()
        for t0, t1 in zip(cut_params, cut_params[1:]):
            if t1 - t0 <= 1e-12:
                continue
            tm = (t0 + t1) / 2.0
            mid = (a[0] + tm * (b[0] - a[0]), a[1] + tm * (b[1] - a[1]))
            where = locate(mid, fb.geom)
            bump(role, where, 1)
            if role is not _BND or not fa.has_area:
                continue
            # Areal boundary piece: its two open sides prove 2-D entries.
            if where is _INT and _open_class(_INT, fb):
                bump(_INT, _INT, 2)
                bump(_EXT, _INT, 2)
            elif where is _EXT:
                bump(_INT, _EXT, 2)
                bump(_EXT, _EXT, 2)
            elif where is _BND and fb.has_area:
                piece_len = math.hypot(b[0] - a[0], b[1] - a[1]) * (t1 - t0)
                eps = piece_len * 1e-3
                left, right = _side_points(a, b, mid, eps)
                loc_a_left = _INT if interior_left else _EXT
                loc_a_right = _EXT if interior_left else _INT
                for side, loc_a_side in ((left, loc_a_left), (right, loc_a_right)):
                    loc_b_side = fb.locate_areal(side)
                    if loc_b_side is not _BND:
                        bump(loc_a_side, loc_b_side, 2)


# ---------------------------------------------------------------------------
# named predicates
# ---------------------------------------------------------------------------


def relate_pattern(a: Geometry, b: Geometry, pattern: str) -> bool:
    """``ST_Relate(a, b, pattern)``."""
    return relate(a, b).matches(pattern)


def equals(a: Geometry, b: Geometry) -> bool:
    """Topological equality: same point set."""
    if a.is_empty or b.is_empty:
        return a.is_empty and b.is_empty
    if a.dimension != b.dimension:
        return False
    if a.envelope != b.envelope:
        return False
    return relate(a, b).matches("T*F**FFF*")


def disjoint(a: Geometry, b: Geometry) -> bool:
    if a.is_empty or b.is_empty:
        return True
    if not a.envelope.intersects(b.envelope):
        return True
    return relate(a, b).matches("FF*FF****")


def intersects(a: Geometry, b: Geometry) -> bool:
    """Fast-path intersects: envelope filter, then direct crossing search.

    This is by far the hottest predicate of the topological micro suite,
    so it avoids building the full matrix: any vertex membership or any
    segment intersection proves it; containment is checked by representative
    points both ways.
    """
    if a.is_empty or b.is_empty:
        return False
    if not a.envelope.intersects(b.envelope):
        return False
    fa = _features_of(a)
    fb = _features_of(b)
    env_b = b.envelope
    for p, _loc in fa.points:
        if env_b.contains_point(*p) and locate(p, b) is not _EXT:
            return True
    env_a = a.envelope
    for p, _loc in fb.points:
        if env_a.contains_point(*p) and locate(p, a) is not _EXT:
            return True
    for i, j in _candidate_pairs(fa, fb):
        sa = fa.segments[i]
        sb = fb.segments[j]
        if segment_intersection(sa[0], sa[1], sb[0], sb[1]) is not None:
            return True
    # no boundary contact: one operand may still contain the other
    if fa.has_area:
        p = next(fb.geom.coords_iter())
        if fa.locate_areal(p) is not _EXT:
            return True
    if fb.has_area:
        p = next(fa.geom.coords_iter())
        if fb.locate_areal(p) is not _EXT:
            return True
    return False


def touches(a: Geometry, b: Geometry) -> bool:
    """Boundaries meet, interiors do not."""
    if a.is_empty or b.is_empty:
        return False
    if a.dimension == 0 and b.dimension == 0:
        return False  # two points have empty boundaries: never touch
    if not a.envelope.intersects(b.envelope):
        return False
    matrix = relate(a, b)
    return (
        matrix.matches("FT*******")
        or matrix.matches("F**T*****")
        or matrix.matches("F***T****")
    )


def crosses(a: Geometry, b: Geometry) -> bool:
    if a.is_empty or b.is_empty:
        return False
    if not a.envelope.intersects(b.envelope):
        return False
    da, db = a.dimension, b.dimension
    if da == 1 and db == 1:
        return relate(a, b).matches("0********")
    if da < db:
        return relate(a, b).matches("T*T******")
    if da > db:
        return relate(a, b).matches("T*****T**")
    return False


def within(a: Geometry, b: Geometry) -> bool:
    if a.is_empty or b.is_empty:
        return False
    if not b.envelope.padded().contains(a.envelope):
        return False
    # dedicated puntal path: point-in-polygon is the hottest containment
    # query in the benchmark and needs no matrix machinery
    if isinstance(a, Point):
        return locate(a.coord, b) is _INT
    if isinstance(a, MultiPoint):
        wheres = [locate(p.coord, b) for p in a.points]
        return all(w is not _EXT for w in wheres) and any(
            w is _INT for w in wheres
        )
    return relate(a, b).matches("T*F**F***")


def contains(a: Geometry, b: Geometry) -> bool:
    return within(b, a)


def overlaps(a: Geometry, b: Geometry) -> bool:
    if a.is_empty or b.is_empty:
        return False
    da, db = a.dimension, b.dimension
    if da != db:
        return False
    if not a.envelope.intersects(b.envelope):
        return False
    if da == 1:
        return relate(a, b).matches("1*T***T**")
    return relate(a, b).matches("T*T***T**")


def covers(a: Geometry, b: Geometry) -> bool:
    if a.is_empty or b.is_empty:
        return False
    if not a.envelope.padded().contains(b.envelope):
        return False
    matrix = relate(a, b)
    return (
        matrix.matches("T*****FF*")
        or matrix.matches("*T****FF*")
        or matrix.matches("***T**FF*")
        or matrix.matches("****T*FF*")
    )


def covered_by(a: Geometry, b: Geometry) -> bool:
    return covers(b, a)
