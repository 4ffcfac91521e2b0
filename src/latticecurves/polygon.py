"""Exact geometry of lattice polygons.

Polygons are stored in canonical order: counterclockwise, first vertex
lexicographically smallest.  Points and segments are first-class degenerate
polygons with normalized volume 0; operations that need a two-dimensional
polygon raise :class:`DegeneratePolygon`.

All arithmetic is exact (Python integers and fractions); no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import ceil, floor, gcd

from .errors import DegeneratePolygon

Point = tuple[int, int]


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_vertices(points) -> tuple[Point, ...]:
    """Monotone-chain hull; strict turns only, so output is the exact vertex set."""
    pts = sorted(set((int(x), int(y)) for x, y in points))
    if not pts:
        raise ValueError("empty point list")
    if len(pts) == 1:
        return (pts[0],)
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 2 and hull[0] == hull[1]:
        return (hull[0],)
    if len(lower) == len(pts) and len(upper) == len(pts):
        # all collinear: keep the two endpoints
        return (pts[0], pts[-1])
    return tuple(hull)


def _slice(halfplanes, t: int) -> tuple[Fraction, Fraction] | None:
    """Real bounds of {s : n0*t + n1*s >= c for every (n0, n1, c)}, or None if empty.

    The half-planes must cut out a bounded region, so every nonempty slice
    has both a lower and an upper bound.
    """
    lo = hi = None
    for n0, n1, c in halfplanes:
        if n1 > 0:
            bound = Fraction(c - n0 * t, n1)
            if lo is None or bound > lo:
                lo = bound
        elif n1 < 0:
            bound = Fraction(c - n0 * t, n1)
            if hi is None or bound < hi:
                hi = bound
        elif n0 * t < c:
            return None
    return None if lo > hi else (lo, hi)


def _canonical_order(verts: tuple[Point, ...]) -> tuple[Point, ...]:
    """Rotate a CCW vertex cycle so the lexicographic minimum comes first."""
    i = verts.index(min(verts))
    return verts[i:] + verts[:i]


@dataclass(frozen=True)
class LatticePolygon:
    """Convex polygon with integer vertices, possibly degenerate."""

    vertices: tuple[Point, ...]

    @staticmethod
    def hull(points) -> "LatticePolygon":
        return LatticePolygon(_canonical_order(_hull_vertices(points)))

    @property
    def is_point(self) -> bool:
        return len(self.vertices) == 1

    @property
    def is_segment(self) -> bool:
        return len(self.vertices) == 2

    @property
    def is_degenerate(self) -> bool:
        return len(self.vertices) <= 2

    def edges(self):
        """Directed edge list (v_i, v_{i+1}) along the CCW boundary."""
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    @cached_property
    def volume(self) -> int:
        """Normalized volume: twice the euclidean area."""
        if self.is_degenerate:
            return 0
        v = self.vertices
        s = 0
        for i in range(len(v)):
            p, q = v[i], v[(i + 1) % len(v)]
            s += p[0] * q[1] - p[1] * q[0]
        return s

    @cached_property
    def boundary_count(self) -> int:
        if self.is_point:
            return 1
        if self.is_segment:
            (x0, y0), (x1, y1) = self.vertices
            return gcd(x1 - x0, y1 - y0) + 1
        return sum(gcd(b[0] - a[0], b[1] - a[1]) for a, b in self.edges())

    @cached_property
    def interior_count(self) -> int:
        if self.is_degenerate:
            return 0
        # Pick: vol = 2i + b - 2
        vol, b = self.volume, self.boundary_count
        assert (vol - b) % 2 == 0
        return (vol - b + 2) // 2

    def lattice_counts(self) -> tuple[int, int, int]:
        """(total, boundary, interior) lattice point counts."""
        b, i = self.boundary_count, self.interior_count
        return b + i, b, i

    def lattice_points(self) -> list[Point]:
        """All lattice points, sorted lexicographically."""
        if self.is_point:
            return [self.vertices[0]]
        if self.is_segment:
            x0, y0 = self.vertices[0]
            (dx, dy), g = _edge_multiset(self)[0]
            return sorted((x0 + k * dx, y0 + k * dy) for k in range(g + 1))
        xs = [x for x, _ in self.vertices]
        # n . p >= -a for each inward normal n with ample coefficient a
        halfplanes = [(nx, ny, -a) for (nx, ny), a in self.ample_coefficients()]
        pts = []
        for x in range(min(xs), max(xs) + 1):
            bounds = _slice(halfplanes, x)
            if bounds is not None:
                pts.extend((x, y) for y in range(ceil(bounds[0]), floor(bounds[1]) + 1))
        return pts

    def contains(self, p: Point) -> bool:
        if self.is_point:
            return p == self.vertices[0]
        if self.is_segment:
            a, b = self.vertices
            if _cross(a, b, p) != 0:
                return False
            return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
                    and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))
        return all(_cross(a, b, p) >= 0 for a, b in self.edges())

    def translate(self, dx: int, dy: int) -> "LatticePolygon":
        return LatticePolygon(tuple((x + dx, y + dy) for x, y in self.vertices))

    def translated_to_origin(self) -> "LatticePolygon":
        x0, y0 = min(self.vertices)
        return self.translate(-x0, -y0)

    def normal_fan(self) -> list[tuple[Point, int]]:
        """One (inward primitive normal, edge lattice length) pair per edge."""
        if self.is_degenerate:
            raise DegeneratePolygon("normal fan needs a two-dimensional polygon")
        return [((-dy, dx), g) for (dx, dy), g in _edge_multiset(self)]

    def ample_coefficients(self) -> list[tuple[Point, int]]:
        """Coefficients a_i = -min over the polygon of w . v_i, in fan order."""
        if self.is_degenerate:
            raise DegeneratePolygon("ample coefficients need a two-dimensional polygon")
        out = []
        for ray, _length in self.normal_fan():
            m = min(x * ray[0] + y * ray[1] for x, y in self.vertices)
            out.append((ray, -m))
        return out

    def width_in_direction(self, v: Point) -> int:
        vals = [x * v[0] + y * v[1] for x, y in self.vertices]
        return max(vals) - min(vals)

    def lattice_width(self) -> tuple[int, Point]:
        """Minimal spread of a primitive linear form, with one minimizing direction.

        Ties are broken by the lexicographically smallest key (|a|+|b|, a, b)
        over directions normalized to a > 0, or a = 0 and b > 0.
        """
        if self.is_point:
            return 0, (0, 1)
        if self.is_segment:
            (dx, dy), _ = _edge_multiset(self)[0]
            # width 0 along either normal; normalize the representative
            cands = [(-dy, dx), (dy, -dx)]
            cands = [c for c in cands if c[0] > 0 or (c[0] == 0 and c[1] > 0)]
            return 0, min(cands, key=lambda c: (abs(c[0]) + abs(c[1]), c[0], c[1]))
        # difference body K = polygon - polygon; width_v = max over K of w.v
        diff = _hull_vertices(
            (p[0] - q[0], p[1] - q[1])
            for p in self.vertices
            for q in self.vertices
        )
        seed = [(0, 1), (1, 0)] + [r for r, _ in self.normal_fan()]
        bound = min(self.width_in_direction(v) for v in seed)
        # a*wx + b*wy <= bound for every w in K; the slice a = 0 holds b = 0
        halfplanes = [(-wx, -wy, -bound) for wx, wy in diff]
        best = None
        for a in count():
            bounds = _slice(halfplanes, a)
            if bounds is None:
                break
            for b in range(ceil(bounds[0]), floor(bounds[1]) + 1):
                if a == 0 and b <= 0:
                    continue
                if gcd(a, b) != 1:
                    continue
                w = self.width_in_direction((a, b))
                key = (w, abs(a) + abs(b), a, b)
                if best is None or key < best[0]:
                    best = (key, (a, b))
        assert best is not None
        return best[0][0], best[1]

    def to_json(self) -> dict:
        return {"vertices": [[x, y] for x, y in self.vertices]}

    @staticmethod
    def from_json(obj: dict) -> "LatticePolygon":
        return LatticePolygon.hull((int(x), int(y)) for x, y in obj["vertices"])


def convex_hull(points) -> LatticePolygon:
    """Canonical-order hull of a nonempty list of integer points."""
    return LatticePolygon.hull(points)


def polygon(*points) -> LatticePolygon:
    """Convenience constructor: polygon((0,0), (2,1), (1,2))."""
    return LatticePolygon.hull(points)


def minkowski_sum(a: LatticePolygon, b: LatticePolygon) -> LatticePolygon:
    return LatticePolygon.hull(
        (p[0] + q[0], p[1] + q[1]) for p in a.vertices for q in b.vertices
    )


def mixed_volume(a: LatticePolygon, b: LatticePolygon) -> Fraction:
    """vol(A,B) = (vol(A+B) - vol(A) - vol(B)) / 2."""
    return Fraction(minkowski_sum(a, b).volume - a.volume - b.volume, 2)


@dataclass(frozen=True)
class UnimodularMap:
    """Affine map x -> linear . x + translation with |det linear| = 1."""

    linear: tuple[tuple[int, int], tuple[int, int]]
    translation: tuple[int, int]

    def __post_init__(self):
        (a, b), (c, d) = self.linear
        if abs(a * d - b * c) != 1:
            raise ValueError("linear part must have determinant +-1")

    def apply_point(self, p: Point) -> Point:
        (a, b), (c, d) = self.linear
        return (a * p[0] + b * p[1] + self.translation[0],
                c * p[0] + d * p[1] + self.translation[1])

    def apply(self, poly: LatticePolygon) -> LatticePolygon:
        return LatticePolygon.hull(self.apply_point(p) for p in poly.vertices)

    @staticmethod
    def compose(outer: "UnimodularMap", inner: "UnimodularMap") -> "UnimodularMap":
        (a, b), (c, d) = outer.linear
        (e, f), (g, h) = inner.linear
        lin = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
        t = outer.apply_point(inner.translation)
        return UnimodularMap(lin, t)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), (1 if a > 0 else -1) if a else 0, 0)
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def _align_matrix(d: Point) -> tuple[tuple[int, int], tuple[int, int]]:
    """Determinant-one matrix sending the primitive vector d to (1, 0)."""
    p, q = d
    _, s, r = _egcd(p, q)  # p*s + q*r = 1
    return ((s, r), (-q, p))


def _anchored_images(poly: LatticePolygon):
    """All (vertex, incident edge) normalizations of a nondegenerate polygon.

    Each candidate maps the anchor vertex to the origin, the edge to the
    positive x-axis and the polygon into the upper half-plane; the remaining
    shear freedom is pinned by reducing the other incident edge modulo it.
    Yields (canonical vertex tuple, UnimodularMap).
    """
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        for j in (1, -1):  # outgoing and incoming boundary edge
            v = verts[i]
            w = verts[(i + j) % n]
            dx, dy = w[0] - v[0], w[1] - v[1]
            g = gcd(dx, dy)
            lin = _align_matrix((dx // g, dy // g))
            base = UnimodularMap(lin, (0, 0))
            img = [base.apply_point((p[0] - v[0], p[1] - v[1])) for p in verts]
            if any(y < 0 for _, y in img):
                refl = UnimodularMap(((1, 0), (0, -1)), (0, 0))
                base = UnimodularMap.compose(refl, base)
                img = [(x, -y) for x, y in img]
            # other incident edge at the origin: the neighbor opposite to w
            ox, oy = img[(i - j) % n]
            assert oy > 0
            shear = -(ox // oy)
            smap = UnimodularMap(((1, shear), (0, 1)), (0, 0))
            full = UnimodularMap.compose(smap, base)
            canon = _canonical_order(_hull_vertices(smap.apply_point(p) for p in img))
            # fold the anchor translation into the map
            (a, b), (c, d) = full.linear
            t = (-(a * v[0] + b * v[1]), -(c * v[0] + d * v[1]))
            yield canon, UnimodularMap(full.linear, t)


def canonical_form(poly: LatticePolygon) -> tuple[LatticePolygon, UnimodularMap]:
    """Deterministic representative of the affine unimodular equivalence class."""
    if poly.is_point:
        x0, y0 = poly.vertices[0]
        return (LatticePolygon(((0, 0),)),
                UnimodularMap(((1, 0), (0, 1)), (-x0, -y0)))
    if poly.is_segment:
        (x0, y0), (x1, y1) = poly.vertices
        g = gcd(x1 - x0, y1 - y0)
        lin = _align_matrix(((x1 - x0) // g, (y1 - y0) // g))
        m = UnimodularMap(lin, (0, 0))
        t = m.apply_point((x0, y0))
        full = UnimodularMap(lin, (-t[0], -t[1]))
        return LatticePolygon(((0, 0), (g, 0))), full
    best = min(_anchored_images(poly), key=lambda c: c[0])
    return LatticePolygon(best[0]), best[1]


def equivalent(a: LatticePolygon, b: LatticePolygon) -> bool:
    return canonical_form(a)[0] == canonical_form(b)[0]


def _edge_multiset(poly: LatticePolygon) -> list[tuple[Point, int]]:
    """(primitive edge vector, lattice length) per edge, CCW order."""
    out = []
    for (x0, y0), (x1, y1) in poly.edges():
        dx, dy = x1 - x0, y1 - y0
        g = gcd(dx, dy)
        out.append(((dx // g, dy // g), g))
    return out


def _polygon_from_edges(edges: list[tuple[Point, int]]) -> LatticePolygon:
    """Rebuild the summand polygon from a sub-multiset of a CCW edge list.

    The sub-multiset keeps the cyclic angle order of the edges, so walking
    it traces the summand's boundary.
    """
    pts = [(0, 0)]
    x = y = 0
    for (dx, dy), mult in edges:
        x += dx * mult
        y += dy * mult
        pts.append((x, y))
    assert pts[-1] == (0, 0)
    return LatticePolygon.hull(pts).translated_to_origin()


def minkowski_decompositions(
    poly: LatticePolygon, limit: int = 1_000_000
) -> list[tuple[LatticePolygon, LatticePolygon]]:
    """All nontrivial Minkowski decompositions, up to swap and translation.

    Each edge contributes a stack of identical primitive segments; a summand
    corresponds to a sub-multiset whose vectors sum to zero.  Empty result
    means the polygon is integrally indecomposable.
    """
    if poly.is_point:
        return []
    edges = _edge_multiset(poly)
    counts = [g for _, g in edges]
    total_combos = 1
    for g in counts:
        total_combos *= g + 1
    if total_combos > limit:
        raise ValueError(f"decomposition search space {total_combos} exceeds limit {limit}")
    n = len(edges)
    rem_x = [0] * (n + 1)
    rem_y = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        (dx, dy), g = edges[i]
        rem_x[i] = rem_x[i + 1] + abs(dx) * g
        rem_y[i] = rem_y[i + 1] + abs(dy) * g
    found = []

    def dfs(i, sx, sy, chosen):
        if abs(sx) > rem_x[i] or abs(sy) > rem_y[i]:
            return
        if i == n:
            if sx == 0 and sy == 0:
                total = sum(chosen)
                if 0 < total < sum(counts):
                    found.append(tuple(chosen))
            return
        (dx, dy), g = edges[i]
        for c in range(g + 1):
            chosen.append(c)
            dfs(i + 1, sx + c * dx, sy + c * dy, chosen)
            chosen.pop()

    dfs(0, 0, 0, [])
    pairs = {}
    for choice in found:
        comp = tuple(g - c for g, c in zip(counts, choice))
        if comp < choice:
            continue  # complement pair already generated
        p1 = _polygon_from_edges(
            [(e, c) for (e, _), c in zip(edges, choice) if c > 0]
        )
        p2 = _polygon_from_edges(
            [(e, c) for (e, _), c in zip(edges, comp) if c > 0]
        )
        key = tuple(sorted([p1.vertices, p2.vertices]))
        pairs[key] = (p1, p2) if p1.vertices <= p2.vertices else (p2, p1)
    return [pairs[k] for k in sorted(pairs)]


def enumerate_polygons(coord_max: int = 3, volume_max: int = 6) -> list[LatticePolygon]:
    """Hulls of all subsets of the [0, coord_max]^2 grid, up to equivalence.

    Self-check enumerator for small-volume datasets; keeps polygons (including
    degenerate ones) with normalized volume <= volume_max.  The search grows
    distinct hulls one grid point at a time: adding the vertices of a subset's
    hull one by one reaches that hull, and every intermediate hull lies inside
    it, so hulls above volume_max can be dropped as soon as they appear.
    """
    grid = [(x, y) for x in range(coord_max + 1) for y in range(coord_max + 1)]
    hulls = set()
    frontier = [()]
    while frontier:
        grown = []
        for verts in frontier:
            for p in grid:
                h = LatticePolygon.hull(verts + (p,))
                if h.vertices not in hulls and h.volume <= volume_max:
                    hulls.add(h.vertices)
                    grown.append(h.vertices)
        frontier = grown
    seen = {}
    for p in {LatticePolygon(verts).translated_to_origin() for verts in hulls}:
        key = canonical_form(p)[0].vertices
        if key not in seen:
            seen[key] = LatticePolygon(key)
    return [seen[k] for k in sorted(seen)]
