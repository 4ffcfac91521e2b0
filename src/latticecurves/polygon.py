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
from itertools import count, product
from math import gcd, prod
from operator import index

from .errors import DegeneratePolygon, RangeError

Point = tuple[int, int]


def json_int(x) -> int:
    """x as an int, where x was read from JSON: a float raises TypeError, and
    so does true or false, which `index` alone would take as 1 or 0."""
    if isinstance(x, bool):
        raise TypeError("'bool' object is not a JSON integer")
    return index(x)


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_vertices(points) -> tuple[Point, ...]:
    """Monotone-chain hull; strict turns only, so output is the exact vertex set,
    counterclockwise from the least vertex (the lower chain starts there)."""
    pts = sorted(set((index(x), index(y)) for x, y in points))
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
    # the pops on collinear turns leave just the two endpoints of a segment
    return tuple(lower[:-1] + upper[:-1])


def _slice(halfplanes, t: int) -> tuple[int, int] | None:
    """Integer bounds (ceil lo, floor hi) of the real slice
    {s : n0*t + n1*s >= c for every (n0, n1, c)}, or None if that is empty.

    A nonempty slice may hold no integer, and then ceil lo > floor hi.  The
    real bounds are kept as fractions (num, den) with den > 0 and compared
    by cross-multiplication.  The half-planes must cut out a bounded region,
    so every nonempty slice has both a lower and an upper bound, as the CCW
    edge half-planes of a two-dimensional polygon do (`reduced_slices`).
    """
    lo = hi = None
    for n0, n1, c in halfplanes:
        if n1 > 0:
            num, den = c - n0 * t, n1
            if lo is None or num * lo[1] > lo[0] * den:
                lo = num, den
        elif n1 < 0:
            num, den = n0 * t - c, -n1
            if hi is None or num * hi[1] < hi[0] * den:
                hi = num, den
        elif n0 * t < c:
            return None
    if lo[0] * hi[1] > hi[0] * lo[1]:
        return None
    return -(-lo[0] // lo[1]), hi[0] // hi[1]


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
        return LatticePolygon(_hull_vertices(points))

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
        """All lattice points, sorted lexicographically, sliced in the reduced basis."""
        if self.is_point:
            return [self.vertices[0]]
        if self.is_segment:
            x0, y0 = self.vertices[0]
            (dx, dy), g = _edge_multiset(self)[0]
            return sorted((x0 + k * dx, y0 + k * dy) for k in range(g + 1))
        (p, q), (r, s), img = self._reduced
        x0, lw = min(img.vertices)[0], img.width_in_direction((1, 0))
        pts = [(x0 + t, y) for t, (lo, hi) in enumerate(self.reduced_slices(range(lw + 1)))
               for y in range(lo, hi + 1)]
        if img is self:
            return pts
        det = p * s - q * r  # the inverse of ((p, q), (r, s)) is det * ((s, -q), (-r, p))
        return sorted((det * (s * x - q * y), det * (p * y - r * x)) for x, y in pts)

    def reduced_slices(self, offsets=None, length=0):
        """Lazily, for each 0 <= t <= lw in offsets, the integer bounds (lo, hi) of y on the
        slice x = x0 + t of the reduced image (`_reduced`), x0 its least x; lo > hi when it
        holds no lattice point.  The end slices t = 0 and t = lw hold a vertex each.  With no
        offsets, every t whose real slice is at least `length` long: one range, as the real
        length is concave in t, which a half-line in t per pair of edges cuts out."""
        img = self._reduced[2]
        x0, x1 = min(x for x, _ in img.vertices), max(x for x, _ in img.vertices)
        # n . v >= n . u for each CCW edge u -> w, n = (u_y - w_y, w_x - u_x)
        # its inward normal; the edges of a two-dimensional polygon bound it
        halfplanes = [(uy - wy, wx - ux, (uy - wy) * ux + (wx - ux) * uy)
                      for (ux, uy), (wx, wy) in img.edges()]
        if offsets is None:  # upper minus lower bound, (c - n0 x)/n1 - (d - m0 x)/m1 >= length
            ts = [(0, a, c * m1 - d * n1 - length * n1 * m1 - a * x0) for n0, n1, c in halfplanes
                  if n1 < 0 for m0, m1, d in halfplanes if m1 > 0 for a in [n0 * m1 - m0 * n1]]
            lo, hi = _slice(ts + [(0, 1, 0), (0, -1, x0 - x1)], 0) or (0, -1)
            offsets = range(lo, hi + 1)
        return (_slice(halfplanes, x0 + t) for t in offsets)

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

    def ample_coefficients(self) -> list[tuple[Point, int]]:
        """(inward primitive normal w, -min over the polygon of w . v) per CCW edge."""
        if self.is_degenerate:
            raise DegeneratePolygon("ample coefficients need a two-dimensional polygon")
        return [((-dy, dx), -min(dx * y - dy * x for x, y in self.vertices))
                for (dx, dy), _ in _edge_multiset(self)]

    def width_in_direction(self, v: Point) -> int:
        vals = [x * v[0] + y * v[1] for x, y in self.vertices]
        return max(vals) - min(vals)

    def lattice_width(self) -> tuple[int, Point]:
        """Minimal spread of a primitive linear form, with one minimizing direction.

        Ties are broken by the lexicographically smallest key (|a|+|b|, a, b)
        over directions normalized to a > 0, or a = 0 and b > 0.
        """
        return self._lattice_width

    @cached_property
    def _lattice_width(self) -> tuple[int, Point]:
        if self.is_point:
            return 0, (0, 1)
        if self.is_segment:
            (dx, dy), _ = _edge_multiset(self)[0]
            # width 0 along either normal; return the normalized one
            return 0, ((-dy, dx) if dy < 0 or (dy == 0 and dx > 0) else (dy, -dx))
        (p, q), (r, s), img = self._reduced
        lw, n2 = img.width_in_direction((1, 0)), img.width_in_direction((0, 1))
        # w = (x, y) in the image is x b1 + y b2, and N(b2 + k b1) >= n2 >= lw for every k, so
        # with k nearest x/y the triangle inequality gives N(w) >= |y| (n2 - lw/2) and
        # N(w) >= |x| lw - |y| n2: if n2 > lw only (1, 0) is lw wide, else |y| <= 2, |x| <= 1 + |y|.
        near = [(1, 0)] if n2 > lw else [(1, 0), *((x, 1) for x in range(-2, 3)),
                                          *((x, 2) for x in (-3, -1, 1, 3))]
        signed = [(x * p + y * r, x * q + y * s) for x, y in near
                  if img.width_in_direction((x, y)) == lw]
        _, a, b = min((abs(a) + abs(b), a, b) for a, b in (max(d, (-d[0], -d[1])) for d in signed))
        return lw, (a, b)

    @cached_property
    def _reduced(self) -> tuple[Point, Point, "LatticePolygon"]:
        """(b1, b2, image v -> (b1 . v, b2 . v)) with N(b1) <= N(b2) <= N(b2 +- b1), N the
        width_in_direction norm (generalized Gauss reduction, Kaib and Schnorr, J. Algorithms
        21, 1996): N(b1) is the lattice width, and ties keep the standard basis."""
        N = self.width_in_direction
        b1, b2, n1, n2 = (1, 0), (0, 1), N((1, 0)), N((0, 1))
        while True:  # rounds logarithmic in the coordinates
            if n2 < n1:
                b1, b2, n1, n2 = b2, b1, n2, n1
            # k -> N(b2 - k b1) is convex: gallop from 0 the way it falls, bisect
            f = lambda k: N((b2[0] - k * b1[0], b2[1] - k * b1[1]))
            s = 1 if f(1) < n2 else -1 if f(-1) < n2 else 0
            lo, hi = 0, 1  # f falls on the step from s * lo and not on the one from s * hi
            while s and f(s * hi + s) < f(s * hi):
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if f(s * mid + s) < f(s * mid) else (lo, mid)
            b2, n2 = (b2[0] - s * hi * b1[0], b2[1] - s * hi * b1[1]), f(s * hi)
            if n2 >= n1:
                break
        if (b1, b2) == ((1, 0), (0, 1)):
            return b1, b2, self
        img = [(b1[0] * x + b1[1] * y, b2[0] * x + b2[1] * y) for x, y in self.vertices]
        det = b1[0] * b2[1] - b1[1] * b2[0]  # -1 reverses the CCW cycle
        return b1, b2, LatticePolygon(_canonical_order(tuple(img[::det])))

    def to_json(self) -> dict:
        return {"vertices": [[x, y] for x, y in self.vertices]}

    @staticmethod
    def from_json(obj: dict) -> "LatticePolygon":
        return LatticePolygon.hull((json_int(x), json_int(y)) for x, y in obj["vertices"])


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


def canonical_form(poly: LatticePolygon) -> LatticePolygon:
    """Deterministic representative of the affine unimodular equivalence class.

    Each anchor (vertex, incident edge) is sent to the origin, its edge to the
    positive x-axis and the polygon into the upper half-plane; the remaining
    shear freedom is pinned by reducing the other incident edge modulo it.
    The least image vertex cycle is the representative.
    """
    verts = poly.vertices
    n = len(verts)
    if n == 1:
        return LatticePolygon(((0, 0),))
    if n == 2:
        (x0, y0), (x1, y1) = verts
        return LatticePolygon(((0, 0), (gcd(x1 - x0, y1 - y0), 0)))
    best = None
    for i, (vx, vy) in enumerate(verts):
        for j in (1, -1):  # outgoing and incoming boundary edge
            wx, wy = verts[(i + j) % n]
            g = gcd(wx - vx, wy - vy)
            p, q = (wx - vx) // g, (wy - vy) // g
            # ((s, r), (-q, p)) has determinant one and sends (p, q) to (1, 0)
            s = pow(p, -1, abs(q)) if q else p
            r = (1 - p * s) // q if q else 0
            # image of the other neighbour; reflect (e = -1) if it lies below
            ox, oy = verts[(i - j) % n]
            ox, oy = s * (ox - vx) + r * (oy - vy), p * (oy - vy) - q * (ox - vx)
            e = 1 if oy > 0 else -1
            k = ox // (e * oy)  # then shear by -k
            img = []
            for x, y in verts:
                x, y = x - vx, y - vy
                h = e * (p * y - q * x)
                img.append((s * x + r * y - k * h, h))
            if e < 0:
                img.reverse()  # the reflection reversed the orientation
            cand = _canonical_order(tuple(img))
            if best is None or cand < best:
                best = cand
    return LatticePolygon(best)


def equivalent(a: LatticePolygon, b: LatticePolygon) -> bool:
    """Whether a unimodular affine map sends a onto b; equal vertex
    cycles need no canonical form."""
    return a == b or canonical_form(a) == canonical_form(b)


def _edge_multiset(poly: LatticePolygon) -> list[tuple[Point, int]]:
    """(primitive edge vector, lattice length) per edge, CCW order."""
    out = []
    for (x0, y0), (x1, y1) in poly.edges():
        dx, dy = x1 - x0, y1 - y0
        g = gcd(dx, dy)
        out.append(((dx // g, dy // g), g))
    return out


def _polygon_from_edges(edges: list[tuple[Point, int]], counts: list[int]) -> LatticePolygon:
    """The summand that takes counts[i] of the segments of each CCW edge i.

    The taken segments keep the cyclic angle order of the edges, so their
    partial sums trace the summand's boundary.
    """
    pts = [(0, 0)]
    for ((dx, dy), _), c in zip(edges, counts):
        x, y = pts[-1]
        pts.append((x + c * dx, y + c * dy))
    assert pts[-1] == (0, 0)
    return LatticePolygon.hull(pts).translated_to_origin()


def _closed_walks(edges: list[tuple[Point, int]]) -> list[dict[Point, int]]:
    """Gao and Lauder's pseudo-polynomial search (DCG 26, 2001) as one forward
    walk over the edge segments: a summand takes 0..g of the g primitive
    segments of each CCW edge and closes up.  Layer i maps each partial sum
    over the first i edges to the number of choices that reach it, pruned
    when the |dx| or |dy| still to come cannot bring it back to (0, 0).  So
    the last layer is {(0, 0): the number of closing choices}, and every
    state of a layer is reached from the start."""
    left_x = sum(abs(dx) * g for (dx, _), g in edges)
    left_y = sum(abs(dy) * g for (_, dy), g in edges)
    layers = [{(0, 0): 1}]
    for (dx, dy), g in edges:
        left_x, left_y = left_x - abs(dx) * g, left_y - abs(dy) * g
        layer = {}
        for (x, y), n in layers[-1].items():
            for c in range(g + 1):
                sx, sy = x + c * dx, y + c * dy
                if abs(sx) <= left_x and abs(sy) <= left_y:
                    layer[sx, sy] = layer.get((sx, sy), 0) + n
        layers.append(layer)
    return layers


def is_decomposable(poly: LatticePolygon) -> bool:
    """True iff poly is a Minkowski sum of two lattice polygons that are not
    points: iff `_closed_walks` closes up in more choices than the two
    trivial ones, no segment and every segment.  `minkowski_decompositions`
    lists the choices of the same walk.
    """
    return not poly.is_point and _closed_walks(_edge_multiset(poly))[-1][0, 0] > 2


def multiplicity_cap(poly: LatticePolygon) -> int | None:
    """The least width of Δ along a primitive (a, b) unless Δ has edges along
    both (-b, a) and (b, -a), or None for degenerate Δ: a unimodular
    invariant that bounds m for every f in L(Δ, m) with NP(f) = Δ.

    f restricted to t -> (t^a, t^b) has exponent spread at most that width
    and order >= m at t = 1, so for a larger m it is zero and x^(-b) y^a - 1
    divides f; NP(f) then has the summand [0, (-b, a)], hence both edges.
    On Δ's image in its reduced basis (`_reduced`), no direction is narrower
    than (1, 0), and none but (1, 0) narrower than (0, 1): the first of them
    without an edge pair gives the cap.  Else N(x, 1) is convex and least at
    x = 0, so the first free x on each side gives a width `best`, and by the
    bounds of `_lattice_width` only rows 2 <= y <= 2 best / (2 N(0, 1) - N(1, 0))
    can be narrower: a box that the number of edge pairs bounds.
    """
    if poly.is_degenerate:
        return None
    img = poly._reduced[2]
    edges = {e for e, _ in _edge_multiset(img)}
    # the normals whose level lines run along a pair of opposite edges
    paired = {(dy, -dx) for dx, dy in edges if (-dx, -dy) in edges}
    N = img.width_in_direction
    for v in ((1, 0), (0, 1)):
        if v not in paired:
            return N(v)
    n1, n2 = N((1, 0)), N((0, 1))
    best = min(N(next((x, 1) for x in count(s, s) if (x, 1) not in paired)) for s in (1, -1))
    box = ((x, y) for y in range(2, 2 * best // (2 * n2 - n1) + 1)
           for x in range(-((best + y * n2) // n1), (best + y * n2) // n1 + 1))
    return min([best] + [N(v) for v in box if gcd(*v) == 1 and v not in paired])


_DECOMPOSITION_LIMIT = 1_000_000  # largest edge sub-multiset search


def minkowski_decompositions(poly: LatticePolygon) -> list[tuple[LatticePolygon, LatticePolygon]]:
    """All nontrivial Minkowski decompositions, up to swap and translation.

    Each edge contributes a stack of identical primitive segments; a summand
    corresponds to a sub-multiset whose vectors sum to zero.  The walk of
    `is_decomposable`, `_closed_walks`, counts those; its layers, read back
    from (0, 0), list them, and as every state is reached from the start that
    reading meets no dead end.  A choice and its complement give one pair,
    listed once.  Empty result means the polygon is integrally
    indecomposable.  Raises RangeError when the search would pass
    _DECOMPOSITION_LIMIT sub-multisets.
    """
    if poly.is_point:
        return []
    edges = _edge_multiset(poly)
    total_combos = prod(g + 1 for _, g in edges)
    if total_combos > _DECOMPOSITION_LIMIT:
        raise RangeError(f"decomposition search space {total_combos} exceeds "
                         f"limit {_DECOMPOSITION_LIMIT}")
    layers, n = _closed_walks(edges), len(edges)
    # depth first from the last layer: an entry (i, s, c) is a state s of layer i
    # reached with c segments of edge i, so choice[i:n] holds the path back to it
    # (choice[n] is the start's spare slot)
    pairs, choice, stack = [], [0] * (n + 1), [(n, (0, 0), 0)]
    while stack:
        i, (x, y), c = stack.pop()
        choice[i] = c
        if i == 0:
            take, comp = choice[:n], [g - c for (_, g), c in zip(edges, choice)]
            if any(take) and take <= comp:
                p, q = _polygon_from_edges(edges, take), _polygon_from_edges(edges, comp)
                pairs.append((p, q) if p.vertices <= q.vertices else (q, p))
            continue
        (dx, dy), g = edges[i - 1]
        for c in range(g + 1):
            s = (x - c * dx, y - c * dy)
            if s in layers[i - 1]:
                stack.append((i - 1, s, c))
    return sorted(pairs, key=lambda pq: (pq[0].vertices, pq[1].vertices))


def _at_origin(points) -> tuple[Point, ...]:
    """Hull vertices, translated so the least one (which comes first) is (0, 0)."""
    verts = _hull_vertices(points)
    x0, y0 = verts[0]
    return tuple((x - x0, y - y0) for x, y in verts)


def _square_images(verts):
    """The images of a CCW vertex cycle under x <-> y, x -> -x and y -> -y, as
    CCW cycles from (0, 0); no hull, as one with determinant -1 reverses it."""
    for sx, sy in product((1, -1), repeat=2):
        for det, img in ((sx * sy, [(sx * x, sy * y) for x, y in verts]),
                         (-sx * sy, [(sy * y, sx * x) for x, y in verts])):
            img = _canonical_order(tuple(img[::det]))
            x0, y0 = img[0]
            yield tuple((x - x0, y - y0) for x, y in img)


def enumerate_polygons(coord_max: int = 3, volume_max: int = 6) -> list[LatticePolygon]:
    """Hulls of all subsets of the [0, coord_max]^2 grid, up to equivalence.

    Self-check enumerator for small-volume datasets; keeps polygons (including
    degenerate ones) with normalized volume <= volume_max.  The search grows
    translation classes, least vertex at the origin, from the one-point class,
    by the points that keep the bounding box within coord_max on both axes
    (a hull has a translate in the grid exactly then).  Adding a grid hull's
    vertices one by one reaches its class through hulls inside it, so hulls
    above volume_max are dropped at once.  Each symmetry g of the square keeps
    the grid and commutes with hulls, g(hull(A + q)) = hull(g(A) + g(q)), so a
    new class is recorded with its eight images and only it is grown; each g
    is unimodular, so only grown classes need a canonical form.  Before any
    hull, q's crosses with the class's CCW edges decide it: none negative
    means q lies inside; else the triangle on the most violated edge adds
    -cross to the volume, so vol - cross > volume_max drops q.  The images
    need no hull either (`_square_images`).
    """
    if coord_max < 0 or volume_max < 0:
        raise RangeError("coord_max and volume_max must be nonnegative")
    grown = [((0, 0),)]  # one class per orbit; the loop also walks it as a queue
    classes = set(grown)
    for verts in grown:
        xs, ys = zip(*verts)
        poly = LatticePolygon(verts)
        edges = poly.edges() if len(verts) >= 3 else ()
        for q in product(range(max(xs) - coord_max, min(xs) + coord_max + 1),
                         range(max(ys) - coord_max, min(ys) + coord_max + 1)):
            if edges:
                worst = min(_cross(a, b, q) for a, b in edges)
                if worst >= 0 or poly.volume - worst > volume_max:
                    continue
            h = _at_origin(verts + (q,))
            if h not in classes and LatticePolygon(h).volume <= volume_max:
                classes.update(_square_images(h))
                grown.append(h)
    keys = {canonical_form(LatticePolygon(verts)).vertices for verts in grown}
    return [LatticePolygon(k) for k in sorted(keys)]
