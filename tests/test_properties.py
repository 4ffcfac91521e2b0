"""Seed-fixed randomized invariants across the whole toolkit."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

from latticecurves.laurent import LaurentPolynomial
from latticecurves.polygon import (
    LatticePolygon,
    UnimodularMap,
    canonical_form,
    convex_hull,
    minkowski_sum,
    multiplicity_cap,
    mixed_volume,
    polygon,
)


def rng(seed):
    return random.Random(seed)


def random_polygon(r, span=8, npts=6):
    while True:
        pts = [(r.randint(-span, span), r.randint(-span, span))
               for _ in range(npts)]
        p = convex_hull(pts)
        if not p.is_degenerate:
            return p


def random_poly(r, span=4, terms=5):
    out = {}
    for _ in range(r.randint(1, terms)):
        out[(r.randint(-span, span), r.randint(-span, span))] = r.randint(-9, 9)
    f = LaurentPolynomial(out)
    return f if not f.is_zero() else LaurentPolynomial.one()


def random_unimodular(r, span=5):
    while True:
        a, b, c, d = (r.randint(-span, span) for _ in range(4))
        if a * d - b * c in (1, -1):
            return UnimodularMap(((a, b), (c, d)),
                                 (r.randint(-9, 9), r.randint(-9, 9)))


def test_pick_identity_1000_hulls():
    r = rng(20260826)
    for _ in range(1000):
        p = random_polygon(r)
        total, b, i = p.lattice_counts()
        assert p.volume == 2 * i + b - 2
        assert total == i + b


def test_newton_polygon_of_product_is_minkowski_sum_500():
    r = rng(17)
    for _ in range(500):
        f, g = random_poly(r), random_poly(r)
        prod = f * g
        assert not prod.is_zero()  # no zero divisors over Q
        assert prod.newton_polygon() == \
            minkowski_sum(f.newton_polygon(), g.newton_polygon())


def test_multiplicity_additivity_500():
    r = rng(99)
    for _ in range(500):
        f = random_poly(r, span=3, terms=4)
        g = random_poly(r, span=3, terms=4)
        assert (f * g).multiplicity_at_identity() == \
            f.multiplicity_at_identity() + g.multiplicity_at_identity()


def test_mixed_volume_bilinear_300():
    r = rng(4242)
    for _ in range(300):
        a = random_polygon(r, span=4, npts=5)
        b = random_polygon(r, span=4, npts=5)
        c = random_polygon(r, span=4, npts=5)
        assert mixed_volume(a, b) == mixed_volume(b, a)
        assert mixed_volume(minkowski_sum(a, b), c) == \
            mixed_volume(a, c) + mixed_volume(b, c)


def test_canonical_form_invariant_1000():
    r = rng(31337)
    for _ in range(1000):
        p = random_polygon(r, span=5, npts=5)
        mp = random_unimodular(r)
        assert canonical_form(p) == canonical_form(mp.apply(p))


def _dots(p, a, b):
    return [a * x + b * y for x, y in p.vertices]


def _paired(p, a, b):
    """Whether both level lines of (a, b) that bound p hold an edge, that is,
    p has edges along both (-b, a) and (b, -a)."""
    dots = _dots(p, a, b)
    return dots.count(min(dots)) > 1 and dots.count(max(dots)) > 1


def vertex_box_reference(p):
    """(W, keys) for a two-dimensional polygon, by brute force over a box of
    directions that three of its vertices give: keys are the sorted
    (width, |a|+|b|, a, b) of every primitive (a, b), a > 0 or a = 0 < b,
    along which p is at most W wide.

    W is the least width along an unpaired one of (0, 1), (1, 0), ..., (1, n),
    so W >= cap >= lw.  A direction (a, b) with width <= W has
    |(a, b) . d1|, |(a, b) . d2| <= W for the sides d1, d2 at a vertex of a
    triangle of vertices, so by Cramer's rule |a| <= W (|d1y| + |d2y|) / |det|
    and |b| <= W (|d1x| + |d2x|) / |det|; the largest triangle keeps it small.
    """
    vs = p.vertices
    W = min(max(_dots(p, a, b)) - min(_dots(p, a, b))
            for a, b in [(0, 1)] + [(1, k) for k in range(len(vs) + 1)]
            if not _paired(p, a, b))
    det, (d1x, d1y), (d2x, d2y) = max(
        (abs(ux * wy - uy * wx), (ux, uy), (wx, wy))
        for (ox, oy), (ux, uy), (wx, wy) in (
            (o, (u[0] - o[0], u[1] - o[1]), (w[0] - o[0], w[1] - o[1]))
            for o, u, w in combinations(vs, 3)))
    assert det > 0
    box_a = W * (abs(d1y) + abs(d2y)) // det
    box_b = W * (abs(d1x) + abs(d2x)) // det
    keys = []
    for a in range(box_a + 1):
        for b in range(-box_b, box_b + 1):
            if (a > 0 or b > 0) and gcd(a, b) == 1:
                width = max(_dots(p, a, b)) - min(_dots(p, a, b))
                if width <= W:
                    keys.append((width, abs(a) + abs(b), a, b))
    return W, sorted(keys)


def reference_width_and_cap(p):
    """(lattice width, its tie-broken direction, multiplicity cap)."""
    _, keys = vertex_box_reference(p)
    width, _, a, b = keys[0]
    return width, (a, b), min(w for w, _, a, b in keys if not _paired(p, a, b))


def test_lattice_width_vs_brute_force_200():
    r = rng(777)
    polys = [random_polygon(r, span=6, npts=5) for _ in range(200)]
    # thin slanted triangles: a slice with no integer point comes before the
    # last nonempty real slice of the direction search
    for k in range(1, 13):
        polys += [polygon((0, 0), (1, 0), (k, k + 1)),
                  polygon((0, 0), (1, 0), (k + 1, k)),
                  polygon((0, 0), (0, 1), (k, 2 * k + 1))]
    for p in polys:
        assert p.lattice_width() == reference_width_and_cap(p)[:2]


def ten_direction_width(p):
    """`lattice_width` as it was read before the image directions (+-3, 2) were
    shown never to tie: the segment and point answers, and over the reduced
    image the ten candidates of |y| <= 2, |x| <= 1 + |y|."""
    if p.is_point:
        return 0, (0, 1)
    if p.is_segment:
        (x0, y0), (x1, y1) = p.vertices
        g = gcd(x1 - x0, y1 - y0)
        dx, dy = (x1 - x0) // g, (y1 - y0) // g
        return 0, ((-dy, dx) if dy < 0 or (dy == 0 and dx > 0) else (dy, -dx))
    (a1, b1), (a2, b2), img = p._reduced
    lw, n2 = img.width_in_direction((1, 0)), img.width_in_direction((0, 1))
    near = [(1, 0)] if n2 > lw else [(1, 0), *((x, 1) for x in range(-2, 3)),
                                      *((x, 2) for x in (-3, -1, 1, 3))]
    signed = [(x * a1 + y * a2, x * b1 + y * b2) for x, y in near
              if img.width_in_direction((x, y)) == lw]
    _, a, b = min((abs(a) + abs(b), a, b) for a, b in (max(d, (-d[0], -d[1])) for d in signed))
    return lw, (a, b)


def test_width_matches_the_ten_direction_scan():
    """Two routes to the lattice width: the number `width`, which runs no
    tie-break, against `lattice_width()`, and that against the scan that also
    read (+-3, 2).  Hulls with negative coordinates and their images under
    shears up to 10^30, images of the tie configurations (where the scan
    reads rows 1 and 2), points and segments."""
    r = rng(3838)
    shapes = [random_polygon(r, span=6, npts=r.randint(3, 7)) for _ in range(600)]
    ties = [polygon((0, 0), (1, 0), (2, -2), (1, -2)), polygon((1, 0), (0, 1), (-1, 0), (0, -1)),
            polygon((0, 0), (1, 0), (1, 1), (0, 1)), polygon((0, 0), (2, 1), (1, 2))]
    shapes += [random_unimodular(r, span=6).apply(p) for _ in range(150) for p in ties]
    polys = []
    for p in shapes:
        k = r.choice((-1, 1)) * 10 ** r.randint(0, 30)
        shear = ((1, k), (0, 1)) if r.random() < 0.5 else ((1, 0), (k, 1))
        polys += [p, UnimodularMap(shear, (-r.randint(0, 10 ** 6), -r.randint(0, 9))).apply(p)]
    for _ in range(200):
        x, y = r.randint(-9, 9), r.randint(-9, 9)
        dx, dy = r.choice((-1, 1)) * 10 ** r.randint(0, 30), r.randint(-5, 5)
        polys += [polygon((x, y)), polygon((x, y), (x + dx, y + dy)),
                  polygon((x, y), (x + dy, y - dx))]
    assert len(polys) >= 2000
    for p in polys:
        fresh = LatticePolygon(p.vertices)
        assert fresh.width == p.lattice_width()[0], p.vertices
        assert p.lattice_width() == ten_direction_width(p), p.vertices


def _scan(p):
    xs, ys = zip(*p.vertices)
    return [(x, y) for x in range(min(xs), max(xs) + 1)
            for y in range(min(ys), max(ys) + 1) if p.contains((x, y))]


def _zonotope(r, k, span):
    pts = [(0, 0)]
    for _ in range(k):
        v = (r.randint(-span, span), r.randint(-span, span))
        pts = [q for p in pts for q in (p, (p[0] + v[0], p[1] + v[1]))]
    return convex_hull(pts)


def _both_reduced_directions_paired(p):
    """Whether both reduced directions have edge pairs, so neither gives the cap."""
    return not p.is_degenerate and all(_paired(p, *b) for b in p._reduced[:2])


def test_walk_matches_vertex_box_reference():
    """Two routes to the reduced basis's answers: `lattice_width` (value and
    tie-broken direction) and `multiplicity_cap` against
    `vertex_box_reference`, and `lattice_points` against a `contains` scan
    and Pick's count.  The answers are read in a reduced basis, so the inputs
    include sheared hulls and thin triangles whose basis is far from the
    standard one; sheared images of the four-direction parallelogram and the
    diamond, whose narrowest directions tie; and parallelograms and
    zonotopes with edge pairs along both reduced directions, where the cap
    reads the rows past the first, among them zonotopes whose cap lies in
    those rows."""
    r = rng(2525)
    polys = [polygon((0, 0), (s, 0), (s, s), (0, s)) for s in (1, 2, 7)]
    # four directions of width 2: (0, 1), (1, 0), (1, 1) and (2, 1)
    polys.append(polygon((0, 0), (1, 0), (2, -2), (1, -2)))
    polys += [polygon((0, 0), (1, 0), (k, k + 1)) for k in range(1, 51)]
    hulls = [random_polygon(r, span=6, npts=r.randint(3, 8)) for _ in range(100)]
    polys += hulls + [random_unimodular(r, span=3).apply(p) for p in hulls]
    polys += [polygon((0, 0), (1, 1), (k, k + 1)) for k in range(2, 9)]
    ties = [polys[3], polygon((1, 0), (0, 1), (-1, 0), (0, -1))]
    polys += [random_unimodular(r, span=4).apply(p) for _ in range(100) for p in ties]
    # rows 2 and up of the reduced image hold the cap
    polys += [polygon((-2, -1), (-1, -2), (1, -2), (3, -1), (4, 0), (4, 2), (3, 3), (1, 3),
                      (-1, 2), (-2, 1)),
              polygon((-3, -2), (-2, -3), (0, -3), (1, -2), (2, 0), (2, 1), (1, 2), (-1, 2),
                      (-2, 1), (-3, -1))]
    paired = []
    while len(paired) < 60:
        p = _zonotope(r, r.randint(2, 4), r.choice((3, 30, 1000)))
        if _both_reduced_directions_paired(p):
            paired.append(p)
    far = [p.translate(r.choice((-1, 1)) * 10 ** r.randint(3, 12),
                       r.choice((-1, 1)) * 10 ** r.randint(3, 12)) for p in polys]
    large = [random_polygon(r, span=10 ** 6, npts=r.randint(3, 6)) for _ in range(30)]
    for p in polys + paired + far + large:
        assert (*p.lattice_width(), multiplicity_cap(p)) == reference_width_and_cap(p), p.vertices
    assert polys[3].lattice_width() == (2, (0, 1))
    assert polys[4 + 49].lattice_width() == (2, (1, -1))
    for p in polys:
        pts = p.lattice_points()
        assert pts == _scan(p) and len(pts) == p.lattice_counts()[0], p.vertices
    # volume 1, so the three edge normals are the width-1 directions, all free;
    # the box of the reference grows as k^4, so these are checked directly
    for k in range(2, 1001):
        p = polygon((0, 0), (1, 1), (k, k + 1))
        assert (*p.lattice_width(), multiplicity_cap(p)) == (1, (1, -1), 1), k
        assert p.lattice_points() == [(0, 0), (1, 1), (k, k + 1)], k
