import hashlib
import random
import signal
import time
from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd

import pytest

import latticecurves.polygon as polygon_module
from latticecurves.errors import DegeneratePolygon, RangeError
from latticecurves.polygon import (
    LatticePolygon,
    UnimodularMap,
    _at_origin,
    _slice,
    _square_images,
    canonical_form,
    convex_hull,
    enumerate_polygons,
    equivalent,
    is_decomposable,
    minkowski_decompositions,
    minkowski_sum,
    mixed_volume,
    multiplicity_cap,
    polygon,
)
from latticecurves.seshadri import estimate, segment_equality


def test_vertices_must_be_integers():
    # int() would truncate this to the triangle (0,0),(2,1),(1,2)
    with pytest.raises(TypeError):
        polygon((0, 0), (2.5, 1), (1, 2.5))
    with pytest.raises(TypeError):
        LatticePolygon.hull([(0, 0), (1, 0), (0, Fraction(1))])
    with pytest.raises(ValueError):
        convex_hull([])


def test_hull_strips_interior_and_collinear_points():
    p = convex_hull([(0, 0), (2, 0), (1, 0), (0, 2), (1, 1), (0, 1)])
    assert p.vertices == ((0, 0), (2, 0), (0, 2))
    # collinear sets, with duplicates, keep their two endpoints
    assert convex_hull([(1, 1), (3, 5), (2, 3), (3, 5), (1, 1), (2, 3)]).vertices == \
        ((1, 1), (3, 5))
    assert convex_hull([(0, 4), (0, -1), (0, 2), (0, 4)]).vertices == ((0, -1), (0, 4))
    assert convex_hull([(2, -1), (-2, 1), (0, 0), (-2, 1)]).vertices == ((-2, 1), (2, -1))
    # a repeated single point is a point, and two points are a segment
    assert convex_hull([(3, -2)] * 4).vertices == ((3, -2),)
    assert convex_hull([(5, 1), (-1, 4)]).vertices == ((-1, 4), (5, 1))


def test_hull_starts_at_the_least_vertex_and_turns_left():
    rng = random.Random(89)
    for _ in range(2000):
        pts = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(1, 9))]
        v = convex_hull(pts).vertices
        assert v[0] == min(v) == min(pts)
        if len(v) > 2:
            n = len(v)
            assert all((v[(i + 1) % n][0] - v[i][0]) * (v[(i + 2) % n][1] - v[i][1])
                       > (v[(i + 1) % n][1] - v[i][1]) * (v[(i + 2) % n][0] - v[i][0])
                       for i in range(n))


def test_volume_boundary_interior():
    p = polygon((0, 0), (2, 1), (1, 2))
    assert (p.volume, p.boundary_count, p.interior_count) == (3, 3, 1)
    q = polygon((0, 0), (1, 4), (2, 4), (4, 3))
    assert (q.volume, q.boundary_count, q.interior_count) == (14, 4, 6)


def test_lattice_points_count_matches_pick():
    p = polygon((0, 0), (4, 1), (1, 4))
    pts = p.lattice_points()
    assert len(pts) == p.lattice_counts()[0]
    assert len(set(pts)) == len(pts)
    for pt in pts:
        assert p.contains(pt)


def test_segment_polygon():
    s = polygon((0, 0), (3, 0))
    assert s.is_segment
    assert s.volume == 0
    assert s.boundary_count == 4  # 4 lattice points, all boundary
    assert s.contains((2, 0)) and not s.contains((2, 1))


def test_lattice_width_examples():
    assert polygon((0, 0), (1, 0), (1, 1), (0, 1)).lattice_width()[0] == 1
    assert polygon((0, 0), (2, 1), (1, 2)).lattice_width()[0] == 2
    # the empty-system quadrilateral has width 4
    assert polygon((0, 0), (1, 4), (2, 4), (4, 3)).lattice_width()[0] == 4
    for m in (2, 3, 5, 9):
        assert polygon((0, 0), (m, 1), (1, m)).lattice_width()[0] == m
    # width 0 along the normal normalized to a > 0, or a = 0 < b; (0, 1) for a point
    assert polygon((3, -2)).lattice_width() == (0, (0, 1))
    for ends, normal in ((((0, 0), (4, 0)), (0, 1)), (((1, 1), (1, -5)), (1, 0)),
                         (((0, 0), (3, 3)), (1, -1)), (((-2, 5), (2, 1)), (1, 1))):
        assert polygon(*ends).lattice_width() == polygon(*ends[::-1]).lattice_width() \
            == (0, normal)


def test_width_in_direction():
    p = polygon((0, 0), (2, 1), (1, 2))
    assert p.width_in_direction((1, -1)) == 2
    assert p.width_in_direction((1, 0)) == 2


def test_normal_fan_and_ample_coefficients():
    hexagon = polygon((0, 0), (2, 1), (5, 3), (6, 4), (1, 6), (0, 1))
    rays = [r for r, _ in hexagon.ample_coefficients()]
    assert set(rays) == {(-1, 2), (-2, 3), (-1, 1), (-2, -5), (5, -1), (1, 0)}
    coeffs = dict(hexagon.ample_coefficients())
    assert [coeffs[r] for r in
            ((-1, 2), (-2, 3), (-1, 1), (-2, -5), (5, -1), (1, 0))] == \
        [0, 1, 2, 32, 1, 0]
    with pytest.raises(DegeneratePolygon):
        polygon((0, 0), (1, 2)).ample_coefficients()


def test_minkowski_sum_and_mixed_volume():
    d1 = polygon((0, 0), (2, 1), (1, 2))
    d2 = polygon((0, 0), (3, 1), (5, 2), (5, 3), (2, 5))
    s = minkowski_sum(d1, d2)
    assert s.volume == 48
    assert mixed_volume(d1, d2) == 10
    assert mixed_volume(d1, d1) == Fraction(d1.volume)


def test_unimodular_map_roundtrip():
    mp = UnimodularMap(((2, 1), (1, 1)), (3, -5))
    p = polygon((0, 0), (4, 1), (1, 4))
    assert mp.apply(p).volume == p.volume
    with pytest.raises(Exception):
        UnimodularMap(((2, 0), (0, 1)), (0, 0))  # det 2


def test_canonical_form_identifies_equivalent_polygons():
    p = polygon((0, 0), (3, 1), (1, 3))
    mp = UnimodularMap(((1, 1), (0, 1)), (7, -2))
    q = mp.apply(p)
    assert canonical_form(p) == canonical_form(q)
    assert equivalent(p, q)
    assert not equivalent(p, polygon((0, 0), (3, 1), (3, 2), (2, 3)))


def _compose(outer, inner):
    (a, b), (c, d) = outer.linear
    (e, f), (g, h) = inner.linear
    lin = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
    return UnimodularMap(lin, outer.apply_point(inner.translation))


def _egcd(a, b):
    if b == 0:
        return (abs(a), (1 if a > 0 else -1) if a else 0, 0)
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def _align_matrix(d):
    p, q = d
    _, s, r = _egcd(p, q)  # p*s + q*r = 1
    return ((s, r), (-q, p))


def _anchored_images(poly):
    """Reference: (canonical vertices, map) per anchor, built by composing maps."""
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        for j in (1, -1):
            v = verts[i]
            w = verts[(i + j) % n]
            dx, dy = w[0] - v[0], w[1] - v[1]
            g = gcd(dx, dy)
            base = UnimodularMap(_align_matrix((dx // g, dy // g)), (0, 0))
            img = [base.apply_point((p[0] - v[0], p[1] - v[1])) for p in verts]
            if any(y < 0 for _, y in img):
                base = _compose(UnimodularMap(((1, 0), (0, -1)), (0, 0)), base)
                img = [(x, -y) for x, y in img]
            ox, oy = img[(i - j) % n]
            assert oy > 0
            smap = UnimodularMap(((1, -(ox // oy)), (0, 1)), (0, 0))
            full = _compose(smap, base)
            canon = LatticePolygon.hull(smap.apply_point(p) for p in img).vertices
            (a, b), (c, d) = full.linear
            t = (-(a * v[0] + b * v[1]), -(c * v[0] + d * v[1]))
            yield canon, UnimodularMap(full.linear, t)


def reference_canonical_form(poly):
    """Reference: the least anchored image with the map that produces it."""
    if poly.is_point:
        x0, y0 = poly.vertices[0]
        return (LatticePolygon(((0, 0),)),
                UnimodularMap(((1, 0), (0, 1)), (-x0, -y0)))
    if poly.is_segment:
        (x0, y0), (x1, y1) = poly.vertices
        g = gcd(x1 - x0, y1 - y0)
        lin = _align_matrix(((x1 - x0) // g, (y1 - y0) // g))
        t = UnimodularMap(lin, (0, 0)).apply_point((x0, y0))
        return LatticePolygon(((0, 0), (g, 0))), UnimodularMap(lin, (-t[0], -t[1]))
    canon, mp = min(_anchored_images(poly), key=lambda c: c[0])
    return LatticePolygon(canon), mp


def test_canonical_form_matches_map_reference():
    r = random.Random(2213)
    inputs = enumerate_polygons(3, 18)
    assert len(inputs) == 152
    for _ in range(2500):
        pts = [(r.randint(-9, 9), r.randint(-9, 9)) for _ in range(r.randint(1, 8))]
        inputs.append(convex_hull(pts))
    assert sum(p.is_point for p in inputs) > 100
    assert sum(p.is_segment for p in inputs) > 100
    for p in inputs:
        canon = canonical_form(p)
        assert type(canon) is LatticePolygon
        ref, mp = reference_canonical_form(p)
        assert canon == ref
        assert mp.apply(p) == canon


def test_minkowski_decompositions_triangle_indecomposable():
    assert minkowski_decompositions(polygon((0, 0), (2, 1), (1, 2))) == []


def test_minkowski_decompositions_recover_product():
    d1 = polygon((0, 0), (2, 1), (1, 2))
    d2 = polygon((0, 0), (3, 1), (5, 2), (5, 3), (2, 5))
    s = minkowski_sum(d1, d2)
    decs = minkowski_decompositions(s)
    assert any(
        {a.translated_to_origin(), b.translated_to_origin()}
        == {d1.translated_to_origin(), d2.translated_to_origin()}
        for a, b in decs
    )


def test_enumerate_polygons_small():
    polys = enumerate_polygons(coord_max=2, volume_max=4)
    # all distinct canonical forms, volumes within range
    keys = {canonical_form(p).vertices for p in polys}
    assert len(keys) == len(polys)
    assert all(p.volume <= 4 for p in polys)
    assert any(p.is_segment for p in polys)


def all_subsets_enumeration(coord_max, volume_max):
    """Reference: hull every nonempty subset of the grid, then key by canonical form."""
    grid = [(x, y) for x in range(coord_max + 1) for y in range(coord_max + 1)]
    hulls = {
        LatticePolygon.hull([grid[i] for i in range(len(grid)) if mask >> i & 1])
        for mask in range(1, 1 << len(grid))
    }
    keys = {canonical_form(p).vertices for p in hulls if p.volume <= volume_max}
    return [LatticePolygon(k) for k in sorted(keys)]


@pytest.mark.parametrize("coord_max,volume_max",
                         [(2, v) for v in range(9)] + [(3, 6)])
def test_enumerate_polygons_matches_all_subsets(coord_max, volume_max):
    assert enumerate_polygons(coord_max, volume_max) == \
        all_subsets_enumeration(coord_max, volume_max)


def grid_position_enumeration(coord_max, volume_max):
    """Reference: grow hulls at every position in the grid, one grid point at
    a time, then translate them to the origin and key by canonical form."""
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
    keys = {canonical_form(LatticePolygon(v).translated_to_origin()).vertices for v in hulls}
    return [LatticePolygon(k) for k in sorted(keys)]


@pytest.mark.parametrize("coord_max,volume_max", [(3, 18), (4, 4)])
def test_enumerate_polygons_matches_grid_positions(coord_max, volume_max):
    assert enumerate_polygons(coord_max, volume_max) == \
        grid_position_enumeration(coord_max, volume_max)


def translation_class_enumeration(coord_max, volume_max):
    """Reference: grow every translation class (least vertex at the origin) by
    the points that keep its bounding box within coord_max, then key each
    class by canonical form."""
    c = coord_max
    classes = {((0, 0),)}
    frontier = list(classes)
    while frontier:
        grown = []
        for verts in frontier:
            xs, ys = zip(*verts)
            for q in product(range(max(xs) - c, min(xs) + c + 1),
                             range(max(ys) - c, min(ys) + c + 1)):
                h = LatticePolygon.hull(verts + (q,)).translated_to_origin()
                if h.vertices not in classes and h.volume <= volume_max:
                    classes.add(h.vertices)
                    grown.append(h.vertices)
        frontier = grown
    keys = {canonical_form(LatticePolygon(verts)).vertices for verts in classes}
    return [LatticePolygon(k) for k in sorted(keys)]


@pytest.mark.parametrize("coord_max,volume_max", [(3, 18), (4, 4), (4, 8)])
def test_enumerate_polygons_matches_translation_classes(coord_max, volume_max):
    assert enumerate_polygons(coord_max, volume_max) == \
        translation_class_enumeration(coord_max, volume_max)


# sha256 of repr([p.vertices for p in enumerate_polygons(c, v)]), recorded
# with the translation-class search above; (3, 6), the README's default, was
# recorded before the edge-cross prefilter
ENUMERATION_SHA256 = {
    (3, 6): "fe36846516d5cd0f62023210d4bd71ff9826fcc86b42adf58035dddfce7ef84e",
    (4, 12): "c6dc0fce30c1ab2810d588957ce3fd8428b992ceebd17dfa8ea09d60aa703e1e",
    (5, 10): "a77dda72bb8d3c01332d2cc9ec679079edc8690f79e962a452d21eee0258aad8",
}


@pytest.mark.parametrize("coord_max,volume_max", sorted(ENUMERATION_SHA256))
def test_enumeration_is_pinned(coord_max, volume_max):
    polys = enumerate_polygons(coord_max, volume_max)
    digest = hashlib.sha256(repr([p.vertices for p in polys]).encode()).hexdigest()
    assert digest == ENUMERATION_SHA256[coord_max, volume_max]


def test_enumeration_decides_most_candidates_without_a_hull(monkeypatch):
    """The edge-cross prefilter and the hull-free images leave fewer than
    1000 hulls for enumerate_polygons(3, 6) (2644 without them)."""
    calls = []
    hull = polygon_module._hull_vertices

    def counted(points):
        calls.append(1)
        return hull(points)

    monkeypatch.setattr(polygon_module, "_hull_vertices", counted)
    assert len(enumerate_polygons(3, 6)) == 30
    assert 0 < len(calls) < 1000


def test_enumerate_polygons_rejects_negative_bounds():
    for coord_max, volume_max in [(3, -1), (-1, 6), (-1, -1)]:
        with pytest.raises(RangeError):
            enumerate_polygons(coord_max, volume_max)
    assert enumerate_polygons(0, 0) == [LatticePolygon(((0, 0),))]


def reference_square_images(verts):
    """Reference: the eight images of a point list under x <-> y, x -> -x and
    y -> -y, as raw point lists (no hull, no translation)."""
    for sx, sy in product((1, -1), repeat=2):
        yield [(sx * x, sy * y) for x, y in verts]
        yield [(sy * y, sx * x) for x, y in verts]


def test_square_images_keep_canonical_form_and_box():
    # the enumeration records a class with its eight images; each is the
    # hull of the mapped vertices at the origin, equivalent to the class and
    # in the same box up to swapping the axes
    assert len(set(_square_images(((0, 0), (1, 0), (0, 2))))) == 8
    assert set(_square_images(((0, 0),))) == {((0, 0),)}
    r = random.Random(3141)
    for _ in range(200):
        h = _at_origin([(r.randint(0, 4), r.randint(0, 4)) for _ in range(r.randint(1, 6))])
        key = canonical_form(LatticePolygon(h))
        spans = sorted(max(axis) - min(axis) for axis in zip(*h))
        images = list(_square_images(h))
        assert images == [_at_origin(img) for img in reference_square_images(h)]
        for g in images:
            assert canonical_form(LatticePolygon(g)) == key
            assert sorted(max(axis) - min(axis) for axis in zip(*g)) == spans


def test_width_cap_and_points_build_no_hull_or_fan(monkeypatch):
    """The direction walk takes its half-planes from vertex pairs and the
    point walk from the CCW edges: no hull of the vertex differences or of
    the reduced image, and no ample coefficients."""
    polys = [polygon((0, 0), (1, 0), (2, -2), (1, -2)), polygon((0, 0), (1, 0), (50, 51)),
             polygon((-3, 2), (4, -1), (6, 5), (0, 7), (-2, 6))]
    calls = []

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(polygon_module, "_hull_vertices")
    counted(LatticePolygon, "ample_coefficients")
    assert [p.lattice_width() for p in polys] == [(2, (0, 1)), (2, (1, -1)), (8, (0, 1))]
    assert [multiplicity_cap(p) for p in polys] == [2, 2, 8]
    assert [len(p.lattice_points()) for p in polys] == [p.lattice_counts()[0] for p in polys]
    assert calls == []


class _Stuck(Exception):
    pass


def _stop(signum, frame):
    raise _Stuck("no answer within the alarm")


def test_width_cap_and_points_cost_polynomial_time_in_the_bit_size():
    """A direction walk or an x-slice scan costs time linear in k on the thin
    triangle (0,0),(1,1),(k,k+1); the reduced basis costs time polynomial in
    log k.  Each answer is timed on a fresh polygon, as the basis is cached,
    best of three, under an alarm that stops a reduction that never ends.
    The hexagon's narrowest direction (0, 1) has an edge pair.  Every edge
    of the parallelograms and of the second hexagon has a pair, so neither
    reduced direction gives the cap: a direction walk would cost time linear
    in N(b2)/N(b1), the reduced rows only as many as the edge pairs allow.
    The triangle (0,0),(n,0),(0,n) at m = n has vol = m², lw = m and about
    n²/2 lattice points; its end slices hold a width-length segment, so
    SegmentEquality reads a few slices and lists no point."""
    hexagon = ((-1, -3), (0, -3), (1000003, -2), (1000002, 1), (999999, 1), (0, -2))
    cases = [(((0, 0), (1, 1), (k, k + 1)), answer, expected)
             for k in (10 ** 10, 10 ** 100)
             for answer, expected in ((LatticePolygon.lattice_width, (1, (1, -1))),
                                      (multiplicity_cap, 1),
                                      (lambda p: len(p.lattice_points()), 3))]
    cases.append((hexagon, multiplicity_cap, 1000003))
    cases += [(((0, 0), (L, 0), (L + 3, 1), (3, 1)), multiplicity_cap, L + 1)
              for L in (10 ** 6, 10 ** 12)]
    M = 10 ** 6
    cases.append((((0, 0), (2, 0), (4, 2 * M - 1), (4, 2 * M), (2, 2 * M), (0, 1)),
                  multiplicity_cap, 2 * M))
    cases += [(((0, 0), (n, 0), (0, n)), lambda p, n=n: estimate(p, n).to_json(),
               {"lower": str(n), "upper": str(n), "exact": str(n),
                "certificates": ["VolOverM", "SegmentEquality", "WidthBound"]})
              for n in (10 ** 5, 10 ** 10)]
    # vol = lw² and no width-length segment: only the slices that the real length
    # reaches are read, and here none is, where all lw + 1 = 4·10⁹ + 1 once were
    cases += [(tuple((k * x, k * y) for x, y in ((0, 1), (1, 0), (3, 0), (4, 4), (1, 2))),
               segment_equality, None) for k in (10 ** 5, 10 ** 9)]
    handler = signal.signal(signal.SIGALRM, _stop)
    try:
        for verts, answer, expected in cases:
            best = None
            for _ in range(3):
                p = polygon(*verts)
                signal.setitimer(signal.ITIMER_REAL, 2)
                start = time.perf_counter()
                got = answer(p)
                took = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
                assert got == expected, verts
                best = took if best is None else min(best, took)
            assert best < 0.010, (verts, answer, best)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)


def test_lattice_points_match_contains_scan():
    r = random.Random(2718)
    for _ in range(300):
        pts = [(r.randint(-7, 7), r.randint(-7, 7)) for _ in range(r.randint(1, 6))]
        p = convex_hull(pts)
        xs = [x for x, _ in p.vertices]
        ys = [y for _, y in p.vertices]
        scan = [(x, y) for x in range(min(xs), max(xs) + 1)
                for y in range(min(ys), max(ys) + 1) if p.contains((x, y))]
        assert p.lattice_points() == scan


def fraction_slice(halfplanes, t):
    """The real bounds of the slice over Fraction, or None if it is empty:
    the reference for `_slice`, which returns their integer rounding."""
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


def test_slice_matches_fraction_reference():
    r = random.Random(3141)
    seen = set()
    for _ in range(4000):
        # one bound from each side, so every slice is bounded
        planes = [(r.randint(-7, 7), r.randint(1, 7), r.randint(-20, 20)),
                  (r.randint(-7, 7), -r.randint(1, 7), r.randint(-20, 20))]
        planes += [(r.randint(-7, 7), r.randint(-7, 7), r.randint(-20, 20))
                   for _ in range(r.randint(0, 3))]
        t = r.randint(-5, 5)
        want = fraction_slice(planes, t)
        got = _slice(planes, t)
        if want is None:
            assert got is None, (planes, t)
            seen.add("empty")
            continue
        assert got == (ceil(want[0]), floor(want[1])), (planes, t)
        seen.add("integer-free" if got[0] > got[1] else "integers")
    assert seen == {"empty", "integer-free", "integers"}


def real_slice(poly, x):
    """The real bounds of y on the slice at x of a two-dimensional polygon,
    over Fraction, from the edges that meet it."""
    ys = []
    for (ux, uy), (wx, wy) in poly.edges():
        if ux == wx == x:
            ys += [uy, wy]
        elif min(ux, wx) <= x <= max(ux, wx) and ux != wx:
            ys.append(Fraction(uy * (wx - x) + wy * (x - ux), wx - ux))
    return min(ys), max(ys)


def test_reduced_slices_by_length_match_fraction_lengths():
    # the slices whose real length reaches a length, against each slice's
    # Fraction bounds, on hulls and their sheared images
    r = random.Random(1996)
    seen = set()
    for _ in range(300):
        p = convex_hull([(r.randint(-6, 6), r.randint(-6, 6)) for _ in range(r.randint(3, 6))])
        if p.volume == 0:
            continue
        if r.random() < 0.5:
            k = r.randint(-9, 9)
            p = polygon(*((x + k * y, y) for x, y in p.vertices))
        img, lw = p._reduced[2], p.lattice_width()[0]
        x0 = min(img.vertices)[0]
        for length in range(2 * lw + 3):
            want = [t for t in range(lw + 1)
                    if (lambda lo, hi: hi - lo >= length)(*real_slice(img, x0 + t))]
            assert list(p.reduced_slices(length=length)) == list(p.reduced_slices(want)), \
                (p.vertices, length)
            seen.add("none" if not want else "inside" if 0 < want[0] and want[-1] < lw
                     else "to an end")
    assert seen == {"none", "inside", "to an end"}


def test_minkowski_decompositions_sum_back():
    r = random.Random(1618)
    checked = 0
    for _ in range(150):
        a = convex_hull([(r.randint(-3, 3), r.randint(-3, 3)) for _ in range(r.randint(1, 4))])
        b = convex_hull([(r.randint(-3, 3), r.randint(-3, 3)) for _ in range(r.randint(2, 4))])
        s = minkowski_sum(a, b)
        for p, q in minkowski_decompositions(s):
            assert minkowski_sum(p, q).translated_to_origin() == s.translated_to_origin()
            checked += 1
    assert checked > 100
    # a segment of length g splits into lengths (c, g - c)
    seg = polygon((1, -2), (7, 7))
    assert [(p.vertices, q.vertices) for p, q in minkowski_decompositions(seg)] == \
        [(((0, 0), (2, 3)), ((0, 0), (4, 6)))]


def brute_decompositions(p):
    """Every sub-multiset of p's edge segments, all prod(g + 1) of them, unpruned:
    the nontrivial ones that close up and take no more than their complement, as
    sorted vertex pairs of the two summands, each traced by its partial sums."""
    if p.is_point:
        return []
    edges = []
    for (x0, y0), (x1, y1) in p.edges():
        g = gcd(x1 - x0, y1 - y0)
        edges.append(((x1 - x0) // g, (y1 - y0) // g, g))
    found = []
    for take in product(*(range(g + 1) for _, _, g in edges)):
        comp = tuple(g - c for (_, _, g), c in zip(edges, take))
        if 0 < sum(take) and take <= comp and all(
                sum(c * e[k] for e, c in zip(edges, take)) == 0 for k in (0, 1)):
            summands = []
            for cs in (take, comp):
                pts = [(0, 0)]
                for (dx, dy, _), c in zip(edges, cs):
                    pts.append((pts[-1][0] + c * dx, pts[-1][1] + c * dy))
                summands.append(convex_hull(pts).translated_to_origin().vertices)
            found.append(tuple(sorted(summands)))
    return sorted(found)


def test_is_decomposable_matches_the_decomposition_search():
    # both read one walk, so each is checked against the unpruned search
    rng = random.Random(2001)
    hulls = [polygon((0, 0)), polygon((3, -2))]
    hulls += [polygon((1, 1), (1 + k * dx, 1 + k * dy)) for k in (1, 2, 3)
              for dx, dy in ((1, 0), (0, 1), (2, -3))]
    hulls += [polygon((0, 0), (k, 0), (k, k), (0, k)) for k in (1, 2, 3, 4)]
    for _ in range(3000):
        span = rng.randint(3, 10)
        hulls.append(convex_hull([(rng.randint(0, span), rng.randint(0, span))
                                  for _ in range(rng.randint(1, 7))]))
    seen = set()
    for p in hulls:
        want = brute_decompositions(p)
        assert [(a.vertices, b.vertices) for a, b in minkowski_decompositions(p)] == want, \
            p.vertices
        got = is_decomposable(p)
        assert got == bool(want), p.vertices
        seen.add((got, len(p.vertices) if len(p.vertices) < 3 else "polygon"))
    assert seen == {(False, 1), (False, 2), (True, 2), (False, "polygon"),
                    (True, "polygon")}


def test_is_decomposable_past_the_search_limit():
    # octagons with edges of lattice length g: zonotopes, so decomposable,
    # while the search would list (g + 1)**8 sub-multisets
    walk = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    for g in (6, 10):
        verts, x, y = [], 0, 0
        for dx, dy in walk:
            verts.append((x, y))
            x, y = x + g * dx, y + g * dy
        octagon = polygon(*verts)
        assert len(octagon.vertices) == 8 and is_decomposable(octagon)
        with pytest.raises(RangeError):
            minkowski_decompositions(octagon)
    # two primitive edges leave no closed sub-walk, however long the third
    assert not is_decomposable(polygon((0, 0), (40, 1), (1, 40)))


def test_json_roundtrip():
    p = polygon((0, 0), (4, 1), (2, 4), (1, 3))
    assert LatticePolygon.from_json(p.to_json()) == p
