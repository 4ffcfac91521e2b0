import random
from fractions import Fraction

import pytest

from latticecurves.errors import DegeneratePolygon
from latticecurves.polygon import (
    LatticePolygon,
    UnimodularMap,
    canonical_form,
    convex_hull,
    enumerate_polygons,
    equivalent,
    minkowski_decompositions,
    minkowski_sum,
    mixed_volume,
    polygon,
)


def test_hull_strips_interior_and_collinear_points():
    p = convex_hull([(0, 0), (2, 0), (1, 0), (0, 2), (1, 1), (0, 1)])
    assert p.vertices == ((0, 0), (2, 0), (0, 2))


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


def test_width_in_direction():
    p = polygon((0, 0), (2, 1), (1, 2))
    assert p.width_in_direction((1, -1)) == 2
    assert p.width_in_direction((1, 0)) == 2


def test_normal_fan_and_ample_coefficients():
    hexagon = polygon((0, 0), (2, 1), (5, 3), (6, 4), (1, 6), (0, 1))
    rays = [r for r, _ in hexagon.normal_fan()]
    assert set(rays) == {(-1, 2), (-2, 3), (-1, 1), (-2, -5), (5, -1), (1, 0)}
    coeffs = dict(hexagon.ample_coefficients())
    assert [coeffs[r] for r in
            ((-1, 2), (-2, 3), (-1, 1), (-2, -5), (5, -1), (1, 0))] == \
        [0, 1, 2, 32, 1, 0]


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
    assert canonical_form(p)[0] == canonical_form(q)[0]
    assert equivalent(p, q)
    assert not equivalent(p, polygon((0, 0), (3, 1), (3, 2), (2, 3)))


def test_canonical_form_map_reproduces_canonical_polygon():
    p = polygon((0, 0), (4, 2), (3, 4), (1, 3))
    canon, mp = canonical_form(p)
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
    keys = {canonical_form(p)[0].vertices for p in polys}
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
    keys = {canonical_form(p)[0].vertices for p in hulls if p.volume <= volume_max}
    return [LatticePolygon(k) for k in sorted(keys)]


@pytest.mark.parametrize("coord_max,volume_max",
                         [(2, v) for v in range(9)] + [(3, 6)])
def test_enumerate_polygons_matches_all_subsets(coord_max, volume_max):
    assert enumerate_polygons(coord_max, volume_max) == \
        all_subsets_enumeration(coord_max, volume_max)


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


def test_json_roundtrip():
    p = polygon((0, 0), (4, 1), (2, 4), (1, 3))
    assert LatticePolygon.from_json(p.to_json()) == p
