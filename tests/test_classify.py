import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from importlib import resources
from math import gcd

import pytest

import latticecurves.polygon as polygon_module
from latticecurves.classify import (
    ClassificationHit,
    _examine,
    classify_dataset,
    expected_case,
    intersection_product,
    numeric_invariants,
)
from latticecurves.cli import load_oracle
from latticecurves.errors import RangeError
from latticecurves.laurent import (
    INCONCLUSIVE,
    LaurentPolynomial,
    irreducibility_certificate,
    verify_factorization,
)
from latticecurves.linsys import compute_system, condition_matrix
from latticecurves.polygon import (
    LatticePolygon,
    UnimodularMap,
    canonical_form,
    convex_hull,
    enumerate_polygons,
    equivalent,
    multiplicity_cap,
    polygon,
)

# the eleven displayed polygons with a unique multiple-point curve, m = 1..4
ELEVEN = [
    polygon((0, 0), (1, 0)),
    polygon((0, 0), (2, 1), (1, 2)),
    polygon((0, 0), (3, 1), (1, 3)),
    polygon((0, 0), (3, 1), (3, 2), (2, 3)),
    polygon((0, 0), (1, 0), (4, 1), (2, 4)),
    polygon((0, 0), (4, 2), (3, 4), (1, 3)),
    polygon((0, 0), (3, 2), (4, 3), (2, 4), (1, 4)),
    polygon((0, 0), (4, 1), (1, 4)),
    polygon((0, 0), (4, 2), (3, 3), (1, 4)),
    polygon((0, 0), (4, 3), (1, 4), (0, 2)),
    polygon((0, 0), (4, 1), (2, 4), (1, 3)),
]


def test_numeric_invariants_examples():
    pair = numeric_invariants(polygon((0, 0), (3, 1), (1, 3)), 3)
    assert (pair.self_intersection, pair.arithmetic_genus) == (-1, 0)
    prime = numeric_invariants(
        polygon((0, 0), (4, 1), (6, 2), (6, 3), (4, 6), (3, 5)), 6)
    assert (prime.self_intersection, prime.arithmetic_genus) == (-2, 0)
    empty = numeric_invariants(polygon((0, 0), (1, 4), (2, 4), (4, 3)), 4)
    assert empty.self_intersection == -2 and empty.minus_n() == 2
    assert numeric_invariants(polygon((0, 0), (2, 1), (1, 2)), 1).minus_n() is None
    with pytest.raises(RangeError):
        numeric_invariants(polygon((0, 0), (2, 1), (1, 2)), 0)


def test_tags():
    pair = numeric_invariants(polygon((0, 0), (3, 1), (1, 3)), 3)
    assert "NumericallyNegative" in pair.tags
    assert "NumericallyNonPositive" in pair.tags
    assert "Expected" in pair.tags
    square = numeric_invariants(polygon((0, 0), (1, 0), (1, 1), (0, 1)), 1)
    assert "NumericallyNegative" not in square.tags


def test_expected_case_trichotomy():
    fam_v = polygon((0, 0), (2, 0), (6, 1), (4, 6), (3, 5))
    fam_iv = polygon((0, 0), (2, 0), (4, 1), (3, 4), (2, 3))
    fam_i = polygon((0, 0), (3, 1), (1, 3))
    assert expected_case(fam_v, 6) == 1
    assert expected_case(fam_iv, 4) == 2
    assert expected_case(fam_i, 3) == 3
    assert expected_case(polygon((0, 0), (1, 4), (2, 4), (4, 3)), 4) \
        == "NotApplicable"
    assert expected_case(polygon((0, 0), (1, 0)), 1) == 3


def test_expected_case_inequalities():
    for poly, m in ((polygon((0, 0), (2, 0), (6, 1), (4, 6), (3, 5)), 6),
                    (polygon((0, 0), (2, 0), (4, 1), (3, 4), (2, 3)), 4),
                    (polygon((0, 0), (3, 1), (1, 3)), 3)):
        assert expected_case(poly, m) != "NotApplicable"
        _, b, i = poly.lattice_counts()
        assert 2 * i + 2 * b >= m * (m + 1)
        assert 2 * i + b - 2 <= m * m
        assert 2 * i - m * m + m >= 0


def test_intersection_product():
    d1 = numeric_invariants(polygon((0, 0), (2, 1), (1, 2)), 2)
    d2 = numeric_invariants(polygon((0, 0), (3, 1), (5, 2), (5, 3), (2, 5)), 5)
    assert intersection_product(d1, d2) == 0
    assert intersection_product(d1, d1) == d1.self_intersection
    su = numeric_invariants(polygon((0, 0), (1, 0)), 1)
    sv = numeric_invariants(polygon((0, 0), (0, 1)), 1)
    assert intersection_product(su, sv) == 0


def test_intersection_product_symmetric_additive():
    from latticecurves.polygon import minkowski_sum
    a = numeric_invariants(polygon((0, 0), (2, 1), (1, 2)), 1)
    b = numeric_invariants(polygon((0, 0), (3, 1), (1, 3)), 2)
    c = numeric_invariants(polygon((0, 0), (1, 0), (1, 1), (0, 1)), 1)
    assert intersection_product(a, b) == intersection_product(b, a)
    ab = numeric_invariants(minkowski_sum(a.polygon, b.polygon), a.m + b.m)
    assert intersection_product(ab, c) == \
        intersection_product(a, c) + intersection_product(b, c)


def test_classify_eleven_polygons():
    hits = classify_dataset(ELEVEN, 4, 16)
    assert Counter(h.pair.m for h in hits) == {1: 1, 2: 1, 3: 2, 4: 7}
    m2 = next(h for h in hits if h.pair.m == 2)
    expected = LaurentPolynomial({(0, 0): 1, (2, 1): 1, (1, 2): 1, (1, 1): -3})
    assert verify_factorization(m2.polynomial, [expected])


def test_classify_hits_regenerate():
    hits = classify_dataset(ELEVEN, 4, 16)
    for h in hits:
        system = compute_system(h.pair.polygon, h.pair.m)
        assert system.dimension == 1
        assert system.members()[0] == h.polynomial


def test_classify_excludes_positive_and_empty():
    square = polygon((0, 0), (1, 0), (1, 1), (0, 1))
    assert classify_dataset([square], 1, 16) == []  # vol 2 > 1
    empty = polygon((0, 0), (1, 4), (2, 4), (4, 3))
    hits = classify_dataset([empty], 4, 16)
    assert all(h.pair.m != 4 for h in hits)


def test_classify_rejects_negative_limits():
    # a negative volume_max used to skip every polygon and return no hits
    square = polygon((0, 0), (1, 0), (1, 1), (0, 1))
    for args in ((0, 16), (2, -1)):
        with pytest.raises(RangeError):
            classify_dataset([square], *args)
    with pytest.raises(RangeError):
        classify_dataset([square], 2, 16, jobs=-1)
    assert classify_dataset([square], 2, 0) == []


def test_classify_with_oracle_drops_reducible():
    square = polygon((0, 0), (1, 0), (1, 1), (0, 1))
    without = classify_dataset([square], 2, 16)
    assert len(without) == 1 and without[0].irreducibility == INCONCLUSIVE
    u1 = LaurentPolynomial({(1, 0): 1, (0, 0): -1})
    v1 = LaurentPolynomial({(0, 1): 1, (0, 0): -1})
    from latticecurves.polygon import canonical_form
    oracle = {(canonical_form(square).vertices, 2): (u1, v1)}
    assert classify_dataset([square], 2, 16, oracle) == []


def test_oracle_drops_every_image_of_its_polygons():
    """A unimodular change of coordinates fixes (1, 1), so it carries the
    unique member and its factors to every polygon of the class: the oracle
    drops each image at its m, not only the translates."""
    oracle = load_oracle(
        str(resources.files("latticecurves.data").joinpath("oracle_vol6.json")))
    rng = random.Random(1919)
    maps = []
    while len(maps) < 50:
        (a, b), (c, d) = linear = tuple(
            tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2))
        if abs(a * d - b * c) == 1:
            maps.append(UnimodularMap(linear, (0, 0)))
    reported = moved = 0
    for key, m in oracle:
        for u in maps:
            image = u.apply(LatticePolygon(key)).translated_to_origin()
            moved += image != LatticePolygon(key).translated_to_origin()
            reported += any(h.pair.m == m for h in classify_dataset([image], m, 36, oracle))
    assert (reported, len(oracle) * len(maps)) == (0, 300)
    assert moved > 200


def test_classify_deduplicates_equivalent_inputs():
    from latticecurves.polygon import UnimodularMap
    p = polygon((0, 0), (2, 1), (1, 2))
    q = UnimodularMap(((1, 1), (0, 1)), (3, 1)).apply(p)
    hits = classify_dataset([p, q], 2, 16)
    assert len(hits) == 1


def test_classify_parallel_matches_serial():
    polys = ELEVEN + enumerate_polygons(coord_max=2, volume_max=4)
    serial = classify_dataset(polys, 3, 16)
    parallel = classify_dataset(polys, 3, 16, jobs=2)
    assert [h.to_json() for h in serial] == [h.to_json() for h in parallel]


def test_classify_parallel_matches_serial_with_oracle():
    oracle = load_oracle(
        str(resources.files("latticecurves.data").joinpath("oracle_vol6.json")))
    polys = ELEVEN + enumerate_polygons()
    serial = classify_dataset(polys, 4, 16, oracle)
    parallel = classify_dataset(polys, 4, 16, oracle, jobs=2)
    assert [h.to_json() for h in serial] == [h.to_json() for h in parallel]
    # the oracle drops reducible members, so the comparison covers its lookup
    assert len(serial) < len(classify_dataset(polys, 4, 16))


def flat_classify(polygons, m_max, volume_max, oracle=None):
    """Reference: every (polygon, m) pair examined on its own, no early stop.
    A pair whose class and m are in the oracle is dropped, in any coordinates."""
    oracle = oracle or {}
    results, seen = {}, set()
    for poly in polygons:
        vol = poly.volume
        key = canonical_form(poly).vertices
        if vol > volume_max or vol > m_max * m_max or key in seen:
            continue
        seen.add(key)
        for m in range(1, m_max + 1):
            if vol - m * m > 0:
                continue
            system = compute_system(poly, m)
            if system.dimension != 1 or (key, m) in oracle:
                continue
            f = system.members()[0]
            if f.newton_polygon() != poly.translated_to_origin():
                continue
            results[key, m] = ClassificationHit(
                numeric_invariants(poly, m), f, irreducibility_certificate(f))
    return [results[k] for k in sorted(results, key=lambda k: (k[1], k[0]))]


def random_polygons(rng, count, span=3):
    out = []
    while len(out) < count:
        p = convex_hull([(rng.randint(-span, span), rng.randint(-span, span))
                         for _ in range(rng.randint(3, 6))])
        if not p.is_degenerate:
            out.append(p)
    return out


def test_classify_matches_flat_reference():
    rng = random.Random(8)
    oracle = load_oracle(
        str(resources.files("latticecurves.data").joinpath("oracle_vol6.json")))
    polys = ELEVEN + random_polygons(rng, 40) + enumerate_polygons()
    polys += [UnimodularMap(((1, 0), (0, 1)), (-2, -1)).apply(p) for p in polys[:20]]
    # images of the oracle's polygons that are not translates, moved to the
    # origin; they come first, so they stand for their classes
    twist = UnimodularMap(((1, 1), (1, 2)), (0, 0))
    images = [twist.apply(LatticePolygon(key)).translated_to_origin() for key, _ in oracle]
    assert all(img != LatticePolygon(key).translated_to_origin()
               for img, (key, _) in zip(images, oracle))
    polys = images + polys
    want = [h.to_json() for h in flat_classify(polys, 5, 25, oracle)]
    assert [h.to_json() for h in classify_dataset(polys, 5, 25, oracle)] == want
    assert [h.to_json() for h in classify_dataset(polys, 5, 25, oracle, jobs=2)] == want
    assert want and len(want) < len(flat_classify(polys, 5, 25))


def test_classify_count_route_matches_kernel_route():
    """The m-scan's count skip against the flat reference, which solves every
    kernel, on degenerate polygons too and with m up to 8."""
    rng = random.Random(1214)
    polys = [convex_hull([(rng.randint(-4, 4), rng.randint(-4, 4))
                          for _ in range(rng.randint(1, 6))]) for _ in range(60)]
    # half at the origin, where the unique members are found
    polys = [p.translated_to_origin() if k % 2 else p for k, p in enumerate(polys)]
    assert any(p.is_degenerate for p in polys)
    want = [h.to_json() for h in flat_classify(ELEVEN + polys, 8, 64)]
    assert [h.to_json() for h in classify_dataset(ELEVEN + polys, 8, 64)] == want
    assert len(want) > len(ELEVEN)


def test_scan_solves_only_its_first_system():
    """At m = 2 the unit square's system holds one curve, which ends the
    scan: no kernel is solved for m = 3, though the task's last m is 4, past
    the square's width cap of 2."""
    square = polygon((0, 0), (1, 0), (1, 1), (0, 1))
    assert multiplicity_cap(square) == 2
    compute_system.cache_clear()
    hit = _examine((square, 2, 4))
    assert hit.pair.m == 2
    info = compute_system.cache_info()
    assert (info.misses, info.hits) == (1, 0)


def test_scan_above_the_width_cap_solves_no_kernel(monkeypatch):
    """hull((0,0),(4,0),(0,1)) has vol 4, so its scan would start at m = 2,
    but its width cap is 1: it and its images are dropped before a
    canonical form is computed or a system is built."""
    import latticecurves.classify as classify

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("canonical_form", "compute_system"):
        monkeypatch.setattr(classify, name, counted(name, getattr(classify, name)))
    thin = polygon((0, 0), (4, 0), (0, 1))
    assert (thin.volume, multiplicity_cap(thin)) == (4, 1)
    images = [thin, thin.translate(-5, -3),
              UnimodularMap(((2, 1), (1, 1)), (-1, 4)).apply(thin),
              UnimodularMap(((0, 1), (1, 0)), (0, 0)).apply(thin)]
    assert all(multiplicity_cap(p) == 1 for p in images)
    assert classify_dataset(images, 8, 36) == []
    assert calls == Counter()
    # the counters see a polygon that is scanned
    tri = polygon((0, 0), (2, 1), (1, 2))
    assert len(classify_dataset(images + [tri], 8, 36)) == 1
    assert calls == Counter({"canonical_form": 1, "compute_system": 1})


def test_scan_ends_without_reaching_m_max():
    """The scan stops at the width cap or the first empty system, so a huge
    m_max allocates nothing per m and gives the same hits."""
    polys = ELEVEN + enumerate_polygons()
    tracemalloc.start()
    try:
        huge = classify_dataset(polys, 10 ** 4, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert [h.to_json() for h in huge] == \
        [h.to_json() for h in classify_dataset(polys, 40, 16)]


def _zonotope(rng, segments):
    """Minkowski sum of random segments, translated to the origin."""
    pts = [(0, 0)]
    for _ in range(segments):
        dx, dy = rng.randint(-2, 2), rng.randint(-2, 2)
        pts += [(x + dx, y + dy) for x, y in pts]
    return convex_hull(pts).translated_to_origin()


def test_width_certificate_above_the_cap():
    """Above lw(Δ), along (a, b), each basis vector of L(Δ, m) restricts to
    zero on t -> (t^a, t^b): its coefficients sum to 0 on every level
    a p + b q.  So a member with Newton polygon Δ needs Δ's edges along
    both (-b, a) and (b, -a), and then m is at most `multiplicity_cap`."""
    rng = random.Random(1515)
    polys = random_polygons(rng, 150) + [_zonotope(rng, rng.randint(2, 3)).translate(-3, -2)
                                         for _ in range(150)]
    vectors = full = 0
    for poly in polys:
        if poly.is_degenerate:
            continue
        lw, (a, b) = poly.lattice_width()
        for m in range(lw + 1, lw + 4):
            system = compute_system(poly, m)
            for vec in system.basis:
                levels = Counter()
                for (p, q), c in zip(system.points, vec):
                    levels[a * p + b * q] += c
                assert not any(levels.values())
                vectors += 1
            for f in system.members():
                if f.newton_polygon().translated_to_origin() == poly.translated_to_origin():
                    full += 1
                    edges = {(e[0] // gcd(*e), e[1] // gcd(*e))
                             for e in ((q[0] - p[0], q[1] - p[1]) for p, q in poly.edges())}
                    assert {(-b, a), (b, -a)} <= edges
                    assert m <= multiplicity_cap(poly)
    assert vectors > 500 and full > 20


def test_exempt_hits_above_the_width():
    """Two hits above lw(Δ), on polygons with a segment summand along the
    width's level lines, each exactly at its width cap; both members are
    products, so both are Inconclusive."""
    for poly, m in ((polygon((0, 0), (3, 0), (3, 3), (0, 3)), 6),
                    (polygon((0, 0), (2, 1), (3, 2), (1, 1)), 2)):
        assert multiplicity_cap(poly) == m and poly.lattice_width()[0] < m
        hits = [h for h in classify_dataset([poly], m, 36) if h.pair.m == m]
        assert len(hits) == 1 and hits[0].irreducibility == INCONCLUSIVE
        assert hits[0].to_json()["warning"] is True


def _brute_cap(poly):
    """The least width over primitive (a, b), |a|, |b| <= 25, along whose
    level lines poly lacks an edge in one of the two directions."""
    vs = poly.vertices
    edges = set()
    for i, p in enumerate(vs):
        q = vs[(i + 1) % len(vs)]
        g = gcd(q[0] - p[0], q[1] - p[1])
        edges.add(((q[0] - p[0]) // g, (q[1] - p[1]) // g))
    widths = []
    for a in range(-25, 26):
        for b in range(-25, 26):
            if gcd(a, b) != 1 or {(-b, a), (b, -a)} <= edges:
                continue
            dots = [a * x + b * y for x, y in vs]
            widths.append(max(dots) - min(dots))
    return min(widths)


def test_multiplicity_cap_matches_brute_force_and_is_invariant():
    """Two routes to the width cap, on hulls and zonotopes with negative
    coordinates, many of them with edge pairs; the cap is also unchanged
    by random unimodular maps."""
    rng = random.Random(1616)
    polys = random_polygons(rng, 200) + [
        _zonotope(rng, rng.randint(2, 4)).translate(-rng.randint(0, 4), -rng.randint(0, 4))
        for _ in range(200)]
    exempt = degenerate = 0
    for poly in polys:
        cap = multiplicity_cap(poly)
        if poly.is_degenerate:
            assert cap is None
            degenerate += 1
            continue
        assert cap == _brute_cap(poly), poly.vertices
        exempt += cap > poly.lattice_width()[0]
        for _ in range(3):
            while True:
                a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
                if abs(a * d - b * c) == 1:
                    break
            image = UnimodularMap(((a, b), (c, d)),
                                  (rng.randint(-5, 5), rng.randint(-5, 5))).apply(poly)
            assert multiplicity_cap(image) == cap, (poly.vertices, image.vertices)
    assert exempt > 100 and degenerate > 0


def test_multiplicity_cap_walks_only_when_both_reduced_directions_are_paired(monkeypatch):
    """In the reduced basis the narrowest direction, or else the next one,
    gives the cap when it has no edge pair; only a polygon with edge pairs
    along both walks the row of directions (x, 1)."""
    def no_walk(*args):
        raise AssertionError("direction walk")

    monkeypatch.setattr(polygon_module, "count", no_walk)
    assert multiplicity_cap(polygon((0, 0), (4, 0), (0, 1))) == 1
    # (0, 1) is 4 wide along a pair of edges, and the next direction is free
    assert multiplicity_cap(polygon((-1, -3), (0, -3), (1000003, -2), (1000002, 1),
                                    (999999, 1), (0, -2))) == 1000003
    with pytest.raises(AssertionError, match="direction walk"):
        multiplicity_cap(polygon((0, 0), (1, 0), (1, 1), (0, 1)))


def test_classify_width_cap_matches_kernel_route_on_zonotopes():
    """The width cap against the flat reference on parallelograms and
    zonotopes at the origin, whose hits can lie above lw(Δ)."""
    rng = random.Random(1515)
    polys = [_zonotope(rng, 2 + k % 2) for k in range(80)]
    want = flat_classify(polys, 8, 64)
    assert [h.to_json() for h in classify_dataset(polys, 8, 64)] == \
        [h.to_json() for h in want]
    assert any(h.pair.m > h.pair.polygon.lattice_width()[0]
               for h in want if not h.pair.polygon.is_degenerate)


def test_empty_system_stays_empty_at_higher_order():
    """Walk each polygon to its first system of dimension at most 1.  An
    empty one stays empty at m + 1, its rows being among those for m + 1; a
    one-curve one holds a member of order exactly m, and L(Δ, m + 1) is
    empty, which is why that system ends the classify scan."""
    rng = random.Random(11)
    seen = Counter()
    for _ in range(60):
        poly = convex_hull([(rng.randint(-4, 3), rng.randint(-3, 4))
                            for _ in range(rng.randint(1, 6))])
        pts = tuple(poly.lattice_points())
        m = 1
        while (system := compute_system(poly, m)).dimension > 1:
            m += 1
        assert all(row in condition_matrix(pts, m + 1) for row in condition_matrix(pts, m))
        if system.dimension == 1:
            assert system.members()[0].multiplicity_at_identity() == m, (poly.vertices, m)
        assert compute_system(poly, m + 1).is_empty(), (poly.vertices, m)
        seen[poly.is_degenerate, system.dimension] += 1
    assert set(seen) == {(False, 0), (False, 1), (True, 0), (True, 1)}, seen
