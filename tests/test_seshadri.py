import random
from fractions import Fraction
from math import gcd

import pytest

import latticecurves.polygon as polygon_module
from latticecurves.errors import (
    DegeneratePolygon,
    EmptyList,
    EmptySystem,
    LatticeCurveError,
    PreconditionFailure,
    RangeError,
)
from latticecurves.families import FamilySpec, family_invariants, family_polygon
from latticecurves.linsys import compute_system, expected_dimension
from latticecurves.polygon import (
    LatticePolygon,
    UnimodularMap,
    convex_hull,
    equivalent,
    polygon,
)
from latticecurves.seshadri import (
    component_minimum,
    estimate,
    ito_family_i_lower,
    rationality_certificates,
    segment_equality,
    width_upper_bound,
)


def quad(m):
    return polygon((0, 0), (0, 1), (m, 1), (1, m))


def test_width_upper_bound():
    assert width_upper_bound(polygon((0, 0), (1, 0), (1, 1), (0, 1))) == 1
    assert width_upper_bound(polygon((0, 0), (4, 1), (1, 4))) == 4
    assert width_upper_bound(quad(5)) == 5
    with pytest.raises(DegeneratePolygon):
        width_upper_bound(polygon((0, 0), (2, 0)))


def test_rationality_certificates():
    wide = polygon((0, 0), (9, 0), (9, 1), (0, 1))  # vol 18 > lw² = 1
    assert "InteriorClassRational" in rationality_certificates(wide)
    fam_i = polygon((0, 0), (3, 1), (1, 3))
    assert "VolOverM" in rationality_certificates(fam_i, 3)
    with pytest.raises(EmptySystem):
        rationality_certificates(polygon((0, 0), (1, 4), (2, 4), (4, 3)), 4)


def test_segment_equality():
    assert segment_equality(quad(6)) == 6
    assert segment_equality(polygon((0, 0), (1, 0), (1, 1), (0, 1))) == 1
    assert segment_equality(polygon((0, 0), (3, 1), (1, 3))) is None
    with pytest.raises(DegeneratePolygon):
        segment_equality(polygon((0, 0), (3, 0)))


def pair_segment_equality(poly):
    """Reference: lw when some pair of lattice points spans lattice length lw."""
    lw = poly.lattice_width()[0]
    pts = poly.lattice_points()
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            if gcd(q[0] - p[0], q[1] - p[1]) == lw:
                return Fraction(lw)
    return None


PENTAGON = ((0, 1), (1, 0), (3, 0), (4, 4), (1, 2))  # vol = lw² = 16, no width-length segment


def test_segment_equality_matches_pair_search():
    """The slices of the reduced image against a search over all point pairs,
    on hulls, their sheared images (whose reduced basis is far from the
    standard one) and the pentagon, scaled, which has no such segment and
    no slice whose real length reaches lw."""
    rng = random.Random(1729)
    outcomes = set()
    polys = []
    for _ in range(400):
        poly = convex_hull([(rng.randint(-6, 4), rng.randint(-5, 5))
                            for _ in range(rng.randint(3, 6))])
        if poly.volume == 0:
            continue
        polys.append(poly)
        while True:
            a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
            if abs(a * d - b * c) == 1:
                break
        polys.append(UnimodularMap(((a, b), (c, d)), (0, 0)).apply(poly))
    polys += [polygon(*((k * x, k * y) for x, y in PENTAGON)) for k in (1, 2, 3, 4, 5)]
    for poly in polys:
        got = segment_equality(poly)
        assert got == pair_segment_equality(poly), poly.vertices
        outcomes.add((got is None, poly.lattice_width()[0] >= 2))
    assert {(True, True), (False, True)} <= outcomes
    assert all(segment_equality(p) is None and p.volume == p.lattice_width()[0] ** 2
               for p in polys[-5:])


def test_ito_lower_bound():
    assert ito_family_i_lower(2) == Fraction(3, 2)
    assert ito_family_i_lower(5) == Fraction(24, 5)
    with pytest.raises(RangeError):
        ito_family_i_lower(1)


def test_component_minimum():
    assert component_minimum([(3, 1), (5, 2)]) == Fraction(5, 2)
    assert component_minimum([(13, 2), (35, 5)]) == Fraction(13, 2)
    with pytest.raises(EmptyList):
        component_minimum([])
    with pytest.raises(RangeError):
        component_minimum([(3, 1), (5, 0)])


def test_estimate_family_i_both_routes():
    for m in (2, 3, 7):
        poly = polygon((0, 0), (m, 1), (1, m))
        by_irred = estimate(poly, m, irreducible=True)
        by_ito = estimate(poly, m, irreducible=False)
        assert by_irred.exact == by_ito.exact == Fraction(m * m - 1, m)
        assert "ItoFamilyI" in by_ito.certificates
        assert by_ito.lower <= by_ito.upper


def test_estimate_preconditions():
    fam_i = polygon((0, 0), (3, 1), (1, 3))
    with pytest.raises(PreconditionFailure):
        estimate(fam_i, 4)  # m > lattice width
    with pytest.raises(PreconditionFailure):
        estimate(fam_i, 2)  # vol 8 > 4
    with pytest.raises(PreconditionFailure):
        estimate(polygon((0, 0), (1, 4), (2, 4), (4, 3)), 4)  # empty system


def test_estimate_is_exact_only_where_a_lower_bound_meets_vol_over_m():
    # lw = 5 and vol = 24: no lower bound enters, so the constant stays open
    tri = polygon((0, 0), (6, 3), (2, 5))
    est = estimate(tri, 5)
    assert est.lower == 0 < est.upper == Fraction(24, 5)
    assert est.exact is None and est.to_json()["exact"] is None
    assert estimate(tri, 5, irreducible=True).to_json()["exact"] == "24/5"


def test_estimate_matches_c2_formula_across_families():
    for fam, m in (("I", 6), ("II", 6), ("III", 8), ("IV", 6), ("V", 8)):
        spec = FamilySpec(fam, m)
        poly = family_polygon(spec)
        c2, _, _ = family_invariants(spec)
        est = estimate(poly, m, irreducible=True)
        assert est.exact == Fraction(poly.volume, m) == m + Fraction(c2, m)


def test_component_minimum_single_matches_estimate_upper():
    poly = polygon((0, 0), (5, 1), (1, 5))
    est = estimate(poly, 5, irreducible=True)
    assert component_minimum([(poly.volume, 5)]) == est.upper


def test_quadrilateral_segment_family():
    for m in (4, 9, 15):
        assert segment_equality(quad(m)) == m == width_upper_bound(quad(m))


def test_order_below_one_raises_range_error():
    tri = polygon((0, 0), (20, 1), (1, 20))
    for m in (0, -1, -19, -20):  # vol 399 <= m^2 from m = -20 down
        with pytest.raises(RangeError, match="vanishing order must be at least 1"):
            estimate(tri, m)
    with pytest.raises(RangeError, match="vanishing order must be at least 1"):
        rationality_certificates(tri, 0)


def test_estimate_at_m20_solves_no_kernel():
    # 211 lattice points against 210 conditions: the count proves L(Δ, 20) ≠ 0
    tri = polygon((0, 0), (20, 1), (1, 20))
    before = compute_system.cache_info()
    est = estimate(tri, 20, irreducible=True)
    assert compute_system.cache_info() == before
    assert est.exact == Fraction(399, 20)


def kernel_certificates(poly, m):
    """Reference for `rationality_certificates`: L(Δ, m) ≠ 0 from the kernel."""
    certs = []
    lw = width_upper_bound(poly)
    if poly.volume > lw * lw:
        certs.append("InteriorClassRational")
    if compute_system(poly, m).is_empty():
        raise EmptySystem(f"no curve with multiplicity {m} on this polygon")
    if poly.volume <= m * m:
        certs.append("VolOverM")
    return certs


def kernel_estimate(poly, m, irreducible):
    """Reference for `estimate(...).to_json()`: L(Δ, m) ≠ 0 from the kernel,
    every lower bound computed whether or not it can enter, and the constant
    exact once a lower bound meets vol/m."""
    vol = poly.volume
    lw = width_upper_bound(poly)
    if m < 1:
        raise RangeError("vanishing order must be at least 1")
    if vol > m * m or m > lw:
        raise PreconditionFailure("vol > m^2 or m > lattice width")
    if compute_system(poly, m).is_empty():
        raise PreconditionFailure("empty system")
    upper = Fraction(vol, m)
    certs, lower = ["VolOverM"], Fraction(0)
    seg = segment_equality(poly)
    if seg is not None and seg <= upper:
        lower = seg
        certs.append("SegmentEquality")
    if m >= 2 and equivalent(poly, polygon((0, 0), (m, 1), (1, m))):
        certs.append("ItoFamilyI")
        lower = max(lower, ito_family_i_lower(m))
    if irreducible:
        certs.append("IrreducibleEquality")
        lower = upper
    certs.append("WidthBound")
    return {"lower": str(lower), "upper": str(upper),
            "exact": str(upper) if lower == upper else None, "certificates": certs}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LatticeCurveError as exc:
        return type(exc)


def _random_unimodular_map(rng):
    while True:
        a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
        if abs(a * d - b * c) == 1:
            return UnimodularMap(((a, b), (c, d)), (rng.randint(-5, 5), rng.randint(-5, 5)))


def test_count_route_matches_kernel_route(monkeypatch):
    rng = random.Random(1213)
    cases = []
    for _ in range(150):
        poly = convex_hull([(rng.randint(-5, 5), rng.randint(-5, 5))
                            for _ in range(rng.randint(1, 6))])
        cases.append((poly, rng.randint(1, 8)))
    cases += [(polygon((0, 0), (m, 1), (1, m)), m) for m in range(1, 9)]
    cases += [(polygon((0, 0), (1, 4), (2, 4), (4, 3)), 4),  # count 0, empty
              (family_polygon(FamilySpec("III", 8)), 8)]  # count 0, one curve
    # vol = m² and lw = m: the only cases where SegmentEquality can enter
    cases += [(polygon((0, 0), (m, 0), (0, m)), m) for m in range(1, 7)]
    cases += [(family_polygon(FamilySpec(fam, m)), m) for fam, m in (("IV", 6), ("V", 8))]
    # vol = m² − 1: images of the family I triangle, family II (5 vertices),
    # and a triangle with lw = 5 that is not equivalent to the family I one
    for m in range(2, 9):
        tri = polygon((0, 0), (m, 1), (1, m))
        image = _random_unimodular_map(rng).apply(tri)
        while image == tri:
            image = _random_unimodular_map(rng).apply(tri)
        cases.append((image, m))
    cases += [(family_polygon(FamilySpec("II", 6)), 6), (polygon((0, 0), (6, 3), (2, 5)), 5)]

    forms = []  # the polygons whose canonical form the count route builds
    canonical_form = polygon_module.canonical_form
    monkeypatch.setattr(polygon_module, "canonical_form",
                        lambda p: forms.append(p) or canonical_form(p))
    seen, certs = set(), set()
    for poly, m in cases:
        for irr in (False, True):
            forms.clear()
            est = _outcome(estimate, poly, m, irr)
            if forms:
                assert len(poly.vertices) == 3 and poly.volume == m * m - 1, poly.vertices
            assert (est if isinstance(est, type) else est.to_json()) \
                == _outcome(kernel_estimate, poly, m, irr), (poly.vertices, m, irr)
            if not poly.is_degenerate:
                seen.add((expected_dimension(poly, m) > 0, isinstance(est, type)))
            if not isinstance(est, type):
                certs.add(tuple(c in est.certificates for c in ("SegmentEquality", "ItoFamilyI")))
        assert (_outcome(rationality_certificates, poly, m)
                == _outcome(kernel_certificates, poly, m)), (poly.vertices, m)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    # each certificate both appears and stays out
    assert {seg for seg, _ in certs} == {True, False} == {ito for _, ito in certs}


def test_estimate_walks_points_and_builds_forms_only_where_they_can_enter(monkeypatch):
    calls = {"points": 0, "forms": 0, "hulls": 0}
    lattice_points, canonical_form = LatticePolygon.lattice_points, polygon_module.canonical_form
    hull = LatticePolygon.hull

    def counted_points(self):
        calls["points"] += 1
        return lattice_points(self)

    def counted_form(poly):
        calls["forms"] += 1
        return canonical_form(poly)

    def counted_hull(points):
        calls["hulls"] += 1
        return hull(points)

    t_400 = polygon((0, 0), (400, 1), (1, 400))
    monkeypatch.setattr(LatticePolygon, "lattice_points", counted_points)
    monkeypatch.setattr(polygon_module, "canonical_form", counted_form)
    monkeypatch.setattr(LatticePolygon, "hull", staticmethod(counted_hull))
    # T_400: lw·m > vol, and the triangle is its own family I reference, no hull built
    est = estimate(t_400, 400, irreducible=True)
    assert est.exact == Fraction(159999, 400) and "ItoFamilyI" in est.certificates
    assert calls == {"points": 0, "forms": 0, "hulls": 0}
    # family II at m = 6 has volume m² − 1 = 35 but five vertices
    fam_ii = family_polygon(FamilySpec("II", 6))
    assert fam_ii.volume == 35
    estimate(fam_ii, 6)
    assert calls["forms"] == 0
    # vol = m² and lw = m: SegmentEquality reads slices of the reduced image, no points
    est = estimate(polygon((0, 0), (2, 0), (0, 2)), 2)
    assert calls["points"] == 0 and "SegmentEquality" in est.certificates
