import random
from fractions import Fraction
from math import gcd

import pytest

from latticecurves.errors import (
    DegeneratePolygon,
    EmptyList,
    EmptySystem,
    PreconditionFailure,
    RangeError,
)
from latticecurves.families import FamilySpec, family_invariants, family_polygon
from latticecurves.polygon import convex_hull, polygon
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


def pair_segment_equality(poly):
    """Reference: lw when some pair of lattice points spans lattice length lw."""
    lw = poly.lattice_width()[0]
    pts = poly.lattice_points()
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            if gcd(q[0] - p[0], q[1] - p[1]) == lw:
                return Fraction(lw)
    return None


def test_segment_equality_matches_pair_search():
    rng = random.Random(1729)
    outcomes = set()
    for _ in range(400):
        poly = convex_hull([(rng.randint(-6, 4), rng.randint(-5, 5))
                            for _ in range(rng.randint(3, 6))])
        if poly.volume == 0:
            continue
        got = segment_equality(poly)
        assert got == pair_segment_equality(poly), poly.vertices
        outcomes.add((got is None, poly.lattice_width()[0] >= 2))
    assert {(True, True), (False, True)} <= outcomes


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
