from collections import Counter
from fractions import Fraction
from importlib import resources

import pytest

from latticecurves.classify import (
    classify_dataset,
    expected_case,
    intersection_product,
    numeric_invariants,
)
from latticecurves.cli import load_oracle
from latticecurves.errors import RangeError
from latticecurves.laurent import LaurentPolynomial, verify_factorization
from latticecurves.linsys import compute_system
from latticecurves.polygon import enumerate_polygons, equivalent, polygon

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


def test_classify_with_oracle_drops_reducible():
    square = polygon((0, 0), (1, 0), (1, 1), (0, 1))
    without = classify_dataset([square], 2, 16)
    assert len(without) == 1 and without[0].warning
    u1 = LaurentPolynomial({(1, 0): 1, (0, 0): -1})
    v1 = LaurentPolynomial({(0, 1): 1, (0, 0): -1})
    from latticecurves.polygon import canonical_form
    oracle = {(canonical_form(square)[0].vertices, 2): (u1, v1)}
    assert classify_dataset([square], 2, 16, oracle) == []


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
