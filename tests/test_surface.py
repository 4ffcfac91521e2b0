from fractions import Fraction

import pytest

from latticecurves.errors import ZeroK
from latticecurves.surface import (
    C,
    C1,
    C2,
    GRAM,
    HEXAGON,
    K,
    RELATIONS,
    e_k_class,
    is_principal,
    kxc_decomposition_check,
    pair,
    rr_polygon,
    verify_ek,
    verify_ek_symbolic,
    verify_ledger,
)

E = (0, 0, 0, 0, 0, 0, 1)
BASIS = [tuple(1 if j == i else 0 for j in range(7)) for i in range(7)]


def test_gram_symmetric():
    for i in range(7):
        for j in range(7):
            assert GRAM[i][j] == GRAM[j][i]


def test_basic_pairings():
    assert pair(E, E) == -1
    assert pair(C, C) == 0
    assert pair(C, C1) == 0
    assert pair(C, C2) == 0
    assert pair(C1, C2) == 0


def test_relations_numerically_trivial():
    for r in RELATIONS:
        for b in BASIS:
            assert pair(r, b) == 0


def test_is_principal():
    assert is_principal((0,) * 7)
    assert is_principal((-1, 0, 1, 16, -13, -3, 0))
    assert not is_principal(E)
    for r in RELATIONS:
        assert is_principal(r)
    assert is_principal(tuple(a + b for a, b in zip(*RELATIONS)))


def test_kxc_decomposition():
    assert kxc_decomposition_check()
    perturbed = tuple(K[i] + C[i] - 4 * C1[i] - 2 * C2[i] for i in range(7))
    assert not is_principal(perturbed)
    cls = tuple(K[i] + C[i] - 3 * C1[i] - 2 * C2[i] for i in range(7))
    for b in BASIS:
        assert pair(cls, b) == 0


def test_e_k_values():
    assert e_k_class(1) == (0, 0, 6, 103, 26, 4, -23)
    assert e_k_class(-1) == (0, 0, 6, 201, 132, 28, -61)
    assert e_k_class(2) == (0, 0, 27, 537, 183, 34, -130)
    with pytest.raises(ZeroK):
        e_k_class(0)
    with pytest.raises(ZeroK):
        verify_ek(0)


def test_e_k_identities_range():
    for k in range(-50, 51):
        if k == 0:
            continue
        report = verify_ek(k)
        assert report["passed"], k


def test_e_k_identities_symbolic():
    checks = verify_ek_symbolic()
    assert checks["passed"]


def test_ledger_passes():
    report = verify_ledger()
    assert report["passed"], report


def test_ample_coefficients_match_C():
    assert [c for _, c in HEXAGON.ample_coefficients()] == list(C[:6])


def test_rr_polygon_invariants():
    for k in range(1, 11):
        poly, report = rr_polygon(k)
        m = 42 * k * k - 19 * k
        assert report["m"] == m
        assert poly.volume == m * m - 1
        assert poly.lattice_counts()[1] == m + 1
        assert poly.lattice_width()[0] == m
        assert report["passed"]
    with pytest.raises(ZeroK):
        rr_polygon(0)


def test_rr_polygon_k1_vertices():
    poly, _ = rr_polygon(1)
    assert set(poly.vertices) <= {(0, 0), (0, 8), (23, 15), (4, 2), (22, 14),
                                  (3, 23)}
    assert poly.volume == 528
