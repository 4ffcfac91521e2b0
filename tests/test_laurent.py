from fractions import Fraction

import pytest

from latticecurves.errors import (
    DegenerateInput,
    HypothesisFailure,
    MonomialInput,
    SharedRoot,
    ZeroPolynomial,
)
from latticecurves.laurent import (
    IrreducibilityCertificate,
    LaurentPolynomial,
    UniPoly,
    _const_lp,
    _perfect_power_root,
    _rational_kth_root,
    _trim,
    geometric_sum,
    implicitize,
    irreducibility_certificate,
    num_coeff,
    ord_profile,
    sylvester_det_direct,
    uni_resultant,
    verify_factorization,
)
from latticecurves.polygon import polygon

G = LaurentPolynomial({(2, 1): 1, (1, 2): 1, (1, 1): -3, (0, 0): 1})
H = LaurentPolynomial({(5, 3): 1, (5, 2): -2, (4, 3): -6, (4, 2): 11,
                       (3, 4): -2, (3, 3): 17, (3, 2): -24, (3, 1): -1,
                       (2, 5): -1, (2, 4): 7, (2, 3): -22, (2, 2): 21,
                       (2, 1): 5, (1, 2): 4, (1, 1): -9, (0, 0): 1})


def test_ring_operations():
    u = LaurentPolynomial.monomial(1, 0)
    v = LaurentPolynomial.monomial(0, 1)
    f = (u - LaurentPolynomial.one()) * (v - LaurentPolynomial.one())
    assert f.terms == {(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1}
    assert (f - f).is_zero()
    assert f.shift(-1, 2).terms[(0, 3)] == 1


def test_newton_polygon():
    assert G.newton_polygon() == polygon((0, 0), (2, 1), (1, 2))
    with pytest.raises(ZeroPolynomial):
        LaurentPolynomial.zero().newton_polygon()


def test_multiplicity_at_identity():
    assert G.multiplicity_at_identity() == 2
    assert H.multiplicity_at_identity() == 5
    one_minus_u = LaurentPolynomial({(1, 0): -1, (0, 0): 1})
    assert one_minus_u.multiplicity_at_identity() == 1
    # unaffected by monomial units
    assert G.shift(-3, 5).multiplicity_at_identity() == 2
    assert LaurentPolynomial.one().multiplicity_at_identity() == 0


def test_verify_factorization_up_to_unit():
    prod = G * H
    assert verify_factorization(prod, [G, H])
    assert verify_factorization(prod.shift(2, -1).scale(Fraction(3, 7)), [G, H])
    assert not verify_factorization(prod, [G, G])


def test_irreducibility_certificates():
    assert irreducibility_certificate(G).verdict == \
        IrreducibilityCertificate.IRREDUCIBLE
    cert = irreducibility_certificate(G * H, witness_factors=[G, H])
    assert cert.verdict == IrreducibilityCertificate.REDUCIBLE
    # wrong witnesses degrade to Inconclusive, never to a false verdict
    assert irreducibility_certificate(G * H, witness_factors=[G, G]).verdict \
        == IrreducibilityCertificate.INCONCLUSIVE
    with pytest.raises(MonomialInput):
        irreducibility_certificate(LaurentPolynomial.monomial(2, -3))


def test_unipoly_arithmetic_and_gcd():
    a = UniPoly([-1, 0, 1])          # t^2 - 1
    b = UniPoly([-1, 1])             # t - 1
    q, r = a.divmod(b)
    assert q == UniPoly([1, 1]) and r.is_zero()
    assert a.gcd(b) == UniPoly([-1, 1])
    assert UniPoly([0, 0, 3, 6]).valuation_at_zero() == 2
    assert geometric_sum(1, 4) == UniPoly([0, 1, 1, 1, 1])


def test_resultant_matches_direct_expansion():
    m = 3
    f1 = UniPoly([-1])
    f2 = geometric_sum(1, m)
    f3 = UniPoly.t_power(m)
    f4 = f1 - f2 + f3
    u = LaurentPolynomial.monomial(1, 0)
    v = LaurentPolynomial.monomial(0, 1)
    a = _trim([_const_lp(num_coeff(f1, i)) - u * _const_lp(num_coeff(f2, i))
               for i in range(m + 1)])
    b = _trim([_const_lp(num_coeff(f3, i)) - v * _const_lp(num_coeff(f4, i))
               for i in range(m + 1)])
    assert uni_resultant(a, b) == sylvester_det_direct(a, b)


def test_resultant_rejects_constant_input():
    one = [LaurentPolynomial.one()]
    with pytest.raises(DegenerateInput):
        uni_resultant(one, one)


def test_implicitize_family_i_m2():
    f1 = UniPoly([-1])
    f2 = geometric_sum(1, 2)
    f3 = UniPoly.t_power(2)
    f = implicitize(f1, f2, f3, f1 - f2 + f3)
    expected = LaurentPolynomial({(0, 0): 1, (1, 1): -3, (2, 1): 1, (1, 2): 1})
    assert verify_factorization(f, [expected])


def test_implicitize_rejects_shared_roots():
    t = UniPoly([0, 1])
    with pytest.raises(SharedRoot):
        implicitize(t, t, UniPoly([1]), UniPoly([1]))


def test_perfect_power_extraction():
    g = G
    sq = g * g
    root, k = _perfect_power_root(sq)
    assert k == 2 and verify_factorization(g, [root])
    _, k1 = _perfect_power_root(g)
    assert k1 == 1


def test_rational_kth_root_is_exact_beyond_float_range():
    big = 10**20 + 7
    assert _rational_kth_root(Fraction(big**3), 3) == big
    assert _rational_kth_root(Fraction(big**3 + 1), 3) is None
    for k in (2, 4, 5, 10):
        assert _rational_kth_root(Fraction(2**1100), k) == 2**(1100 // k)
    assert _rational_kth_root(Fraction(2**1100 + 1), 2) is None
    assert _rational_kth_root(Fraction(-3**1401, 2**2001), 3) == Fraction(-3**467, 2**667)
    assert _rational_kth_root(Fraction(-2**1100), 2) is None
    for n in range(200):
        for k in (1, 2, 3):
            root = _rational_kth_root(Fraction(n), k)
            assert (root is not None) == any(r**k == n for r in range(n + 1))


def test_perfect_power_round_trip_with_huge_coefficients():
    g = LaurentPolynomial({(0, 0): 1, (1, 0): 2**550 + 3, (1, 1): -5})
    power = LaurentPolynomial.one()
    for k in (1, 2, 3):
        power = power * g
        root, found = _perfect_power_root(power)
        assert found == k and verify_factorization(g, [root])


def test_ord_profile():
    f1 = UniPoly([-1])
    f2 = geometric_sum(1, 4)
    f3 = UniPoly.t_power(4)
    f4 = f1 - f2 + f3
    assert ord_profile(f1, f2, f3, f4, "zero") == (-1, 4)
    assert ord_profile(f1, f2, f3, f4, "infinity") == (4, -1)


def test_json_roundtrip():
    f = G.scale(Fraction(2, 3)).shift(-1, -2)
    assert LaurentPolynomial.from_json(f.to_json()) == f
