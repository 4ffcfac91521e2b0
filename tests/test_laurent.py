import random
from collections import Counter
from fractions import Fraction
from itertools import cycle, islice, zip_longest
from math import comb, gcd, isqrt, lcm

import numpy as np
import pytest

from latticecurves.errors import (
    ConstantMap,
    DegenerateInput,
    HypothesisFailure,
    MonomialInput,
    SharedRoot,
    ZeroPolynomial,
)
from latticecurves.laurent import (
    INCONCLUSIVE,
    IRREDUCIBLE,
    LaurentPolynomial,
    UniPoly,
    _interpolate_mod,
    _int_kth_root,
    _inverse_mod,
    _perfect_power_root,
    _primitive,
    _res_mod,
    _res_mod_batch,
    _side_residues,
    geometric_sum,
    implicitize,
    irreducibility_certificate,
    ord_profile,
    shares_factor,
    uni_resultant,
    verify_factorization,
)
from latticecurves.linsys import compute_system
from latticecurves.modular import _word_primes
from latticecurves.polygon import polygon

G = LaurentPolynomial({(2, 1): 1, (1, 2): 1, (1, 1): -3, (0, 0): 1})
U = LaurentPolynomial.monomial(1, 0)
V = LaurentPolynomial.monomial(0, 1)
ONE = LaurentPolynomial.one()
H = LaurentPolynomial({(5, 3): 1, (5, 2): -2, (4, 3): -6, (4, 2): 11,
                       (3, 4): -2, (3, 3): 17, (3, 2): -24, (3, 1): -1,
                       (2, 5): -1, (2, 4): 7, (2, 3): -22, (2, 2): 21,
                       (2, 1): 5, (1, 2): 4, (1, 1): -9, (0, 0): 1})


def _const_lp(c) -> LaurentPolynomial:
    return LaurentPolynomial({(0, 0): c})


def _trim(a: list) -> list:
    """A coefficient list, numbers or Laurent polynomials, without its top zeros."""
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _side(f: UniPoly, g: UniPoly, w: LaurentPolynomial) -> list:
    """f - w g as a t-polynomial with Laurent coefficients."""
    return _trim([_const_lp(c) - w * _const_lp(d)
                  for c, d in zip_longest(f, g, fillvalue=0)])


def _fraction_divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder over Q of coefficient lists, lowest first, with
    b's last entry nonzero; the remainder keeps len(b) - 1 entries."""
    rem = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    for i in range(len(rem) - len(b), -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        q[i] = c
        for j, d in enumerate(b):
            rem[i + j] -= c * d
    return q, rem[:len(b) - 1]


def _fraction_gcd(a: list, b: list) -> list:
    """Monic gcd over Q by Euclid on coefficient lists, lowest first; [] is 0.
    The reference for the resultant certificate `shares_factor`."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _trim(_fraction_divmod(a, b)[1])
    return [Fraction(c) / a[-1] for c in a]


def _integer_pair(p: list, q: list) -> tuple[UniPoly, UniPoly]:
    """Two rational coefficient lists times the lcm of their denominators:
    the same map t -> p/q, in integer polynomials."""
    lam = lcm(*(Fraction(c).denominator for c in p + q))
    return UniPoly([int(c * lam) for c in p]), UniPoly([int(c * lam) for c in q])


def sylvester_matrix(a: list, b: list) -> list[list]:
    """Sylvester matrix of two coefficient lists of numbers or Laurent polynomials."""
    n, m = len(a) - 1, len(b) - 1
    zero = a[-1] * 0  # of the entries' type
    rows = [[zero] * i + a[::-1] + [zero] * (m - 1 - i) for i in range(m)]
    return rows + [[zero] * i + b[::-1] + [zero] * (n - 1 - i) for i in range(n)]


def sylvester_det_direct(a, b) -> LaurentPolynomial:
    """Cofactor expansion of the Sylvester determinant over the Laurent ring.

    Exponential; dual-route oracle for :func:`uni_resultant` at small degree.
    """
    mat = sylvester_matrix(_trim(a), _trim(b))

    def det(rows, cols):
        if not cols:
            return LaurentPolynomial.one()
        out = LaurentPolynomial.zero()
        r = rows[0]
        for idx, c in enumerate(cols):
            entry = mat[r][c]
            if entry.is_zero():
                continue
            sub = det(rows[1:], cols[:idx] + cols[idx + 1 :])
            term = entry * sub
            out = out + (term if idx % 2 == 0 else -term)
        return out

    n = len(mat)
    return det(list(range(n)), list(range(n)))


def test_ring_operations():
    u = LaurentPolynomial.monomial(1, 0)
    v = LaurentPolynomial.monomial(0, 1)
    f = (u - LaurentPolynomial.one()) * (v - LaurentPolynomial.one())
    assert f.terms == {(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1}
    assert (f - f).is_zero()
    assert f.shift(-1, 2).terms[(0, 3)] == 1


def test_exponents_of_another_length_raise():
    # a reader of e[0], e[1] took (1, 0, 7) as u; a zero term is checked too
    for e in ((1, 0, 7), (1,)):
        for c in (3, 0):
            with pytest.raises(ValueError):
                LaurentPolynomial({e: c})


def test_newton_polygon():
    assert G.newton_polygon() == polygon((0, 0), (2, 1), (1, 2))
    with pytest.raises(ZeroPolynomial):
        LaurentPolynomial.zero().newton_polygon()
    with pytest.raises(ZeroPolynomial):
        LaurentPolynomial.zero().min_exponents()


def test_multiplicity_at_identity():
    assert G.multiplicity_at_identity() == 2
    assert H.multiplicity_at_identity() == 5
    one_minus_u = LaurentPolynomial({(1, 0): -1, (0, 0): 1})
    assert one_minus_u.multiplicity_at_identity() == 1
    # unaffected by monomial units
    assert G.shift(-3, 5).multiplicity_at_identity() == 2
    assert LaurentPolynomial.one().multiplicity_at_identity() == 0


# ---- reference route: polynomials as dicts {(p, q): Fraction}, over Q


def _q_terms(f: LaurentPolynomial) -> dict:
    return {e: Fraction(c) for e, c in f.terms.items()}


def _q_mul(f: dict, g: dict) -> dict:
    out = {}
    for (p1, q1), c1 in f.items():
        for (p2, q2), c2 in g.items():
            e = (p1 + p2, q1 + q2)
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _q_normalized(f: dict) -> dict:
    """f over its monomial unit and its lex-least coefficient."""
    dp, dq = min(p for p, _ in f), min(q for _, q in f)
    lead = f[min(f)]
    return {(p - dp, q - dq): c / lead for (p, q), c in f.items()}


def _q_verify(f: dict, factors) -> bool:
    """f equals the product up to a monomial unit and a nonzero rational."""
    product = {(0, 0): Fraction(1)}
    for g in factors:
        product = _q_mul(product, g)
    if not f or not product:
        return not f and not product
    return _q_normalized(f) == _q_normalized(product)


def _q_cleared(f: dict) -> dict:
    """f times the lcm of its denominators."""
    den = lcm(*(c.denominator for c in f.values()))
    return {e: c * den for e, c in f.items()}


def _q_to_json(f: dict) -> dict:
    return {"terms": [{"e": [p, q], "c": f"{c.numerator}/{c.denominator}"}
                      for (p, q), c in sorted(f.items())]}


def _q_from_json(obj: dict) -> dict:
    return {tuple(t["e"]): Fraction(t["c"]) for t in obj["terms"]}


def _fraction_multiplicity(f: dict) -> int:
    """The Fraction sum that preceded the integer multiplicity_at_identity."""
    dp, dq = min(p for p, _ in f), min(q for _, q in f)
    f = {(p - dp, q - dq): c for (p, q), c in f.items()}
    pmax = max(p for p, _ in f)
    qmax = max(q for _, q in f)
    for k in range(pmax + qmax + 1):
        for a in range(k + 1):
            s = Fraction(0)
            for (p, q), c in f.items():
                s += c * comb(p, a) * comb(q, k - a)
            if s:
                return k
    raise AssertionError("nonzero polynomial without finite multiplicity")


def _vanishing_factor(rng) -> LaurentPolynomial:
    """u^a v^b - 1, or u - v: a factor that vanishes at (1, 1)."""
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    return LaurentPolynomial({(a, b): 1}) - ONE if a or b else U - V


def test_multiplicity_at_identity_matches_fraction_sum():
    from latticecurves.families import FamilySpec, family_parametrization

    rng = random.Random(1151)
    seen = set()
    for _ in range(300):
        f = _random_laurent(rng) or ONE
        for _ in range(rng.randint(0, 3)):
            f = f * _vanishing_factor(rng)
        f = f.shift(rng.randint(-4, 4), rng.randint(-4, 4))
        k = f.multiplicity_at_identity()
        assert k == _fraction_multiplicity(_q_terms(f))
        seen.add(k)
        # the order is symmetric in u and v, and a shear fixes (1, 1)
        s = rng.choice((-3, 2, 10 ** 6))
        for g in (LaurentPolynomial({(q, p): c for (p, q), c in f.terms.items()}),
                  LaurentPolynomial({(p + s * q, q): c for (p, q), c in f.terms.items()})):
            assert g.multiplicity_at_identity() == _fraction_multiplicity(_q_terms(g)) == k
    assert seen >= {0, 1, 2, 3}
    # the implicit equations of the largest family members the CLI verifies
    for fam, m in (("I", 20), ("III", 16), ("III", 20)):
        par = family_parametrization(FamilySpec(fam, m))
        f = implicitize(par.f1, par.f2, par.f3, par.f4)
        assert f.multiplicity_at_identity() == _fraction_multiplicity(_q_terms(f)) == m
    # the unique member of (0,0),(m,1),(1,m) under (x, y) -> (x + 10^30 y, y), which has
    # many more distinct u-exponents than v-exponents, and its transpose
    f = compute_system(polygon((0, 0), (8, 1), (1, 8)), 8).members()[0]
    for g in (f, LaurentPolynomial({(p + 10 ** 30 * q, q): c for (p, q), c in f.terms.items()})):
        t = LaurentPolynomial({(q, p): c for (p, q), c in g.terms.items()})
        assert g.multiplicity_at_identity() == t.multiplicity_at_identity() == 8
    with pytest.raises(ZeroPolynomial):
        LaurentPolynomial.zero().multiplicity_at_identity()


def test_verify_factorization_up_to_unit():
    prod = G * H
    assert verify_factorization(prod, [G, H])
    assert verify_factorization(prod.shift(2, -1).scale(-7), [G, H])
    assert not verify_factorization(prod, [G, G])


def test_irreducibility_certificates():
    assert irreducibility_certificate(G) == IRREDUCIBLE
    with pytest.raises(MonomialInput):
        irreducibility_certificate(LaurentPolynomial.monomial(2, -3))
    with pytest.raises(ZeroPolynomial):
        irreducibility_certificate(LaurentPolynomial.zero())


def test_certificate_past_the_decomposition_limit_is_inconclusive():
    # an octagon with eight edges of lattice length 6, past the 10**6 bound of
    # the listing search (7**8 sub-multisets); it is a zonotope, a sum of four
    # segments, so decomposable and no proof of irreducibility
    walk = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    verts, x, y = [], 0, 0
    for dx, dy in walk:
        verts.append((x, y))
        x, y = x + 6 * dx, y + 6 * dy
    f = LaurentPolynomial({e: 1 for e in verts})
    assert len(f.newton_polygon().vertices) == 8
    assert irreducibility_certificate(f) == INCONCLUSIVE


def test_unipoly_arithmetic_and_gcd():
    a = UniPoly([-1, 0, 1])          # t^2 - 1
    b = UniPoly([-1, 1])             # t - 1
    q, r = _fraction_divmod(a, b)
    assert q == [1, 1] and not any(r)
    assert _fraction_gcd(a, b) == [-1, 1]
    assert shares_factor(a, b) and not shares_factor(a, UniPoly([2, 1]))
    assert a * b == UniPoly([1, -1, -1, 1]) and (a - a).is_zero()
    assert 3 * a == a * 3 == UniPoly([-3, 0, 3])
    assert UniPoly([0, 0, 3, 6]).valuation_at_zero() == 2
    with pytest.raises(ZeroPolynomial):
        UniPoly([0]).valuation_at_zero()
    assert geometric_sum(1, 4) == UniPoly([0, 1, 1, 1, 1])
    with pytest.raises(TypeError):  # integer coefficients only
        UniPoly([Fraction(1, 2)])
    with pytest.raises(TypeError):
        LaurentPolynomial({(0, 0): Fraction(1, 2)})


def _random_laurent(rng):
    return LaurentPolynomial({(rng.randint(-1, 1), rng.randint(-1, 2)): rng.randint(-12, 12)
                              for _ in range(rng.randint(1, 3))})


def _direct(f1, f2, f3, f4) -> LaurentPolynomial:
    """Res_t(f1 - u f2, f3 - v f4) by cofactor expansion over the Laurent ring."""
    return sylvester_det_direct(_side(f1, f2, U), _side(f3, f4, V))


def test_resultant_matches_direct_expansion():
    m = 3
    f1 = UniPoly([-1])
    f2 = geometric_sum(1, m)
    f3 = UniPoly.t_power(m)
    f4 = f1 - f2 + f3
    assert uni_resultant(f1, f2, f3, f4) == _direct(f1, f2, f3, f4)


def _side_kinds(f, g, nodes) -> set:
    """What makes the side f - x g of a resultant input unusual, x = 1..nodes
    being its evaluation grid."""
    n = max(len(f), len(g)) - 1
    fn, gn = (h[n] if len(h) > n else 0 for h in (f, g))
    return {k for k, hit in (
        ("lead vanishes at a grid node", gn and fn % gn == 0 and 1 <= fn // gn <= nodes),
        ("lead constant in x", len(g) < len(f)),
        ("zero inner coefficient", any(not (c or d) for c, d in
                                       islice(zip_longest(f, g, fillvalue=0), n))),
        ("g = 0", not g)) if hit}


def _random_side(rng, deg, nodes):
    """(f, g) for the side f - x g of t-degree deg: small integers, zero ones
    among them; the lead vanishes at a grid node (f_n = x g_n, x = 1..nodes),
    is constant in x (deg g < deg f), or is the lead of -x g; or g is 0."""
    def small():
        return rng.choice([0, rng.randint(-12, 12)])

    def nonzero():
        return rng.choice([-1, 1]) * rng.randint(1, 12)

    f, g = [small() for _ in range(deg)], [small() for _ in range(deg)]
    kind = rng.choice(["node", "constant", "zero g", "zero f", "random", "random"])
    if kind == "node":
        d = nonzero()
        f, g = f + [rng.randint(1, nodes) * d], g + [d]
    elif kind == "constant":
        f, g = f + [nonzero()], g[:rng.randint(0, deg)]
    elif kind == "zero g":
        f, g = f + [nonzero()], []
    elif kind == "zero f":
        f, g = [], g + [nonzero()]
    else:
        f, g = f + [small()], g + [nonzero()]
    return UniPoly(f), UniPoly(g)


def _random_inputs(seed, count, max_deg):
    """`count` seeded (f1, f2, f3, f4), both sides of t-degree 1..max_deg."""
    rng = random.Random(seed)
    for _ in range(count):
        deg_a, deg_b = rng.randint(1, max_deg), rng.randint(1, max_deg)
        yield (*_random_side(rng, deg_a, deg_b + 1), *_random_side(rng, deg_b, deg_a + 1))


def test_resultant_matches_direct_expansion_on_random_laurent_inputs():
    f1, f2, f3, f4 = UniPoly([1]), UniPoly([0, -1]), UniPoly([1, 1]), UniPoly([0, 0, -1])
    assert uni_resultant(f1, f2, f3, f4) == _direct(f1, f2, f3, f4)
    seen = set()
    for f1, f2, f3, f4 in _random_inputs(20260418, 150, 3):
        assert uni_resultant(f1, f2, f3, f4) == _direct(f1, f2, f3, f4), (f1, f2, f3, f4)
        deg_a, deg_b = max(len(f1), len(f2)) - 1, max(len(f3), len(f4)) - 1
        seen |= _side_kinds(f1, f2, deg_b + 1) | _side_kinds(f3, f4, deg_a + 1)
    assert seen == {"lead vanishes at a grid node", "lead constant in x",
                    "zero inner coefficient", "g = 0"}


def test_resultant_matches_direct_expansion_with_huge_coefficients():
    # coefficients near 10**25 of both signs: the bound needs several primes,
    # and the lift gives negative coefficients
    rng = random.Random(25)

    def side():
        return (UniPoly([rng.randint(-10**25, 10**25) for _ in range(rng.randint(2, 3))])
                for _ in range(2))

    def norm(f, g):
        return sum(map(abs, f)) + sum(map(abs, g))

    def squares(f, g):  # bounds the squared norm of a Sylvester row on |u| = |v| = 1
        return sum((abs(c) + abs(d)) ** 2 for c, d in zip_longest(f, g, fillvalue=0))

    for _ in range(6):
        (f1, f2), (f3, f4) = side(), side()
        n, m = max(len(f1), len(f2)) - 1, max(len(f3), len(f4)) - 1
        assert 2 * norm(f1, f2) ** m * norm(f3, f4) ** n > 2**93  # > 3 primes
        # and so does the Goldstein-Graham bound that uni_resultant uses
        assert 2 * (isqrt(squares(f1, f2) ** m * squares(f3, f4) ** n) + 1) > 2**93
        res = uni_resultant(f1, f2, f3, f4)
        assert res == _direct(f1, f2, f3, f4)
        assert min(res.terms.values()) < 0


def test_resultant_keeps_a_coefficient_that_vanishes_mod_a_prime():
    # Res(t + p u, t - 1) = -1 - p u needs two primes, and its u-coefficient
    # is zero mod the first: the lift must still visit it
    p = next(_word_primes())
    f = (UniPoly([0, 1]), UniPoly([-p]), UniPoly([-1, 1]), UniPoly())
    assert uni_resultant(*f) == _direct(*f) == LaurentPolynomial({(0, 0): -1, (1, 0): -p})


def test_resultant_matches_sympy_up_to_sign():
    sympy = pytest.importorskip("sympy")
    t, u, v = sympy.symbols("t u v")

    def expr(f):
        return sum(c * u**p * v**q for (p, q), c in f.terms.items())

    def side(f, g, x):
        return sum((c - x * d) * t**i for i, (c, d) in enumerate(zip_longest(f, g, fillvalue=0)))

    # sympy's sign convention differs from the classical one: Res(t - 2, t^3) = 8
    assert uni_resultant(UniPoly([-2, 1]), UniPoly(), UniPoly.t_power(3), UniPoly()) \
        == _const_lp(8)
    for f1, f2, f3, f4 in _random_inputs(7, 20, 2):
        ours = expr(uni_resultant(f1, f2, f3, f4))
        theirs = sympy.resultant(side(f1, f2, u), side(f3, f4, v), t)
        assert sympy.cancel(theirs - ours) == 0 or sympy.cancel(theirs + ours) == 0


def _fraction_elimination_det(m):
    """Determinant by Gaussian elimination over Fraction."""
    n = len(m)
    m = [[Fraction(x) for x in row] for row in m]
    sign, det = 1, Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k + 1, n):
                m[i][j] -= f * m[k][j]
    return sign * det


def _prime_blocks(rows):
    """Rows (p, a, b, ...) grouped into blocks by prime, for `_res_mod_batch`:
    the primes in order of first use, and the blocks, each filled out to the
    longest by repeating its own rows from the start."""
    blocks = {}
    for row in rows:
        blocks.setdefault(row[0], []).append(row)
    per = max(map(len, blocks.values()))
    return list(blocks), [list(islice(cycle(block), per)) for block in blocks.values()]


def _batch(primes, blocks):
    """`_res_mod_batch` on blocks of (p, a, b, ...) rows, as nested lists."""
    a, b = (np.array([[row[k] for row in rows] for rows in blocks], np.int64) for k in (1, 2))
    return _res_mod_batch(a, b, np.array(primes, np.int64)).tolist()


def test_res_mod_matches_sylvester_determinant():
    # small primes make leads vanish: every formal-degree branch is reached
    rng = random.Random(1971)
    branches, by_shape = set(), {}
    for p in (2, 3, 5, 7, 101, next(_word_primes())):
        for _ in range(300):
            a, b = ([rng.choice([0, rng.randrange(-p, 2 * p)])
                     for _ in range(rng.randint(1, 6))] for _ in range(2))
            branches.add((a[-1] % p == 0, b[-1] % p == 0, len(a) == 1 or len(b) == 1))
            det = _fraction_elimination_det(sylvester_matrix(a, b)) % p
            assert _res_mod(a, b, p) == det, (p, a, b)
            by_shape.setdefault((len(a), len(b)), []).append(
                (p, [x % p for x in a], [y % p for y in b], det))
    assert branches == {(x, y, z) for x in (False, True) for y in (False, True)
                        for z in (False, True)}
    for cases in by_shape.values():  # one call per shape, a block of rows per prime
        primes, blocks = _prime_blocks(cases)
        assert len(primes) > 1
        assert _batch(primes, blocks) == [[row[3] for row in rows] for rows in blocks]


def test_res_mod_batch_matches_scalar_euclid():
    # leads that vanish mod p, some everywhere in a column, degree-0 sides,
    # one to eight prime blocks of one row or more, primes down to 2 and 3
    rng = random.Random(20261018)
    primes = [2, 3, 5, 7, 101, *islice(_word_primes(), 3)]
    seen = set()
    for _ in range(100):
        n1, m1 = rng.randint(1, 7), rng.randint(1, 7)
        p = rng.sample(primes, rng.randint(1, len(primes)))
        per = rng.choice([1, rng.randint(1, 20)])
        a, b = ([[[rng.choice([0, rng.randrange(q)]) for _ in range(width)] for _ in range(per)]
                 for q in p] for width in (n1, m1))
        for side, name in ((a, "a"), (b, "b")):
            if rng.random() < 0.3:
                seen.add(f"zero lead column in {name}")
                for row in (row for rows in side for row in rows):
                    row[-1] = 0
        seen.update(f"degree 0 in {name}" for name, w in (("a", n1), ("b", m1)) if w == 1)
        seen.update(k for k, hit in (("block of one row", per == 1),
                                     ("several primes", len(p) > 1),
                                     ("2 and 3", {2, 3} <= set(p))) if hit)
        want = [[_res_mod(x, y, q) for x, y in zip(xs, ys)] for xs, ys, q in zip(a, b, p)]
        assert _res_mod_batch(np.array(a, np.int64), np.array(b, np.int64),
                              np.array(p, np.int64)).tolist() == want
    assert seen == {"zero lead column in a", "zero lead column in b", "degree 0 in a",
                    "degree 0 in b", "block of one row", "several primes", "2 and 3"}


def test_res_mod_batch_takes_every_branch_like_scalar_euclid():
    # one batch holds a block per prime; long sides against short ones make
    # the batch reduce at one exponent again and again; zeroed tops give
    # runs of vanishing leads; width 1 gives degree-0 sides
    rng = random.Random(1407)
    primes = [2, 3, 5, 7, 101, *islice(_word_primes(), 4)]
    seen = set()
    for _ in range(60):
        n1, m1, rows = rng.randint(1, 9), rng.randint(1, 9), rng.randint(2, 60)
        p = [rng.choice(primes) for _ in range(rows)]
        a, b = ([[rng.randrange(q) for _ in range(width)] for q in p] for width in (n1, m1))
        for row in a + b:
            if rng.random() < 0.3:
                k = rng.randint(1, len(row))
                row[-k:] = [0] * k
        if len(set(p)) > 1:
            seen.add("mixed primes")
        if min(n1, m1) == 1:
            seen.add("degree 0")
        ps, blocks = _prime_blocks(list(zip(p, a, b)))
        want = [[_res_mod(x, y, q, seen) for q, x, y in rows] for rows in blocks]
        assert _batch(ps, blocks) == want
    assert seen == {"mixed primes", "degree 0", "finish", "both leads vanish", "pop",
                    "pop run", "swap", "reduce", "reduce, exponent repeated"}


def _lead_run_rows(rng, n1, m1, primes):
    """(kind, a, b, p) rows of widths n1 and m1, lowest first, built to make
    each step of the lockstep batch happen: runs of vanishing leads at entry,
    in a and in b; both leads vanishing; a remainder whose next leads vanish;
    a remainder that is zero; and degrees that differ from row to row, so
    that rows finish on different passes."""
    def rand(width, q):  # a nonzero lead mod q
        return [rng.randrange(q) for _ in range(width - 1)] + [rng.randrange(1, q)]

    def times(f, g, q):
        out = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] = (out[i + j] + x * y) % q
        return out

    def pad(f, width):
        return f + [0] * (width - len(f))

    rows = []
    for _ in range(40):
        q = rng.choice(primes)
        a, b = rand(n1, q), rand(m1, q)
        kinds = ["full"]
        if n1 >= 3:
            kinds.append("a-lead run at entry")
        if m1 >= 3:
            kinds.append("b-lead run at entry")
        if n1 >= 2 and m1 >= 2:
            kinds += ["both leads vanish", "remainder is zero"]
        if n1 - m1 >= 0 and m1 >= 4:
            kinds.append("remainder leads vanish")
        if min(n1, m1) >= 3:
            kinds.append("shared factor")
        kind = rng.choice(kinds)
        if kind == "a-lead run at entry":
            a = pad(rand(rng.randint(1, n1 - 2), q), n1)
        elif kind == "b-lead run at entry":
            b = pad(rand(rng.randint(1, m1 - 2), q), m1)
        elif kind == "both leads vanish":
            a[-1] = b[-1] = 0
        elif kind == "remainder is zero":  # a = t^k b c: b reduces a to 0
            b = pad(rand(rng.randint(2, min(n1, m1)), q), m1)
            k = rng.randint(0, n1 - len(_trim(b)))
            a = pad(times([0] * k + [1], _trim(b), q), n1)
        elif kind == "remainder leads vanish":  # a = t^(n-m) b + s, deg s <= n - 3
            s = rand(rng.randint(1, m1 - 2), q)
            a = [(x + y) % q for x, y in zip_longest([0] * (n1 - m1) + b, s, fillvalue=0)]
        elif kind == "shared factor":  # Euclid ends on a zero remainder past its first step
            g = rand(2, q)
            a = pad(times(g, rand(rng.randint(2, n1 - 1), q), q), n1)
            b = pad(times(g, rand(rng.randint(2, m1 - 1), q), q), m1)
        rows.append((kind, a, b, q))
    return rows


def test_res_mod_batch_strips_lead_runs_and_finishes_rows_apart():
    # every row against the scalar Euclid and the Sylvester determinant
    rng = random.Random(29)
    primes = [2, 3, 5, 7, 101, *islice(_word_primes(), 3)]
    kinds, shapes = set(), set()
    for n1, m1 in [(1, 1), (1, 5), (6, 1), (3, 3), (4, 6), (8, 4), (7, 7), (9, 5), (5, 9)]:
        for _ in range(3):
            rows = [(q, a, b, kind) for kind, a, b, q in _lead_run_rows(rng, n1, m1, primes)]
            ps, blocks = _prime_blocks(rows)
            for block, got in zip(blocks, _batch(ps, blocks)):
                for row, res in zip(block, got):
                    q, x, y, kind = row
                    assert res == _res_mod(x, y, q), row
                    assert res == _fraction_elimination_det(sylvester_matrix(x, y)) % q, row
                    kinds.add(kind)
            shapes.add(len({len(_trim(x)) + len(_trim(y)) for _, x, y, _ in rows}) > 1)
            kinds.add("mixed primes" if len(ps) > 1 else "one prime")
    assert kinds >= {"full", "a-lead run at entry", "b-lead run at entry", "both leads vanish",
                     "remainder is zero", "remainder leads vanish", "shared factor",
                     "mixed primes"}
    assert True in shapes  # rows of one batch finish on different passes


def test_shares_factor_matches_fraction_euclid(monkeypatch):
    # the resultant certificate against Euclid over Q: shared factors, leads
    # divisible by the first word prime, resultants that vanish modulo it
    # but not over Z, and zero or constant sides
    from latticecurves import laurent

    tried = []
    res_mod = laurent._res_mod
    monkeypatch.setattr(laurent, "_res_mod", lambda a, b, p: tried.append(p) or res_mod(a, b, p))
    rng = random.Random(1971)
    p0 = next(_word_primes())

    def rand(deg):
        return [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([-1, 1]) * rng.randint(1, 9)]

    def times(*fs):
        out = UniPoly([1])
        for f in fs:
            out = out * UniPoly(f)
        return list(out)

    seen = set()
    for _ in range(500):
        kind = rng.choice(["random", "shared", "lead divisible by p0", "root shared mod p0",
                           "zero", "constant"])
        f, g = rand(rng.randint(0, 4)), rand(rng.randint(0, 4))
        if kind == "shared":
            h = rand(rng.randint(1, 3))
            f, g = times(f, h), times(g, h)
        elif kind == "lead divisible by p0":
            f = rand(rng.randint(1, 4))
            f[-1] *= p0
        elif kind == "root shared mod p0":
            r = rng.randint(-20, 20)
            f, g = times(f, [-r, 1]), times(g, [-r - rng.choice([-1, 1]) * p0, 1])
        elif kind == "zero":
            f = rng.choice([[], [0, 0]])
            g = rng.choice([[], g])
        elif kind == "constant":
            f = [rng.choice([-1, 1]) * rng.choice([1, 7, p0])]
        if rng.random() < 0.5:
            f, g = g, f
        want = len(_fraction_gcd(f, g)) > 1
        tried.clear()
        assert shares_factor(UniPoly(f), UniPoly(g)) == want, (kind, f, g)
        seen.add(kind)
        if len(tried) > 1 and not want:
            seen.add("vanishes mod p0, not over Z")
        if want and tried:
            seen.add(f"Res = 0 proved by {'one prime' if len(tried) == 1 else 'primes'}")
        if not tried:
            seen.add("decided by the degrees")
    assert seen == {"random", "shared", "lead divisible by p0", "root shared mod p0", "zero",
                    "constant", "vanishes mod p0, not over Z", "Res = 0 proved by one prime",
                    "Res = 0 proved by primes", "decided by the degrees"}


def test_inverse_mod_matches_pow():
    # a block per prime, primes down to 2 and 3; blocks of one row; one entry
    rng = random.Random(1987)
    primes = [2, 3, 5, 101, *islice(_word_primes(), 3)]
    seen = set()
    for blocks, per in ((1, 1), (2, 1), (1, 2), (3, 3),
                        *((rng.randint(1, 7), rng.randint(1, 300)) for _ in range(60))):
        p = rng.sample(primes, blocks)
        x = [[rng.randrange(1, q) for _ in range(per)] for q in p]
        got = _inverse_mod(np.array(x, np.int64), np.array(p, np.int64))
        assert got.tolist() == [[pow(a, -1, q) for a in row] for row, q in zip(x, p)]
        seen.update(k for k, hit in (("one entry", blocks == per == 1),
                                     ("blocks of one row", blocks > 1 and per == 1),
                                     ("2 and 3", {2, 3} <= set(p)),
                                     ("several primes", blocks > 1)) if hit)
    assert seen == {"one entry", "blocks of one row", "2 and 3", "several primes"}


def test_side_residues_match_exact_evaluation():
    # coefficients past 2**64 of both signs, zero t-coefficients, 1 to 14
    # primes, up to 40 nodes
    rng = random.Random(4711)
    seen = set()
    for _ in range(60):
        deg, n = rng.randint(0, 5), rng.choice([1, 3, 40])

        def coefficient():
            return rng.choice([0, rng.choice([-1, 1])
                               * rng.randint(1, 2 ** rng.choice([8, 40, 70, 130]))])

        f, g = (UniPoly([coefficient() for _ in range(deg)] + [rng.randint(1, 9)])
                for _ in range(2))
        primes = list(islice(_word_primes(), rng.randint(1, 14)))
        want = [[[(c - x * d) % q for c, d in zip_longest(f, g, fillvalue=0)]
                 for x in range(1, n + 1)] for q in primes]
        assert _side_residues(f, g, n, primes).tolist() == want
        cs = [*f, *g]
        seen.update(k for k, hit in (("zero coefficient", 0 in cs),
                                     ("past 2**64", max(map(abs, cs)) > 2**64),
                                     ("negative", min(cs) < 0),
                                     (f"{len(primes)} primes", len(primes) in (1, 14)))
                    if hit)
    assert seen >= {"zero coefficient", "past 2**64", "negative", "1 primes", "14 primes"}


def test_uni_resultant_evaluates_each_side_once_and_runs_one_batch(monkeypatch):
    # each side is evaluated once on its own axis, and every grid point and
    # prime goes through a single lockstep batch of prime blocks
    from latticecurves import laurent

    calls = Counter()

    def counting(name):
        fn = getattr(laurent, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(laurent, name, wrapped)

    for name in ("_side_residues", "_res_mod_batch"):
        counting(name)
    a = UniPoly([-1, 0, -3]), UniPoly([-1, -1, -2])
    b = UniPoly([1, 0, 1, 1]), UniPoly([0, 1, -1])
    for x, y in ((a, b), (b, a), ((a[0][:2], a[1][:2]), b)):
        calls.clear()
        assert uni_resultant(*x, *y) == _direct(*x, *y)
        assert calls == {"_side_residues": 2, "_res_mod_batch": 1}


def test_interpolate_mod_recovers_integer_polynomials():
    rng = random.Random(1795)
    for p in (next(_word_primes()), 101):
        for _ in range(100):
            n = rng.randint(1, 12)
            coeffs = [rng.randint(-10**12, 10**12) for _ in range(n)]
            values = [UniPoly(coeffs).evaluate(x).numerator % p for x in range(1, n + 1)]
            assert _interpolate_mod(values, p).tolist() == [c % p for c in coeffs]
    # one interpolant per column, each modulo its own prime (nodes below 13)
    primes = [*islice(_word_primes(), 3), 101, 13]
    for n in range(1, 13):
        coeffs = [[rng.randint(-10**12, 10**12) for _ in primes] for _ in range(n)]
        values = [[UniPoly([row[j] for row in coeffs]).evaluate(x).numerator % p
                   for j, p in enumerate(primes)] for x in range(1, n + 1)]
        want = [[c % p for c, p in zip(row, primes)] for row in coeffs]
        assert _interpolate_mod(values, np.array(primes)).tolist() == want


def test_resultant_rejects_constant_input():
    one, t = UniPoly([1]), UniPoly([0, 1])
    for f in ((one, one, one, one), (one, UniPoly(), t, one), (t, one, UniPoly([3]), one),
              (UniPoly(),) * 4):
        with pytest.raises(DegenerateInput, match="a side is constant in t"):
            uni_resultant(*f)


def test_implicitize_family_i_m2():
    f1 = UniPoly([-1])
    f2 = geometric_sum(1, 2)
    f3 = UniPoly.t_power(2)
    f = implicitize(f1, f2, f3, f1 - f2 + f3)
    expected = LaurentPolynomial({(0, 0): 1, (1, 1): -3, (2, 1): 1, (1, 2): 1})
    assert verify_factorization(f, [expected])


def test_implicitize_builds_the_newton_polygon_once(monkeypatch):
    built = []
    newton_polygon = LaurentPolynomial.newton_polygon
    monkeypatch.setattr(LaurentPolynomial, "newton_polygon",
                        lambda self: built.append(self) or newton_polygon(self))
    # k = 1: the power search and the certificate share one polygon
    details = {}
    f1, f2, f3 = UniPoly([-1]), geometric_sum(1, 2), UniPoly.t_power(2)
    f = implicitize(f1, f2, f3, f1 - f2 + f3, details)
    assert len(built) == 1 and details["power"] == 1 and details["normalized"]
    assert details["newton_polygon"] == newton_polygon(f)
    # k = 2: the root's polygon is built once more
    built.clear()
    t2 = UniPoly([0, 0, 1])
    f = implicitize(t2, UniPoly([1]), t2, UniPoly([-1, 0, 1]), details)
    assert len(built) == 2 and details["newton_polygon"] == newton_polygon(f)
    # a polygon passed in is the one the certificate reads
    for g in (G, G * H):
        assert irreducibility_certificate(g, newton=newton_polygon(g)) \
            == irreducibility_certificate(g)
    assert irreducibility_certificate(G * H, newton=newton_polygon(G)) == IRREDUCIBLE


def test_implicitize_reduces_the_square_of_a_torus_curve():
    # t -> (t^2, t^2 / (t^2 - 1)) is 2:1 onto u + v - uv = 0, whose leading
    # u-coefficient 1 - v vanishes on the line v = 1
    t2 = UniPoly([0, 0, 1])
    details = {}
    f = implicitize(t2, UniPoly([1]), t2, UniPoly([-1, 0, 1]), details)
    assert f == U + V - U * V
    assert details == {"power": 2, "normalized": True,
                       "newton_polygon": polygon((1, 0), (1, 1), (0, 1))}


def test_implicitize_vanishes_on_random_parametrizations():
    rng = random.Random(1971)

    def rand_poly():
        return _trim([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(rng.randint(1, 5))])

    def rand_pair():  # coprime over Q, denominators cleared per pair
        while True:
            p, q = rand_poly(), rand_poly()
            if p and q and max(len(p), len(q)) >= 2 and len(_fraction_gcd(p, q)) == 1:
                return _integer_pair(p, q)

    for _ in range(40):
        (f1, f2), (f3, f4) = rand_pair(), rand_pair()
        f = implicitize(f1, f2, f3, f4)
        assert all(c.denominator == 1 for c in f.terms.values())
        content = 0
        for c in f.terms.values():
            content = gcd(content, c.numerator)
        assert content == 1
        points = 0
        for t in (Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3)):
            if f2.evaluate(t) and f4.evaluate(t):
                u, v = f1.evaluate(t) / f2.evaluate(t), f3.evaluate(t) / f4.evaluate(t)
                assert f.evaluate(u, v) == 0
                points += 1
        assert points >= 5


def test_implicitize_matches_the_primitive_resultant_and_the_fraction_route():
    # t -> t^k makes the map k:1, so the resultant is a true k-th power
    rng = random.Random(1974)

    def rand_pair():  # coprime over Q, denominators cleared per pair
        while True:
            p, q = (_trim([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in range(rng.randint(1, 4))]) for _ in range(2))
            if p and q and max(len(p), len(q)) >= 2 and len(_fraction_gcd(p, q)) == 1:
                return _integer_pair(p, q)

    def at_power(f, k):  # f(t^k)
        return UniPoly([0 if i % k else f[i // k] for i in range(k * f.degree + 1)])

    seen = set()
    for _ in range(30):
        k = rng.choice([1, 1, 2, 3])
        f1, f2, f3, f4 = (at_power(f, k) for f in (*rand_pair(), *rand_pair()))
        details = {}
        g = implicitize(f1, f2, f3, f4, details)
        res = uni_resultant(f1, f2, f3, f4)
        power = ONE
        for _ in range(details["power"]):
            power = power * g
        assert power == _primitive(res)
        assert (g, details["power"]) == fraction_route(res)
        seen.add(details["power"])
    assert seen >= {1, 2, 3}


def test_implicitize_rejects_shared_roots():
    t, one = UniPoly([0, 1]), UniPoly([1])
    with pytest.raises(SharedRoot, match="f1 and f2"):
        implicitize(t, t, one, one)
    with pytest.raises(SharedRoot, match="f3 and f4"):
        implicitize(t, one, t, t * t)
    with pytest.raises(ConstantMap):
        implicitize(one, UniPoly([2]), UniPoly([3]), one)


def _power_root(f):
    return _perfect_power_root(f, f.newton_polygon())


def test_perfect_power_extraction():
    g = G
    sq = g * g
    root, k = _power_root(sq)
    assert k == 2 and verify_factorization(g, [root])
    _, k1 = _power_root(g)
    assert k1 == 1


def test_perfect_power_whose_lead_vanishes_on_v_equal_one():
    for g, k in ((ONE - V, 3), (U + V - U * V, 2)):
        power = ONE
        for _ in range(k):
            power = power * g
        root, found = _power_root(power)
        assert found == k and verify_factorization(g, [root])


def test_int_kth_root_is_exact_beyond_float_range():
    big = 10**20 + 7
    assert _int_kth_root(big**3, 3) == big
    assert _int_kth_root(big**3 + 1, 3) is None
    for k in (2, 4, 5, 10):
        assert _int_kth_root(2**1100, k) == 2**(1100 // k)
    assert _int_kth_root(2**1100 + 1, 2) is None
    assert _int_kth_root(-2**1100, 2) is None
    for n in range(200):
        for k in (1, 2, 3):
            root = _int_kth_root(n, k)
            assert (root is not None) == any(r**k == n for r in range(n + 1))


def test_perfect_power_round_trip_with_huge_coefficients():
    g = LaurentPolynomial({(0, 0): 1, (1, 0): 2**550 + 3, (1, 1): -5})
    power = LaurentPolynomial.one()
    for k in (1, 2, 3):
        power = power * g
        root, found = _power_root(power)
        assert found == k and verify_factorization(g, [root])



def _fraction_kth_root(c: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of a rational, or None, by bisection on the numerator
    and the denominator."""
    def iroot(n):
        if n < 0:
            r = None if k % 2 == 0 else iroot(-n)
            return None if r is None else -r
        lo, hi = 0, 1 << -(-n.bit_length() // k)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if mid ** k <= n else (lo, mid - 1)
        return lo if lo ** k == n else None

    num, den = iroot(c.numerator), iroot(c.denominator)
    return None if num is None or den is None else Fraction(num, den)


def _fraction_power_root(f: dict) -> tuple[dict, int]:
    """Largest k with normalized f = g^k over Q, and g normalized: try a
    Fraction k-th root of the Kronecker image for every k dividing both
    degrees, check g^k, and recurse on g."""
    f = _q_normalized(f)
    du, dv = max(p for p, _ in f), max(q for _, q in f)
    base = du + 1
    image = [Fraction(0)] * (max(p + base * q for p, q in f) + 1)
    for (p, q), c in f.items():
        image[p + base * q] = c
    for k in range(max(du, dv, 1), 1, -1):
        if du % k or dv % k or (len(image) - 1) % k:
            continue
        r = image[::-1]
        q = [_fraction_kth_root(r[0], k)]
        if q[0] is None:
            continue
        for n in range(1, (len(image) - 1) // k + 1):
            s = sum(((k + 1) * i - k * n) * r[i] * q[n - i] for i in range(1, n + 1))
            q.append(s / (k * n * r[0]))
        g = {(i % base, i // base): c for i, c in enumerate(q[::-1]) if c}
        if _q_verify(f, [g] * k):
            inner, kk = _fraction_power_root(g)
            return inner, k * kk
    return f, 1


def fraction_route(f: LaurentPolynomial) -> tuple[LaurentPolynomial, int]:
    """The Fraction route that `_primitive` and `_perfect_power_root` replace:
    the root over Q, then its denominators and its content cleared."""
    g, k = _fraction_power_root(_q_terms(f))
    g = _q_cleared(g)
    content = gcd(*(c.numerator for c in g.values()))
    return LaurentPolynomial({e: c.numerator // content for e, c in g.items()}), k


def test_integer_power_route_matches_fraction_route(monkeypatch):
    from latticecurves import laurent

    tried = []
    root = laurent._uni_kth_root
    monkeypatch.setattr(laurent, "_uni_kth_root",
                        lambda p, k: tried.append(k) or root(p, k))
    rng = random.Random(2001)
    seen = set()
    for _ in range(150):
        g = LaurentPolynomial({(rng.randint(0, 3), rng.randint(0, 2)):
                               rng.choice([-1, 1]) * rng.randint(1, 5)
                               for _ in range(rng.randint(2, 4))})
        if g.is_monomial():
            continue
        k = rng.choice([1, 2, 3, 4])
        f = ONE
        for _ in range(k):
            f = f * g
        verts = f.newton_polygon().vertices
        if rng.random() < 0.4 and len(verts) > 1:
            # a term on an edge of k NP(g), off its vertices: the edges keep
            # their common factor k, but f is no longer a power
            (x0, y0), (x1, y1) = verts[0], verts[1]
            e = (x0 + (x1 - x0) // k, y0 + (y1 - y0) // k)
            f = f + LaurentPolynomial.monomial(*e, rng.choice([-1, 1]))
            kind = "perturbed"
        else:
            kind = f"power {k}"
        scalar = rng.choice([-1, 1]) * rng.randint(1, 9) * rng.randint(1, 9)
        f = f.scale(scalar).shift(rng.randint(-3, 3), rng.randint(-3, 3))
        before = len(tried)
        got = _power_root(_primitive(f))
        assert got == fraction_route(f)
        if kind == "perturbed" and k > 1 and len(tried) > before and got[1] == 1:
            seen.add("rejected")
        seen.add(kind)
        assert all(type(c) is int for c in got[0].terms.values())
    assert seen >= {"power 2", "power 3", "power 4", "perturbed", "rejected"}


def test_ord_profile():
    f1 = UniPoly([-1])
    f2 = geometric_sum(1, 4)
    f3 = UniPoly.t_power(4)
    f4 = f1 - f2 + f3
    assert ord_profile(f1, f2, f3, f4, "zero") == (-1, 4)
    assert ord_profile(f1, f2, f3, f4, "infinity") == (4, -1)
    with pytest.raises(ConstantMap):
        ord_profile(f1, f2, UniPoly([0]), f4)
    with pytest.raises(ValueError):
        ord_profile(f1, f2, f3, f4, "one")


def test_json_roundtrip():
    f = G.scale(-6).shift(-1, -2)
    assert f.to_json()["terms"][0] == {"e": [-1, -2], "c": "-6/1"}
    assert LaurentPolynomial.from_json(f.to_json()) == f
    # "a/b" coefficients are read times the lcm of their denominators
    written = {"terms": [{"e": [0, 0], "c": "1/2"}, {"e": [1, -1], "c": "-2/3"},
                         {"e": [0, 1], "c": "5"}]}
    assert LaurentPolynomial.from_json(written) == \
        LaurentPolynomial({(0, 0): 3, (1, -1): -4, (0, 1): 30})


def test_integer_ring_matches_the_fraction_reference():
    # random integer polynomials, shifted and scaled, some with factors that
    # vanish at (1, 1), against the dict-of-Fraction reference: equal JSON,
    # equal factorization verdicts with the factors written as rational
    # multiples "a/b", and equal multiplicities at (1, 1)
    rng = random.Random(2121)
    seen = set()

    def factor():
        g = _random_laurent(rng) or ONE
        for _ in range(rng.choice([0, 0, 1, 2])):
            g = g * _vanishing_factor(rng)
        return g

    for _ in range(300):
        factors = [factor() for _ in range(rng.randint(1, 3))]
        f = ONE
        for g in factors:
            f = f * g
        f = f.scale(rng.choice([-1, 1]) * rng.randint(1, 30))
        f = f.shift(rng.randint(-3, 3), rng.randint(-3, 3))
        if rng.random() < 0.3:  # most often no longer the product
            f = f + LaurentPolynomial.monomial(rng.randint(-3, 3), rng.randint(-3, 3),
                                               rng.choice([-1, 1]))
        assert f.to_json() == _q_to_json(_q_terms(f))
        written = [_q_to_json({e: c * Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                                rng.randint(1, 9))
                               for e, c in _q_terms(g).items()}) for g in factors]
        read = [LaurentPolynomial.from_json(w) for w in written]
        assert [g.to_json() for g in read] == \
            [_q_to_json(_q_cleared(_q_from_json(w))) for w in written]
        verdict = verify_factorization(f, read)
        assert verdict == _q_verify(_q_terms(f), [_q_from_json(w) for w in written])
        seen.add(f"verdict {verdict}")
        if f:
            k = f.multiplicity_at_identity()
            assert k == _fraction_multiplicity(_q_terms(f))
            seen.add(f"multiplicity {min(k, 3)}")
        if any(c.denominator > 1 for w in written for c in _q_from_json(w).values()):
            seen.add("denominators")
    assert seen == {"verdict True", "verdict False", "denominators", "multiplicity 0",
                    "multiplicity 1", "multiplicity 2", "multiplicity 3"}
