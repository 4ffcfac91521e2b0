import hashlib
import random
import time
from fractions import Fraction
from itertools import chain, islice
from math import gcd, lcm

import numpy as np
import pytest

from latticecurves import linsys
from latticecurves.errors import RangeError
from latticecurves.laurent import LaurentPolynomial, verify_factorization
from latticecurves.linsys import (
    _kernel,
    _rational_reconstruct,
    _reduce_mod,
    compute_system,
    condition_matrix,
    expected_dimension,
)
from latticecurves.modular import _word_primes
from latticecurves.polygon import polygon

REMARK_M5 = polygon((0, 0), (2, 5), (4, 4), (5, 2))
REMARK_M5_MEMBER = LaurentPolynomial({
    (0, 0): 1, (1, 1): -8, (1, 2): 3, (2, 4): 6, (2, 5): -1, (2, 1): 3,
    (2, 2): 20, (2, 3): -18, (3, 2): -18, (3, 3): 8, (4, 2): 6, (4, 4): -1,
    (5, 2): -1,
})


# ---- reference route: falling-factorial rows, Gauss-Jordan over Fraction

def falling_factorial(x, k):
    out = 1
    for i in range(k):
        out *= x - i
    return out


def falling_rows(points, m):
    """The derivative conditions at (1, 1) on the untranslated exponents."""
    return [[falling_factorial(p, a) * falling_factorial(q, b) for p, q in points]
            for a in range(m) for b in range(m - a)]


def rref(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def reference_kernel(mat, ncols):
    rows, pivots = rref(mat)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


def normalized(vectors):
    """Canonical basis of the span: RREF rows scaled to coprime integers."""
    out = []
    for row in rref(vectors)[0]:
        den = lcm(*(c.denominator for c in row))
        ints = [c.numerator * (den // c.denominator) for c in row]
        out.append(tuple(Fraction(c, gcd(*ints)) for c in ints))
    return tuple(out)


def random_polygon(rng):
    pts = {(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 6))}
    return polygon(*sorted(pts))


def gauss_jordan_mod(ints, p):
    """Dense Gauss-Jordan mod p: (pivot columns, reduced pivot rows); the
    reference for `_reduce_mod`, whose free block it must match."""
    a = (ints % p).astype(np.int64)
    nrows, ncols = a.shape
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        below = np.flatnonzero(a[r:, c])
        if not below.size:
            continue
        if below[0]:
            a[[r, r + below[0]]] = a[[r + below[0], r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        hit = np.flatnonzero(a[:, c])
        hit = hit[hit != r]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - a[hit, c, None] * a[r, c:] % p) % p
        pivots.append(c)
    return pivots, a[:len(pivots)]


def elimination_cases(rng):
    """Seeded integer matrices as lists of rows: dense; sparse binomial rows
    with zero and duplicate rows, shuffled out of tail order; products of
    integer matrices of nullity 2 to 6; entries negative or above 2**31."""
    def ints(rows, cols, lo, hi, density=1.0):
        return [[rng.randint(lo, hi) if rng.random() < density else 0
                 for _ in range(cols)] for _ in range(rows)]

    for _ in range(6):
        n = rng.randint(1, 12)
        yield ints(rng.randint(1, 12), n, -9, 9)
        yield ints(rng.randint(1, 12), n, -2**40, 2**40, density=0.3)
    for _ in range(6):
        pts = tuple(random_polygon(rng).lattice_points())
        rows = condition_matrix(pts, rng.randint(2, 5))
        rows += [[0] * len(pts)] * rng.randint(1, 2) + rng.sample(rows, min(2, len(rows)))
        rng.shuffle(rows)
        yield rows
        yield [row[::-1] for row in rows]  # the column order _kernel uses
    for nullity in range(2, 7):
        rank = rng.randint(1, 6)
        left, right = ints(rank + 3, rank, -5, 5), ints(rank, rank + nullity, -2**33, 2**33)
        yield (np.array(left, dtype=object).dot(np.array(right, dtype=object))).tolist()


# ---- tests


def test_binomial_rows_match_falling_factorial_rows():
    poly = polygon((-3, -1), (2, -2), (1, 3), (-1, 2))
    pts = tuple(poly.lattice_points())
    for m in (2, 3, 4):
        system = compute_system(poly, m)
        falling = falling_rows(pts, m)
        assert tuple(map(tuple, _kernel(falling))) == system.basis
        assert normalized(reference_kernel(falling, len(pts))) == system.basis


def test_condition_matrix_shape():
    pts = [(0, 0), (1, 0), (0, 1)]
    mat = condition_matrix(pts, 2)
    assert len(mat) == 3 and len(mat[0]) == 3
    assert mat[0] == [1, 1, 1]
    # rows with a above the x-span or b above the y-span are zero and left out
    assert len(condition_matrix(pts, 50)) == 4


def test_huge_order_is_empty_without_zero_rows():
    start = time.perf_counter()
    system = compute_system(polygon((0, 0), (1, 0), (0, 1)), 10**6)
    assert system.is_empty() and system.conditions == 10**6 * (10**6 + 1) // 2
    assert time.perf_counter() - start < 1


def test_order_one_is_the_vanishing_hyperplane():
    system = compute_system(polygon((0, 0), (2, 1), (1, 2)), 1)
    assert system.dimension == system.total - 1
    for f in system.members():
        assert f.evaluate(1, 1) == 0


def test_empty_system_quadrilateral():
    system = compute_system(polygon((0, 0), (1, 4), (2, 4), (4, 3)), 4)
    assert system.is_empty()
    assert system.total == 10 and system.conditions == 10


def test_remark_polygon_unique_member():
    system = compute_system(REMARK_M5, 5)
    assert system.dimension == 1
    f = system.members()[0]
    assert verify_factorization(f, [REMARK_M5_MEMBER])
    assert f.multiplicity_at_identity() == 5


def test_members_vanish_to_order_m():
    poly = polygon((0, 0), (4, 1), (1, 4))
    system = compute_system(poly, 4)
    assert system.dimension >= 1
    for f in system.members():
        assert f.multiplicity_at_identity() >= 4


def test_is_expected():
    """The point count alone forces a nonzero section when it is positive."""
    assert expected_dimension(polygon((0, 0), (4, 1), (1, 4)), 3) > 0
    assert not expected_dimension(polygon((0, 0), (1, 4), (2, 4), (4, 3)), 4) > 0
    for m in (0, -5):
        with pytest.raises(RangeError, match="vanishing order must be at least 1"):
            expected_dimension(polygon((0, 0), (20, 1), (1, 20)), m)


def test_expected_dimension():
    tri = polygon((0, 0), (20, 1), (1, 20))
    assert expected_dimension(tri, 20) == 211 - 210
    assert expected_dimension(polygon((0, 0), (1, 4), (2, 4), (4, 3)), 4) == 0
    assert expected_dimension(polygon((3, -2)), 1) == 0
    for m in (0, -20):
        with pytest.raises(RangeError, match="vanishing order must be at least 1"):
            expected_dimension(tri, m)


def test_expected_dimension_bounds_the_kernel():
    rng = random.Random(1212)
    for _ in range(80):
        poly = polygon(*{(rng.randint(-4, 4), rng.randint(-4, 4))
                         for _ in range(rng.randint(1, 6))})
        m = rng.randint(1, 8)
        assert expected_dimension(poly, m) == len(poly.lattice_points()) - m * (m + 1) // 2
        assert expected_dimension(poly, m) <= compute_system(poly, m).dimension, (
            poly.vertices, m)


def test_modular_path_agrees_with_rational_path():
    poly = polygon((0, 0), (6, 1), (1, 6))
    pts = tuple(poly.lattice_points())
    mat = condition_matrix(pts, 5)
    modular = _kernel(mat)
    assert not (np.array(mat, dtype=object).dot(np.array(modular, dtype=object).T)).any()
    assert tuple(map(tuple, modular)) == normalized(reference_kernel(mat, len(pts)))


def test_random_polygons_agree_with_fraction_reference():
    rng = random.Random(20210218)
    for _ in range(30):
        poly = random_polygon(rng)
        m = rng.randint(1, 5)
        pts = tuple(poly.lattice_points())
        want = normalized(reference_kernel(falling_rows(pts, m), len(pts)))
        assert compute_system(poly, m).basis == want, (poly.vertices, m)


def test_random_polygons_agree_with_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    for _ in range(12):
        poly = random_polygon(rng)
        m = rng.randint(1, 4)
        pts = tuple(poly.lattice_points())
        null = sympy.Matrix(falling_rows(pts, m)).nullspace()
        want = normalized([[Fraction(int(e.p), int(e.q)) for e in v] for v in null])
        assert compute_system(poly, m).basis == want, (poly.vertices, m)


def test_unlucky_primes_are_outvoted():
    # mod 2 the falling-factorial rows lose rank: a! b! divides row (a, b)
    pts = tuple(polygon((-2, -1), (3, 0), (0, 3)).lattice_points())
    falling = falling_rows(pts, 4)
    big = next(_word_primes())
    assert len(_reduce_mod(np.array(falling), 2)[0]) < len(_reduce_mod(np.array(falling), big)[0])
    want = _kernel(falling)
    assert _kernel(falling, chain([2, 3], islice(_word_primes(), 20))) == want
    # mod 3 the first pivot of [[3, 1, 3]] moves to column 1, in either
    # column order; the lucky prime 5 comes first but is too small to lift
    # 1/3, so the unlucky 3 must be skipped
    mat = [[3, 1, 3]]
    assert _reduce_mod(np.array(mat), 3)[0] == [1] != _reduce_mod(np.array(mat), big)[0]
    want = _kernel(mat)
    assert tuple(map(tuple, want)) == normalized(reference_kernel(mat, 3))
    for primes in ([5, 3], [3, 5]):
        assert _kernel(mat, chain(primes, islice(_word_primes(), 20))) == want


def test_kernel_reports_exhausted_primes():
    with pytest.raises(ArithmeticError):
        _kernel([[3, 1, 3]], [3, 5])


def test_kernel_stops_past_the_hadamard_bound(monkeypatch):
    # a free block that is always wrong never passes M x = 0; the primes
    # stop past twice the cube of the Hadamard bound instead of running on
    mat = condition_matrix(tuple(REMARK_M5.lattice_points()), 5)
    assert _kernel(mat)
    reduce_mod = linsys._reduce_mod

    def zero_free_block(ints, p):
        pivots, block = reduce_mod(ints, p)
        return pivots, 0 * block

    monkeypatch.setattr(linsys, "_reduce_mod", zero_free_block)
    start = time.perf_counter()
    with pytest.raises(ArithmeticError):
        _kernel(mat)
    assert time.perf_counter() - start < 5


def test_rational_reconstruct_above_float_range():
    mod = 1
    for p, _ in zip(_word_primes(), range(40)):
        mod *= p
    assert mod > 2**1024
    for q in (Fraction(-3**300, 7**200), Fraction(2**500 + 1, 3), Fraction(0)):
        assert _rational_reconstruct(q.numerator * pow(q.denominator, -1, mod), mod) == \
            (q.numerator, q.denominator)


def test_prime_stream_starts_below_two_to_the_31():
    head = [p for p, _ in zip(_word_primes(), range(10))]
    assert head == [2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
                    2147483549, 2147483543, 2147483497, 2147483489, 2147483477]


def test_rejects_bad_order():
    with pytest.raises(RangeError):
        compute_system(polygon((0, 0), (2, 1), (1, 2)), 0)


def test_basis_normalization_integer_content_free():
    system = compute_system(polygon((0, 0), (3, 1), (1, 3)), 3)
    for vec in system.basis:
        nums = [c for c in vec if c]
        assert all(type(c) is int for c in vec)
        g = 0
        for n in nums:
            g = gcd(g, abs(n))
        assert g == 1
        assert next(c for c in vec if c) > 0


def test_forward_elimination_matches_gauss_jordan():
    rng = random.Random(20261018)
    cases = list(elimination_cases(rng))
    primes = [2, 3, 5, 7, 101, *islice(_word_primes(), 3)]
    nullities = set()
    for mat in cases:
        exact = np.array(mat, dtype=object)
        for p in primes:
            want_pivots, want_rows = gauss_jordan_mod(exact, p)
            pivots, block = _reduce_mod(exact, p)
            free = sorted(set(range(exact.shape[1])).difference(want_pivots))
            assert pivots == want_pivots, (mat, p)
            assert np.array_equal(block, want_rows[:, free]), (mat, p)
            nullities.add(len(free))
    assert {2, 3, 4, 5, 6} <= nullities


# sha256 of repr(basis) from the dense Gauss-Jordan kernel, which took about 7 s at m = 40
TRIANGLE_BASIS_SHA256 = {
    30: "7044d9445c95cf76da7c530fb030ef0237a4008a9718238f4d443cc52e1f29f9",
    40: "2f897a5fb1f1960351f70809746026351dda8260a4c46caac39da811ead9a375",
}


@pytest.mark.parametrize("m", sorted(TRIANGLE_BASIS_SHA256))
def test_triangle_basis_is_pinned(m):
    system = compute_system(polygon((0, 0), (m, 1), (1, m)), m)
    assert hashlib.sha256(repr(system.basis).encode()).hexdigest() == TRIANGLE_BASIS_SHA256[m]
