"""Laurent polynomials in two variables over Z, and univariate helpers.

One normal form, primitive integers (`_primitive`), which by Gauss's lemma
loses nothing over Q.  Includes Newton polygons, multiplicity at the torus
identity, resultant-based implicitization of rational parametrizations,
factorization verification and a sufficient irreducibility certificate based
on Newton-polygon indecomposability.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd, isqrt, lcm, prod
from operator import index

import numpy as np

from .errors import (
    ConstantMap,
    DegenerateInput,
    MonomialInput,
    SharedRoot,
    ZeroPolynomial,
)
from .modular import _word_primes, crt_step
from .polygon import LatticePolygon, is_decomposable, json_int

Exponent = tuple[int, int]


class LaurentPolynomial:
    """Finitely supported map from Z^2 exponents to integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                p, q = e  # an exponent of another length raises ValueError
                c = index(c)
                if c:
                    key = (index(p), index(q))
                    if key in clean:
                        c += clean[key]
                        if not c:
                            del clean[key]
                            continue
                    clean[key] = c
        self.terms = clean

    @staticmethod
    def monomial(p: int, q: int, c=1) -> "LaurentPolynomial":
        return LaurentPolynomial({(p, q): c})

    @staticmethod
    def zero() -> "LaurentPolynomial":
        return LaurentPolynomial()

    @staticmethod
    def one() -> "LaurentPolynomial":
        return LaurentPolynomial({(0, 0): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LaurentPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return LaurentPolynomial([*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return LaurentPolynomial({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return self.scale(other)
        return LaurentPolynomial(((p1 + p2, q1 + q2), c1 * c2)
                                 for (p1, q1), c1 in self.terms.items()
                                 for (p2, q2), c2 in other.terms.items())

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPolynomial":
        c = index(c)  # a zero c leaves no term
        return LaurentPolynomial({e: c * v for e, v in self.terms.items()})

    def shift(self, dp: int, dq: int) -> "LaurentPolynomial":
        return LaurentPolynomial({(p + dp, q + dq): c for (p, q), c in self.terms.items()})

    def evaluate(self, u, v) -> Fraction:
        u, v = Fraction(u), Fraction(v)
        return sum((c * u ** p * v ** q for (p, q), c in self.terms.items()),
                   Fraction(0))

    def min_exponents(self) -> Exponent:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no support")
        return (min(p for p, _ in self.terms), min(q for _, q in self.terms))

    def newton_polygon(self) -> LatticePolygon:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no Newton polygon")
        return LatticePolygon.hull(self.terms)

    def multiplicity_at_identity(self) -> int:
        """Least vanishing order of f(1+s, 1+t) at the origin: with f shifted
        to least exponents (0, 0), the least k <= deg f with a nonzero
        T(a, k - a) = sum_p C(p, a) S_p(k - a), where each S_p(b) = sum_q
        c_pq C(q, b) is taken once (a truncated Taylor shift; von zur Gathen
        and Gerhard, ISSAC 1997).  The order is symmetric in u and v, so p
        runs over whichever axis has fewer distinct exponents."""
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no multiplicity")
        dp, dq = self.min_exponents()  # a monomial unit leaves the order unchanged
        terms = [(p - dp, q - dq, c) for (p, q), c in self.terms.items()]
        if len({q for _, q, _ in terms}) < len({p for p, _, _ in terms}):
            terms = [(q, p, c) for p, q, c in terms]
        cols = {}
        for p, q, c in terms:
            cols.setdefault(p, []).append((q, c))
        sums = [(p, []) for p in cols]  # S_p(b) at index b
        for k in range(max(p + q for p, q, _ in terms) + 1):
            for p, s in sums:
                s.append(sum(c * comb(q, k) for q, c in cols[p]))
            for a in range(k + 1):
                if sum(comb(p, a) * s[k - a] for p, s in sums):
                    return k

    def to_json(self) -> dict:
        return {"terms": [{"e": [p, q], "c": f"{c}/1"}
                          for (p, q), c in sorted(self.terms.items())]}

    @staticmethod
    def from_json(obj: dict) -> "LaurentPolynomial":
        """Read coefficients, each an "a/b" string or a JSON integer, and clear
        their denominators: the result is the polynomial written times the
        lcm of its denominators.  Exponents must be JSON integers."""
        terms = [([json_int(k) for k in t["e"]],
                  Fraction(t["c"] if isinstance(t["c"], str) else json_int(t["c"])))
                 for t in obj["terms"]]
        den = lcm(*(c.denominator for _, c in terms))
        return LaurentPolynomial((e, c.numerator * (den // c.denominator)) for e, c in terms)

    def __repr__(self):
        return " + ".join(f"{c}*u^{p}*v^{q}" for (p, q), c in sorted(self.terms.items())) or "0"


def _primitive(f: LaurentPolynomial) -> LaurentPolynomial:
    """f over its monomial unit and content: least exponents (0, 0), coprime
    coefficients, and a positive lex-least coefficient."""
    dp, dq = f.min_exponents()
    g = gcd(*f.terms.values())
    g = g if f.terms[min(f.terms)] > 0 else -g
    return LaurentPolynomial({(p - dp, q - dq): c // g for (p, q), c in f.terms.items()})


def verify_factorization(f: LaurentPolynomial, factors) -> bool:
    """True iff the product equals f up to a monomial unit and nonzero scalar."""
    product = prod(factors, start=LaurentPolynomial.one())
    if f.is_zero() or product.is_zero():
        return f.is_zero() and product.is_zero()
    return _primitive(f) == _primitive(product)


IRREDUCIBLE = "IrreducibleByIndecomposability"
INCONCLUSIVE = "Inconclusive"


def irreducibility_certificate(f: LaurentPolynomial, newton: LatticePolygon | None = None) -> str:
    """IRREDUCIBLE when f's Newton polygon is integrally indecomposable, which
    proves f absolutely irreducible up to its monomial unit (Gao, J. Algebra
    237, 2001), else INCONCLUSIVE; `newton` is f's Newton polygon when the
    caller has already built it.  Reducibility is never decided here: a
    witness is a list of factors checked by `verify_factorization`."""
    if f.is_zero():
        raise ZeroPolynomial("certificate undefined for zero")
    if f.is_monomial():
        raise MonomialInput("certificate undefined for monomials")
    return INCONCLUSIVE if is_decomposable(newton or f.newton_polygon()) else IRREDUCIBLE


# ---------------------------------------------------------------------------
# univariate polynomials over Z


class UniPoly(tuple):
    """Dense univariate polynomial over Z: the tuple of its coefficients,
    lowest degree first, with no trailing zero."""

    __slots__ = ()

    def __new__(cls, coeffs=()):
        cs = [index(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        return super().__new__(cls, cs)

    @staticmethod
    def t_power(k: int, c=1) -> "UniPoly":
        return UniPoly([0] * k + [c])

    def is_zero(self) -> bool:
        return not self

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self) - 1

    def __add__(self, other):
        return UniPoly([a + b for a, b in zip_longest(self, other, fillvalue=0)])

    def __neg__(self):
        return UniPoly([-c for c in self])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return UniPoly([other * c for c in self])
        out = [0] * max(len(self) + len(other) - 1, 0)
        for i, a in enumerate(self):
            if a:
                for j, b in enumerate(other):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def valuation_at_zero(self) -> int:
        if self.is_zero():
            raise ZeroPolynomial("valuation undefined for zero")
        return next(i for i, c in enumerate(self) if c)

    def evaluate(self, x):
        """Value at x by Horner's rule, in the arithmetic of x."""
        out = 0
        for c in reversed(self):
            out = out * x + c
        return out


def geometric_sum(lo: int, hi: int) -> UniPoly:
    """t^lo + t^(lo+1) + ... + t^hi."""
    return UniPoly([0] * lo + [1] * (hi - lo + 1))


# ---------------------------------------------------------------------------
# resultants and implicitization

def _res_mod(a, b, p: int, seen: set | None = None) -> int:
    """Res(a, b) mod p at formal degrees n = len(a) - 1 and m = len(b) - 1,
    by Euclid on one pair, coefficients lowest first, one step at a time: pop
    a vanishing b-lead, swap, or reduce by the whole remainder r of a by b,
    Res_{n,m}(a, b) = (-1)^(nm) b_m^(n-m+1) Res_{m,m-1}(b, r).  The route the
    tests hold `_res_mod_batch` to.  `seen` collects the branches taken."""
    a, b, res = [c % p for c in a], [c % p for c in b], 1
    seen = set() if seen is None else seen
    while True:
        n, m = len(a) - 1, len(b) - 1
        if not n or not m:
            seen.add("finish")
            return res * pow(a[0], m, p) * pow(b[0], n, p) % p
        if not b[-1]:
            if not a[-1]:
                seen.add("both leads vanish")
                return 0
            seen.add("pop run" if m > 1 and not b[-2] else "pop")  # pops again next
            res = res * a[-1] % p
            b.pop()
            continue
        if not a[-1] or n < m:
            seen.add("swap")
            a, b, res = b, a, res * (-1) ** (n * m)
        else:
            # the lockstep batch reduces n - m + 1 times against this b
            seen.add("reduce" if n == m else "reduce, exponent repeated")
            inv = pow(b[-1], -1, p)
            for i in range(n, m - 1, -1):
                c = a[i] * inv % p
                a[i - m:i + 1] = [(x - c * y) % p for x, y in zip(a[i - m:i + 1], b)]
            res = res * (-1) ** (n * m) * pow(b[-1], n - m + 1, p) % p
            a, b = b, a[:m]


def shares_factor(f: UniPoly, g: UniPoly) -> bool:
    """True iff gcd(f, g) has positive degree; gcd(0, 0) = 0 has not.

    With a zero or a constant side, the gcd is read off the degrees.
    Otherwise Res(f, g) at their degrees decides, one word prime at a time
    (`_res_mod`): a nonzero residue proves Res != 0, so gcd(f, g) = 1.
    Residues 0 modulo primes whose product passes Hadamard's bound
    ||f||_2^deg g ||g||_2^deg f on |Res| prove Res = 0 (Brown, JACM 1971).
    """
    n, m = f.degree, g.degree
    if min(n, m) <= 0:
        return min(n, m) < 0 < max(n, m)
    bound = sum(c * c for c in f) ** m * sum(c * c for c in g) ** n  # squared
    mod = 1
    for p in _word_primes():
        if _res_mod(f, g, p):
            return False
        mod *= p
        if mod * mod > bound:
            return True


def _inverse_mod(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x^-1 mod p for every entry of x, shaped (primes, rows), with row i of
    block j taken mod p[j], 0 < x < p < 2**31, by Montgomery's batch
    inversion (Math. Comp. 1987): x_i^-1 is the product of the other x of
    its block over the product of all of them.  One doubling scan of
    log2(rows) steps takes the products along every block from the left and
    from the right, and one Python inverse per prime inverts its total."""
    q, v = p[:, None], np.ones((2, len(p), x.shape[1] + 1), np.int64)
    v[0, :, 1:], v[1, :, 1:] = x, x[:, ::-1]
    s = 1
    while s < v.shape[2]:  # v[:, :, i] <- product of the first i entries, each way
        v[:, :, s:] = v[:, :, s:] * v[:, :, :-s] % q
        s *= 2
    inv = np.array([pow(t, -1, r) for t, r in zip(v[0, :, -1].tolist(), p.tolist())], np.int64)
    return inv[:, None] * v[0, :, :-1] % q * v[1, :, -2::-1] % q


def _res_mod_batch(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Res(a[j, i], b[j, i]) mod p[j] for every block j and row i, shaped
    (primes, rows): a and b are shaped (primes, rows, width), residues lowest
    first, at formal degrees one less than their widths; primes below 2**31.

    One Euclid runs on all rows in lockstep, coefficients highest first and a
    formal degree per side and row.  A vanishing formal lead goes by
    Res_{n,m}(a, b) = (-1)^m b_m Res_{n-1,m}(a, b), a whole run at once and
    down to degree 0 at most, where Res_{0,m}(c, b) = c^m finishes the row;
    b's run goes the same way after a swap, Res_{n,m}(a, b) = (-1)^(nm)
    Res_{m,n}(b, a).  Then both leads of a live row are nonzero at the top of
    a pass, which makes one elimination per row: swap if n < m, replace a by
    r = b_m a - a_n t^(n-m) b, Res_{n,m}(a, b) = b_m^-m Res_{n,m}(r, b), and
    strip the run of vanishing leads of r.  Entries stay below p, so products
    stay below 2**62.  No power is taken on the way: the parities gather in
    one sign per row, each factor x^e goes into acc[row, width + e], and the
    numerator and denominator are at the end prod_{k>=1} prod_{e>=k}
    acc[:, width +- e], products of suffix products; one batch inversion
    per prime block (`_inverse_mod`) inverts every row's denominator.
    """
    (blocks, per, n1), m1 = a.shape, b.shape[2]
    rows, width, p = blocks * per, max(n1, m1), np.repeat(p, per)
    A, B = np.zeros((2, rows, width + 1), np.int64)  # last column stays 0
    A[:, :n1], B[:, :m1] = a.reshape(rows, n1)[:, ::-1], b.reshape(rows, m1)[:, ::-1]
    da, db, odd = np.full(rows, n1 - 1), np.full(rows, m1 - 1), np.zeros(rows, np.int64)
    cols, pc, tb = np.arange(width + 1), p[:, None], np.arange(rows)[:, None] * (width + 1)
    shift = np.minimum(cols + cols[:, None], width)  # row j reads columns j, j + 1, ...
    acc = np.ones((rows, 2 * width), np.int64)  # column width, e = 0, takes what no row reads
    flat, base = acc.reshape(-1), np.arange(width, acc.size, 2 * width)

    def times(e, x):  # acc[:, width + e] *= x
        i = base + e
        flat[i] = flat[i] * x % p

    def strip(T, e):  # a <- T without its run of vanishing leads; b_m^(e + run)
        nonlocal A, odd, da
        nz = T != 0
        nz[:, -1] = True  # a zero row runs into the pad column, cut at degree 0
        j = np.minimum(nz.argmax(1), np.maximum(da, 0))
        A, odd, da = T.ravel()[tb + shift[j]], odd ^ db * j, da - j
        times(e + j, B[:, 0])

    strip(A, 0)  # (-1)^m b_m per vanishing a-lead: 0 if b_m vanishes too
    A, B, da, db, odd = B, A, db, da, odd ^ da * db
    strip(A, 0)  # then b's run, on the a side
    for _ in range(n1 + m1 - 1):  # each pass lowers every live row's n + m
        dd = da * db
        if not dd.all():
            done = dd == 0
            times(np.where(done, da + db, 0), np.where(da == 0, A[:, 0], B[:, 0]))
            # a finished row runs on as b = 1 at degree -1: it multiplies acc[:, width + 1] by 1
            B[done], da[done], db[done] = cols == 0, -1, -1
            if (db < 0).all():
                break
        swap = da < db
        if swap.any():
            A, B = np.where(swap[:, None], B, A), np.where(swap[:, None], A, B)
            odd, da, db = odd ^ dd * swap, np.maximum(da, db), np.minimum(da, db)
        T = A * B[:, :1]
        T -= B * A[:, :1]
        T %= pc
        strip(T, -db)
    else:
        raise ArithmeticError("lockstep resultant passed its degree bound")
    chains = np.stack([acc[:, width:], acc[:, width:0:-1]])  # exponents +e and -e
    suffix, out = np.ones((2, 2, rows), np.int64)
    for e in range(width - 1, 0, -1):
        suffix = suffix * chains[:, :, e] % p
        out = out * suffix % p
    res = out[0] * _inverse_mod(out[1].reshape(blocks, per), p[::per]).ravel() % p
    return np.where(odd & 1, (p - res) % p, res).reshape(blocks, per)


def _interpolate_mod(values, p) -> np.ndarray:
    """Coefficients mod p (lowest first) of the interpolant through the
    residues `values` at the nodes 1, 2, ..., n < p, by Newton's divided
    differences along the first axis, then Horner's rule from the Newton
    basis to the monomial one, one slice update a step.  p is a prime or an
    array of primes that broadcasts against values[0], one per interpolant.
    Entries stay below p, so each product stays below 2**62."""
    c = np.array(values, dtype=np.int64)
    n, p = len(c), np.asarray(p, dtype=np.int64)
    inv = np.array([[pow(k, -1, q) for q in p.ravel().tolist()] for k in range(1, n)],
                   dtype=np.int64).reshape(-1, *p.shape)
    for k in range(1, n):  # at the nodes x_i = i + 1, x_i - x_(i-k) = k
        c[k:] = (c[k:] - c[k - 1:-1]) * inv[k - 1] % p
    buf = np.zeros((n + 1, *c.shape[1:]), np.int64)  # buf[0] holds c[k], buf[1:] is out
    for k in range(n - 1, -1, -1):  # out <- out * (x - k - 1) + c[k]
        buf[0] = c[k]
        buf[1:] = (buf[:-1] - (k + 1) * buf[1:]) % p
    return buf[1:]


def _side_residues(f: UniPoly, g: UniPoly, n: int, primes: list[int]) -> np.ndarray:
    """Residues of the t-coefficients f_i - x g_i at the nodes x = 1..n, mod
    every prime: int64, indexed (prime, x, t-degree).  Each coefficient is
    reduced once per prime in Python ints, so any size is exact; nodes and
    residues below p < 2**31 keep each product below 2**62."""
    fg = np.array([[(c % q, d % q) for c, d in zip_longest(f, g, fillvalue=0)]
                   for q in primes], np.int64)  # (prime, t-degree, f or g)
    x, p = np.arange(1, n + 1)[:, None], np.array(primes, np.int64)[:, None, None]
    return (fg[:, None, :, 0] - x * fg[:, None, :, 1]) % p


def uni_resultant(f1: UniPoly, f2: UniPoly, f3: UniPoly, f4: UniPoly) -> LaurentPolynomial:
    """Res_t(A, B) of the sides A = f1 - u f2 and B = f3 - v f4, for integer
    polynomials f, as a polynomial in u and v; by Collins' modular method
    (JACM 1971).

    deg_t A = max(deg f1, deg f2) and deg_t B = max(deg f3, deg f4); a side
    constant in t raises DegenerateInput.  Each of the deg B rows of A in the
    Sylvester matrix is linear in u, so the resultant has u-degree at most
    deg B, and likewise v-degree at most deg A.  Each side is evaluated once,
    on its own axis, straight to int64 residues mod every word prime
    (`_side_residues`): A at u = 1..deg B + 1, B at v = 1..deg A + 1.  Both
    are broadcast onto the (v, u) grid, and one lockstep Euclid takes the
    resultant at every grid point mod every prime, a block of grid points per
    prime, then one Newton interpolation over every prime in u, then in v.
    The primes, fixed up front, multiply past twice the Goldstein-Graham
    bound (SIAM Review 1974) (sum_i (|f1_i| + |f2_i|)^2)^(deg B/2)
    (sum_j (|f3_j| + |f4_j|)^2)^(deg A/2): Hadamard's inequality on the
    Sylvester matrix over |u| = |v| = 1 bounds each integer coefficient by
    it, so the symmetric Chinese-remainder lift is exact.  The lift visits
    only the coefficients with a nonzero residue.
    """
    deg_a, deg_b = max(len(f1), len(f2)) - 1, max(len(f3), len(f4)) - 1
    if deg_a < 1 or deg_b < 1:
        raise DegenerateInput("a side is constant in t")

    def squares(f, g):
        return sum((abs(c) + abs(d)) ** 2 for c, d in zip_longest(f, g, fillvalue=0))

    bound = 2 * (isqrt(squares(f1, f2) ** deg_b * squares(f3, f4) ** deg_a) + 1)
    primes, stream = [], _word_primes()
    while prod(primes) <= bound:
        primes.append(next(stream))
    ps, nu, nv = np.array(primes), deg_b + 1, deg_a + 1
    a = _side_residues(f1, f2, nu, primes)  # (prime, u, t-degree)
    b = _side_residues(f3, f4, nv, primes)  # (prime, v, t-degree)
    # grid rows run v-major: row v nu + u pairs a[:, u] with b[:, v]
    vals = _res_mod_batch(np.tile(a, (1, nv, 1)), np.repeat(b, nu, axis=1), ps)
    vals = vals.reshape(len(primes), nv, nu)
    in_u = _interpolate_mod(vals.transpose(2, 0, 1), ps[:, None])  # (u, prime, v)
    coeffs = _interpolate_mod(in_u.transpose(2, 1, 0), ps[:, None])  # (v, prime, u)
    qs, us = np.nonzero(coeffs.any(axis=1))
    crt, mod = 0, 1
    for p, r in zip(primes, coeffs[qs, :, us].T):
        crt, mod = crt_step(crt, mod, r.astype(object), p), mod * p
    crt = np.where(2 * crt > mod, crt - mod, crt)
    return LaurentPolynomial({(p, q): c
                              for q, p, c in zip(qs.tolist(), us.tolist(), crt.tolist())})


def _int_kth_root(n: int, k: int) -> int | None:
    """Exact k-th root of the integer n, or None; integer Newton iteration."""
    if n < 0:
        r = None if k % 2 == 0 else _int_kth_root(-n, k)
        return None if r is None else -r
    r = n
    if n > 1:  # Newton from 2**ceil(bits/k) >= n**(1/k) falls to the floor
        r = 1 << -(-n.bit_length() // k)
        while (y := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = y
    return r if r ** k == n else None


def _uni_kth_root(p: list[int], k: int) -> list[int] | None:
    """Integer candidate for the k-th root of a coefficient list (lowest first,
    last entry nonzero), or None when a coefficient is not an integer.

    The reversed list r has r_0 != 0 and root q = r^(1/k) as a power series:
    n r_0 q_n = sum_{i=1..n} ((1/k + 1) i - n) r_i q_(n-i), from q' r = r' q / k.
    A primitive integer k-th power has a primitive integer root (Gauss's
    lemma), so a fraction rules the power out; the caller checks the rest.
    """
    r = p[::-1]
    q = [_int_kth_root(r[0], k)]
    if q[0] is None:
        return None
    for n in range(1, (len(p) - 1) // k + 1):
        s = sum(((k + 1) * i - k * n) * r[i] * q[n - i] for i in range(1, n + 1))
        qn, rem = divmod(s, k * n * r[0])
        if rem:
            return None
        q.append(qn)
    return q[::-1]


def _perfect_power_root(f: LaurentPolynomial,
                        newton: LatticePolygon) -> tuple[LaurentPolynomial, int]:
    """Largest k with f = g^k, for f in `_primitive` form with Newton polygon
    `newton`; returns (g, k) with g primitive, or (f, 1).

    NP(g^k) = k NP(g) (Ostrowski), so k divides every coordinate of every
    edge of NP(f); only the divisors of their gcd are tried, largest first.
    Each candidate is the integer k-th root of the univariate image under
    v = u^(du + 1), which is injective on u-degree <= du, mapped back and
    checked exactly as g^k == f.
    """
    verts = newton.vertices
    (x0, y0), base = verts[0], max(p for p, _ in f.terms) + 1
    edge_gcd = gcd(*(c for x, y in verts for c in (x - x0, y - y0)))
    image = [0] * (max(p + base * q for p, q in f.terms) + 1)
    for (p, q), c in f.terms.items():
        image[p + base * q] = c
    for k in range(edge_gcd, 1, -1):
        if edge_gcd % k or (root := _uni_kth_root(image, k)) is None:
            continue
        g = _primitive(LaurentPolynomial({(i % base, i // base): c
                                          for i, c in enumerate(root)}))
        if prod([g] * k) == f:
            return g, k
    return f, 1


def ord_profile(f1: UniPoly, f2: UniPoly, f3: UniPoly, f4: UniPoly,
                at: str = "zero") -> tuple[int, int]:
    """Order vector of t -> (f1/f2, f3/f4) at t = 0 or t = infinity."""
    if not all((f1, f2, f3, f4)):
        raise ConstantMap("zero component in parametrization")
    if at == "zero":
        return (f1.valuation_at_zero() - f2.valuation_at_zero(),
                f3.valuation_at_zero() - f4.valuation_at_zero())
    if at == "infinity":
        return (f2.degree - f1.degree, f4.degree - f3.degree)
    raise ValueError("at must be 'zero' or 'infinity'")


def implicitize(f1: UniPoly, f2: UniPoly, f3: UniPoly, f4: UniPoly,
                _details: dict | None = None) -> LaurentPolynomial:
    """Implicit equation of the closure of the image of t -> (f1/f2, f3/f4).

    The f are integer polynomials; gcd(f1, f2) = gcd(f3, f4) = 1 is proved
    by resultants mod word primes (`shares_factor`), else SharedRoot.
    Res_t(f1 - u f2, f3 - v f4) (`uni_resultant`, which raises
    DegenerateInput when a side is constant in t), cleared once to its
    primitive integer form (`_primitive`); a perfect power g^k is replaced
    by g, checked exactly.  When that is neither a certified power nor
    certified irreducible by `irreducibility_certificate`, it is returned as
    is and details["normalized"] is False.  details["newton_polygon"] is the
    Newton polygon of the result.
    """
    if shares_factor(f1, f2):
        raise SharedRoot("f1 and f2 share a factor")
    if shares_factor(f3, f4):
        raise SharedRoot("f3 and f4 share a factor")
    if f1.degree <= 0 and f2.degree <= 0 and f3.degree <= 0 and f4.degree <= 0:
        raise ConstantMap("parametrization is constant")
    res = uni_resultant(f1, f2, f3, f4)
    if res.is_zero():
        raise ConstantMap("degenerate parametrization: resultant vanished")
    f = _primitive(res)
    newton = f.newton_polygon()
    g, k = _perfect_power_root(f, newton)
    if _details is not None:
        if k > 1:
            newton = g.newton_polygon()
        _details["power"] = k
        _details["newton_polygon"] = newton
        _details["normalized"] = g.is_monomial() or k > 1 or (
            irreducibility_certificate(g, newton=newton) == IRREDUCIBLE)
    return g
