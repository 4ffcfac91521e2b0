"""Exact Laurent polynomials in two variables and univariate helpers.

Includes Newton polygons, multiplicity at the torus identity, resultant-based
implicitization of rational parametrizations, factorization verification and
a sufficient irreducibility certificate based on Newton-polygon
indecomposability.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .errors import (
    ConstantMap,
    DegenerateInput,
    MonomialInput,
    SharedRoot,
    ZeroPolynomial,
)
from .polygon import LatticePolygon, minkowski_decompositions

Exponent = tuple[int, int]


class LaurentPolynomial:
    """Finitely supported map from Z^2 exponents to rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                c = Fraction(c)
                if c:
                    key = (int(e[0]), int(e[1]))
                    clean[key] = clean.get(key, Fraction(0)) + c
                    if not clean[key]:
                        del clean[key]
        self.terms = clean

    @staticmethod
    def monomial(p: int, q: int, c=1) -> "LaurentPolynomial":
        return LaurentPolynomial({(p, q): Fraction(c)})

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
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPolynomial(out)

    def __neg__(self):
        return LaurentPolynomial({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = {}
        for (p1, q1), c1 in self.terms.items():
            for (p2, q2), c2 in other.terms.items():
                e = (p1 + p2, q1 + q2)
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPolynomial(out)

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPolynomial":
        c = Fraction(c)
        if not c:
            return LaurentPolynomial()
        return LaurentPolynomial({e: c * v for e, v in self.terms.items()})

    def shift(self, dp: int, dq: int) -> "LaurentPolynomial":
        return LaurentPolynomial({(p + dp, q + dq): c for (p, q), c in self.terms.items()})

    def evaluate(self, u, v) -> Fraction:
        u, v = Fraction(u), Fraction(v)
        return sum((c * u ** p * v ** q for (p, q), c in self.terms.items()),
                   Fraction(0))

    def support(self) -> list[Exponent]:
        return sorted(self.terms)

    def min_exponents(self) -> Exponent:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no support")
        return (min(p for p, _ in self.terms), min(q for _, q in self.terms))

    def unit_normalized(self) -> "LaurentPolynomial":
        """Divide by monomial unit and rational content; lex-least coefficient 1."""
        if not self.terms:
            raise ZeroPolynomial("cannot normalize zero")
        dp, dq = self.min_exponents()
        shifted = self.shift(-dp, -dq)
        lead = shifted.terms[min(shifted.terms)]
        return shifted.scale(1 / lead)

    def integer_normalized(self) -> "LaurentPolynomial":
        """Unit-normalize, then clear denominators to content-free integers."""
        f = self.unit_normalized()
        den = 1
        for c in f.terms.values():
            den = den * c.denominator // gcd(den, c.denominator)
        f = f.scale(den)
        num = 0
        for c in f.terms.values():
            num = gcd(num, c.numerator)
        return f.scale(Fraction(1, num))

    def newton_polygon(self) -> LatticePolygon:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no Newton polygon")
        return LatticePolygon.hull(self.terms)

    def multiplicity_at_identity(self) -> int:
        """Least vanishing order of f(1+s, 1+t) at the origin."""
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no multiplicity")
        dp, dq = self.min_exponents()
        f = self.shift(-dp, -dq)  # monomial unit: multiplicity unchanged
        pmax = max(p for p, _ in f.terms)
        qmax = max(q for _, q in f.terms)
        for k in range(pmax + qmax + 1):
            for a in range(k + 1):
                b = k - a
                s = Fraction(0)
                for (p, q), c in f.terms.items():
                    s += c * comb(p, a) * comb(q, b)
                if s:
                    return k
        raise AssertionError("nonzero polynomial without finite multiplicity")

    def to_json(self) -> dict:
        return {
            "terms": [
                {"e": [p, q], "c": f"{c.numerator}/{c.denominator}"}
                for (p, q), c in sorted(self.terms.items())
            ]
        }

    @staticmethod
    def from_json(obj: dict) -> "LaurentPolynomial":
        return LaurentPolynomial(
            {(int(t["e"][0]), int(t["e"][1])): Fraction(t["c"]) for t in obj["terms"]}
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (p, q), c in sorted(self.terms.items()):
            bits.append(f"{c}*u^{p}*v^{q}")
        return " + ".join(bits)


def verify_factorization(f: LaurentPolynomial, factors) -> bool:
    """True iff the product equals f up to a monomial unit and nonzero scalar."""
    prod = LaurentPolynomial.one()
    for g in factors:
        prod = prod * g
    if f.is_zero() or prod.is_zero():
        return f.is_zero() and prod.is_zero()
    return f.unit_normalized() == prod.unit_normalized()


@dataclass(frozen=True)
class IrreducibilityCertificate:
    """Verdict with optional witnessing factors (for the reducible case)."""

    verdict: str  # IrreducibleByIndecomposability | ReducibleByWitness | Inconclusive
    factors: tuple[LaurentPolynomial, ...] = ()

    IRREDUCIBLE = "IrreducibleByIndecomposability"
    REDUCIBLE = "ReducibleByWitness"
    INCONCLUSIVE = "Inconclusive"


def irreducibility_certificate(
    f: LaurentPolynomial, witness_factors=None
) -> IrreducibilityCertificate:
    """Certificate for absolute irreducibility.

    An integrally indecomposable Newton polygon is sufficient for
    irreducibility (after stripping the monomial unit).  Reducibility is
    accepted only with externally supplied factors that verify exactly;
    everything else is Inconclusive.
    """
    if f.is_zero():
        raise ZeroPolynomial("certificate undefined for zero")
    if f.is_monomial():
        raise MonomialInput("certificate undefined for monomials")
    if witness_factors:
        factors = tuple(witness_factors)
        if len(factors) >= 2 and verify_factorization(f, factors) and all(
            not g.is_monomial() for g in factors
        ):
            return IrreducibilityCertificate(
                IrreducibilityCertificate.REDUCIBLE, factors
            )
        return IrreducibilityCertificate(IrreducibilityCertificate.INCONCLUSIVE)
    if not minkowski_decompositions(f.newton_polygon()):
        return IrreducibilityCertificate(IrreducibilityCertificate.IRREDUCIBLE)
    return IrreducibilityCertificate(IrreducibilityCertificate.INCONCLUSIVE)


# ---------------------------------------------------------------------------
# univariate polynomials over Q


class UniPoly:
    """Dense univariate polynomial over Q, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> "UniPoly":
        return UniPoly([c])

    @staticmethod
    def t_power(k: int, c=1) -> "UniPoly":
        return UniPoly([0] * k + [c])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly([Fraction(other) * c for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def divmod(self, other) -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        den = other.coeffs
        q = [Fraction(0)] * max(len(rem) - len(den) + 1, 0)
        for i in range(len(rem) - len(den), -1, -1):
            c = rem[i + len(den) - 1] / den[-1]
            if c:
                q[i] = c
                for j, d in enumerate(den):
                    rem[i + j] -= c * d
        return UniPoly(q), UniPoly(rem)

    def gcd(self, other) -> "UniPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a * (1 / a.coeffs[-1])  # monic

    def valuation_at_zero(self) -> int:
        if self.is_zero():
            raise ZeroPolynomial("valuation undefined for zero")
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise AssertionError

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)})"


def geometric_sum(lo: int, hi: int) -> UniPoly:
    """t^lo + t^(lo+1) + ... + t^hi."""
    return UniPoly([0] * lo + [1] * (hi - lo + 1))


# ---------------------------------------------------------------------------
# resultants and implicitization

TPoly = list[LaurentPolynomial]  # polynomial in t with Laurent coefficients,
                                 # lowest degree first


def _trim(a: TPoly) -> TPoly:
    a = list(a)
    while a and a[-1].is_zero():
        a.pop()
    return a


def sylvester_matrix(a: TPoly, b: TPoly) -> list[list[LaurentPolynomial]]:
    n, m = len(a) - 1, len(b) - 1
    size = n + m
    rows = []
    arev = list(reversed(a))
    brev = list(reversed(b))
    for i in range(m):
        row = [LaurentPolynomial.zero()] * size
        row[i : i + n + 1] = arev
        rows.append(row)
    for i in range(n):
        row = [LaurentPolynomial.zero()] * size
        row[i : i + m + 1] = brev
        rows.append(row)
    return rows


def sylvester_det_direct(a: TPoly, b: TPoly) -> LaurentPolynomial:
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


def _bareiss_det(m: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction-free-style elimination over Q."""
    n = len(m)
    m = [row[:] for row in m]
    sign = 1
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            if not f:
                continue
            for j in range(k + 1, n):
                m[i][j] -= f * m[k][j]
    return sign * det


def _lagrange_interpolate(xs, ys) -> list[Fraction]:
    """Coefficients (lowest first) of the interpolating polynomial."""
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        # basis polynomial prod_{j != i} (x - xs[j]) / (xs[i] - xs[j])
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k + 1] += c
                new[k] -= c * xs[j]
            basis = new
            denom *= xs[i] - xs[j]
        scale = ys[i] / denom
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    return coeffs


def uni_resultant(a: TPoly, b: TPoly) -> LaurentPolynomial:
    """Classical resultant in t, by evaluation and exact interpolation.

    Coefficients live in the Laurent ring; leading t-coefficients must be
    nonzero (raise DegenerateInput otherwise; trimming is the caller's job).
    """
    if len(a) < 2 or len(b) < 2:
        raise DegenerateInput("resultant needs deg_t >= 1 on both sides")
    if a[-1].is_zero() or b[-1].is_zero():
        raise DegenerateInput("leading t-coefficient is identically zero")
    # clear negative exponents; undo via resultant homogeneity at the end
    def clearing_shift(coeffs):
        dps = [c.min_exponents() for c in coeffs if not c.is_zero()]
        dp = min(0, min(p for p, _ in dps))
        dq = min(0, min(q for _, q in dps))
        return -dp, -dq

    sa = clearing_shift(a)
    sb = clearing_shift(b)
    a2 = [c.shift(*sa) for c in a]
    b2 = [c.shift(*sb) for c in b]
    deg_a, deg_b = len(a2) - 1, len(b2) - 1

    def maxdeg(coeffs, axis):
        return max(
            max((e[axis] for e in c.terms), default=0) for c in coeffs
        )

    du = deg_b * maxdeg(a2, 0) + deg_a * maxdeg(b2, 0)
    dv = deg_b * maxdeg(a2, 1) + deg_a * maxdeg(b2, 1)
    xs = list(range(1, du + 2))
    ys = list(range(1, dv + 2))
    mat = sylvester_matrix(a2, b2)
    values = {}
    for x in xs:
        for y in ys:
            num = [[entry.evaluate(x, y) for entry in row] for row in mat]
            values[(x, y)] = _bareiss_det(num)
    # interpolate in u for every y, then in v coefficientwise
    upolys = {y: _lagrange_interpolate(xs, [values[(x, y)] for x in xs]) for y in ys}
    terms = {}
    for p in range(du + 1):
        col = _lagrange_interpolate(ys, [upolys[y][p] for y in ys])
        for q, c in enumerate(col):
            if c:
                terms[(p, q)] = c
    res = LaurentPolynomial(terms)
    # Res(mu*A, B) = mu^deg(B) Res(A, B); undo both clearing monomials
    return res.shift(-(deg_b * sa[0] + deg_a * sb[0]),
                     -(deg_b * sa[1] + deg_a * sb[1]))


def _rational_kth_root(c: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of c, or None; integer Newton iteration, no floats."""
    def iroot(n: int) -> int | None:
        if n < 0:
            if k % 2 == 0:
                return None
            r = iroot(-n)
            return None if r is None else -r
        r = n
        if n > 1:  # Newton from 2**ceil(bits/k) >= n**(1/k) falls to the floor
            r = 1 << -(-n.bit_length() // k)
            while (y := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
                r = y
        return r if r ** k == n else None

    num = iroot(c.numerator)
    den = iroot(c.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _uni_kth_root(p: list[Fraction], k: int) -> list[Fraction] | None:
    """k-th root of a univariate coefficient list (lowest first), if it exists."""
    while p and not p[-1]:
        p.pop()
    if not p:
        return []
    n = len(p) - 1
    if n % k:
        return None
    d = n // k
    lead = _rational_kth_root(p[-1], k)
    if lead is None:
        return None
    q = [Fraction(0)] * (d + 1)
    q[d] = lead

    def power_coeff(qs, idx):
        # coefficient of t^idx in qs^k, qs known up to current fill level
        total = Fraction(0)
        # k-fold convolution is small here (d <= ~40)
        cur = [Fraction(1)]
        for _ in range(k):
            new = [Fraction(0)] * (len(cur) + d)
            for i2, a2 in enumerate(cur):
                if not a2:
                    continue
                for j2, b2 in enumerate(qs):
                    new[i2 + j2] += a2 * b2
            cur = new
        return cur[idx] if idx < len(cur) else total

    for j in range(d - 1, -1, -1):
        target = p[(k - 1) * d + j]
        have = power_coeff(q, (k - 1) * d + j)
        # coefficient is linear in q[j] with slope k * lead^(k-1)
        q[j] = (target - have) / (k * lead ** (k - 1))
    # verify
    check = [Fraction(1)]
    for _ in range(k):
        new = [Fraction(0)] * (len(check) + d)
        for i2, a2 in enumerate(check):
            for j2, b2 in enumerate(q):
                new[i2 + j2] += a2 * b2
        check = new
    if [c for c in check] == list(p) + [Fraction(0)] * (len(check) - len(p)):
        return q
    return None


def _perfect_power_root(f: LaurentPolynomial) -> tuple[LaurentPolynomial, int]:
    """Largest k with f = g^k up to unit; returns (g, k); k = 1 if none."""
    f = f.unit_normalized()
    poly = f.newton_polygon()
    du = max(p for p, _ in f.terms)
    dv = max(q for _, q in f.terms)
    for k in range(max(du, dv, 1), 1, -1):
        if du % k or dv % k:
            continue
        # find g by univariate roots along v = const lines, interpolated in v
        gu = du // k
        gv = dv // k
        samples = []
        ok = True
        vs = list(range(1, gv + 2))
        for v0 in vs:
            line = [Fraction(0)] * (du + 1)
            for (p, q), c in f.terms.items():
                line[p] += c * Fraction(v0) ** q
            root = _uni_kth_root(line, k)
            if root is None or len(root) - 1 != gu:
                ok = False
                break
            if root[-1] < 0:
                root = [-c for c in root]
            samples.append(root)
        if not ok:
            continue
        terms = {}
        for p in range(gu + 1):
            col = _lagrange_interpolate(
                vs, [s[p] if p < len(s) else Fraction(0) for s in samples]
            )
            for q, c in enumerate(col):
                if c:
                    terms[(p, q)] = c
        g = LaurentPolynomial(terms)
        if g.is_zero():
            continue
        gk = LaurentPolynomial.one()
        for _ in range(k):
            gk = gk * g
        if verify_factorization(f, [gk]):
            inner, kk = _perfect_power_root(g)
            return inner, k * kk
    return f, 1


def ord_profile(f1: UniPoly, f2: UniPoly, f3: UniPoly, f4: UniPoly,
                at: str = "zero") -> tuple[int, int]:
    """Order vector of t -> (f1/f2, f3/f4) at t = 0 or t = infinity."""
    for f in (f1, f2, f3, f4):
        if f.is_zero():
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

    Resultant of f1 - u f2 and f3 - v f4 with respect to t, stripped of
    rational content and monomial units; perfect powers g^k are replaced by g
    (with exact verification).  When the content-free resultant is neither a
    certified power nor certifiably irreducible it is returned unchanged and
    tagged NotNormalized in the details dict.
    """
    if not f1.gcd(f2).is_zero() and f1.gcd(f2).degree > 0:
        raise SharedRoot("f1 and f2 share a factor")
    if not f3.gcd(f4).is_zero() and f3.gcd(f4).degree > 0:
        raise SharedRoot("f3 and f4 share a factor")
    if f1.degree <= 0 and f2.degree <= 0 and f3.degree <= 0 and f4.degree <= 0:
        raise ConstantMap("parametrization is constant")
    u = LaurentPolynomial.monomial(1, 0)
    v = LaurentPolynomial.monomial(0, 1)
    deg = max(f1.degree, f2.degree, f3.degree, f4.degree)

    a = [_const_lp(num_coeff(f1, i)) - u * _const_lp(num_coeff(f2, i))
         for i in range(deg + 1)]
    b = [_const_lp(num_coeff(f3, i)) - v * _const_lp(num_coeff(f4, i))
         for i in range(deg + 1)]
    a = _trim(a)
    b = _trim(b)
    res = uni_resultant(a, b)
    if res.is_zero():
        raise ConstantMap("degenerate parametrization: resultant vanished")
    res = res.unit_normalized()
    g, k = _perfect_power_root(res)
    if _details is not None:
        _details["power"] = k
        if g.is_monomial():
            _details["normalized"] = True
        else:
            _details["normalized"] = (
                k > 1 or not minkowski_decompositions(g.newton_polygon())
            )
    return g.integer_normalized()


def num_coeff(p: UniPoly, i: int) -> Fraction:
    return p.coeffs[i] if i < len(p.coeffs) else Fraction(0)


def _const_lp(c: Fraction) -> LaurentPolynomial:
    return LaurentPolynomial({(0, 0): c}) if c else LaurentPolynomial.zero()
