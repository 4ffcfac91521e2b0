"""Divisor-class ledger for a fixed rank-5 toric blow-up.

Classes live in the basis (D_1, ..., D_6, E): six pullbacks of the prime
invariant divisors of the hexagon fan and the exceptional divisor of the
blow-up at the torus identity.  The module ships the exact rational Gram
matrix, the two principal relations, named curve classes and the quadratic
family E_k, together with verification routines; everything is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .classify import numeric_invariants
from .errors import ZeroK
from .polygon import LatticePolygon, polygon

DivisorClass = tuple[int, int, int, int, int, int, int]

F = Fraction

GRAM: tuple[tuple[Fraction, ...], ...] = (
    (F(-3, 2), F(1), F(0), F(0), F(0), F(1, 2), F(0)),
    (F(1), F(-1), F(1), F(0), F(0), F(0), F(0)),
    (F(0), F(1), F(-16, 7), F(1, 7), F(0), F(0), F(0)),
    (F(0), F(0), F(1, 7), F(4, 189), F(1, 27), F(0), F(0)),
    (F(0), F(0), F(0), F(1, 27), F(-5, 27), F(1), F(0)),
    (F(1, 2), F(0), F(0), F(0), F(1), F(-9, 2), F(0)),
    (F(0), F(0), F(0), F(0), F(0), F(0), F(-1)),
)

# rows of the fan-ray matrix P, padded with 0 in the E slot; their divisors
# are principal
RELATIONS: tuple[DivisorClass, DivisorClass] = (
    (-1, -2, -1, -2, 5, 1, 0),
    (2, 3, 1, -5, -1, 0, 0),
)

# primitive generators of the fan rays, one per D_i (columns of P)
FAN_RAYS = ((-1, 2), (-2, 3), (-1, 1), (-2, -5), (5, -1), (1, 0))

C: DivisorClass = (0, 1, 2, 32, 1, 0, -6)
C1: DivisorClass = (0, 0, 0, 5, 1, 0, -1)
C2: DivisorClass = (0, 0, 0, 0, 5, 1, -1)
K: DivisorClass = (-1, -1, -1, -1, -1, -1, 1)

HEXAGON = polygon((0, 0), (2, 1), (5, 3), (6, 4), (1, 6), (0, 1))


def pair(a, b) -> Fraction:
    return sum(
        (F(a[i]) * GRAM[i][j] * b[j] for i in range(7) for j in range(7)
         if a[i] and GRAM[i][j] and b[j]),
        F(0),
    )


def is_principal(a) -> bool:
    """Integer membership in the span of the two relation rows.

    The relations are unimodular on their first two coordinates, so the
    candidate combination is forced and only needs checking.
    """
    r1, r2 = RELATIONS
    # solve x*r1 + y*r2 = a on coordinates 0,1; det = (-1)(3) - (-2)(2) = 1
    det = r1[0] * r2[1] - r1[1] * r2[0]
    x, rx = divmod(a[0] * r2[1] - a[1] * r2[0], det)
    y, ry = divmod(r1[0] * a[1] - r1[1] * a[0], det)
    if rx or ry:
        return False
    return all(x * r1[i] + y * r2[i] == a[i] for i in range(7))


def e_k_coefficient_polynomials():
    """E_k coordinates as (constant, k, k²) integer triples."""
    return (
        (0, 0, 0),
        (0, 0, 0),
        (-1, 0, 7),
        (-9, -49, 161),
        (9, -53, 70),
        (2, -12, 14),
        (0, 19, -42),
    )


def e_k_class(k: int) -> DivisorClass:
    if k == 0:
        raise ZeroK("E_k is defined for nonzero k only")
    return tuple(c0 + c1 * k + c2 * k * k
                 for c0, c1, c2 in e_k_coefficient_polynomials())


def pair_polynomials(a_polys, b_polys):
    """[a(k)]ᵀ·GRAM·[b(k)] as a polynomial in k (rational coefficients)."""
    out = [F(0)] * 5
    for i in range(7):
        for j in range(7):
            g = GRAM[i][j]
            if not g:
                continue
            for da, ca in enumerate(a_polys[i]):
                if not ca:
                    continue
                for db, cb in enumerate(b_polys[j]):
                    if cb:
                        out[da + db] += g * ca * cb
    while out and not out[-1]:
        out.pop()
    return out


def _const_polys(cls):
    return tuple((c,) for c in cls)


def verify_ek(k: int) -> dict:
    if k == 0:
        raise ZeroK("E_k is defined for nonzero k only")
    ek = e_k_class(k)
    report = {
        "k": k,
        "class": list(ek),
        "self": pair(ek, ek) == -1,
        "with_K": pair(ek, K) == -1,
        "with_C1": pair(ek, C1) == 0,
        "with_C2": pair(ek, C2) == 0,
        "integral_with_D": all(
            pair(ek, tuple(1 if j == i else 0 for j in range(7))).denominator == 1
            for i in range(6)
        ),
    }
    report["passed"] = all(report[key] for key in
                           ("self", "with_K", "with_C1", "with_C2",
                            "integral_with_D"))
    return report


def verify_ek_symbolic() -> dict:
    """The four E_k identities as polynomial identities in k."""
    ek = e_k_coefficient_polynomials()
    checks = {
        "self": pair_polynomials(ek, ek) == [F(-1)],
        "with_K": pair_polynomials(ek, _const_polys(K)) == [F(-1)],
        "with_C1": pair_polynomials(ek, _const_polys(C1)) == [],
        "with_C2": pair_polynomials(ek, _const_polys(C2)) == [],
    }
    checks["passed"] = all(checks.values())
    return checks


def kxc_decomposition_check() -> bool:
    cls = tuple(K[i] + C[i] - 3 * C1[i] - 2 * C2[i] for i in range(7))
    return is_principal(cls)


def verify_ledger() -> dict:
    """Cross-checks of the transcribed Gram matrix and named classes."""
    basis = [tuple(1 if j == i else 0 for j in range(7)) for i in range(7)]
    report = {
        "gram_symmetric": all(GRAM[i][j] == GRAM[j][i]
                              for i in range(7) for j in range(7)),
        "relations_trivial": all(
            pair(r, b) == 0 for r in RELATIONS for b in basis
        ),
        "C_self": pair(C, C) == 0,
        "C_C1": pair(C, C1) == 0,
        "C_C2": pair(C, C2) == 0,
        "C1_C2": pair(C1, C2) == 0,
        "E_self": pair(basis[6], basis[6]) == -1,
        "kxc": kxc_decomposition_check(),
        "ample_matches_C": [
            c for _, c in HEXAGON.ample_coefficients()
        ] == list(C[:6]),
    }
    report["passed"] = all(report.values())
    return report


def rr_polygon(k: int) -> tuple[LatticePolygon, dict]:
    """Riemann-Roch polygon attached to E_k, with its invariant report."""
    if k < 1:
        raise ZeroK("Riemann-Roch polygons are built for positive k")
    m = 42 * k * k - 19 * k
    verts = [
        (0, 0),
        (0, 7 * k * k + k),
        (7 * k * k - 4 * k, 42 * k * k - 19 * k),
        (14 * k * k - 12 * k + 2, 7 * k * k - 6 * k + 1),
        (35 * k * k - 12 * k - 1, 21 * k * k - 6 * k - 1),
        (42 * k * k - 19 * k, 28 * k * k - 13 * k),
    ]
    poly = LatticePolygon.hull(verts)
    _, b, _ = poly.lattice_counts()
    vol = poly.volume
    pair_inv = numeric_invariants(poly, m)
    report = {
        "k": k,
        "m": m,
        "vol": vol,
        "boundary": b,
        "lattice_width": poly.lattice_width()[0],
        "vol_ok": vol == m * m - 1,
        "boundary_ok": b == m + 1,
        "width_ok": poly.lattice_width()[0] == m,
        "minus_one_pair": pair_inv.minus_n() == 1,
    }
    report["passed"] = (report["vol_ok"] and report["boundary_ok"]
                        and report["width_ok"] and report["minus_one_pair"])
    return poly, report
