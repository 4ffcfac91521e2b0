"""The five infinite families of unique-multiplicity polygons.

Each family comes with a vertex matrix in the parameter m, table invariants
(C², genus, lattice width) and — except for family V — an explicit rational
parametrization of an irreducible member of its linear system.  This module
generates the data and verifies it end to end through implicitization.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .classify import numeric_invariants
from .errors import HypothesisFailure, NoParametrization, RangeError
from .laurent import (
    UniPoly,
    geometric_sum,
    implicitize,
    ord_profile,
    shares_factor,
)
from .polygon import LatticePolygon, polygon

FAMILIES = ("I", "II", "III", "IV", "V")

# table invariants (C², genus); lattice width is m for every family
_TABLE = {"I": (-1, 0), "II": (-1, 0), "III": (-2, 0), "IV": (0, 0), "V": (0, 1)}


@dataclass(frozen=True)
class FamilySpec:
    family: str
    m: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise RangeError(f"unknown family {self.family!r}")
        m = index(self.m)
        ok = {
            "I": m >= 2,
            "II": m >= 4,
            "III": m >= 8 and m % 2 == 0,
            "IV": m >= 4,
            "V": m >= 6 and m % 2 == 0,
        }[self.family]
        if not ok:
            raise RangeError(f"m={m} out of range for family {self.family}")


@dataclass(frozen=True)
class Parametrization:
    """Map t -> (f1/f2, f3/f4) with f4 = f1 - f2 + f3, in integer polynomials."""

    f1: UniPoly
    f2: UniPoly
    f3: UniPoly
    f4: UniPoly


def family_polygon(spec: FamilySpec) -> LatticePolygon:
    m = spec.m
    verts = {
        "I": [(0, 0), (m, 1), (1, m)],
        "II": [(0, 0), (m - 3, 0), (m, 1), (m - 1, m), (m - 2, m - 1)],
        "III": [(0, 0), (0, 1), (2, m), (m - 4, m), (m - 1, m - 1),
                (m, m - 2), (m - 1, m - 3)],
        "IV": [(0, 0), (m - 2, 0), (m, 1), (m - 1, m), (m - 2, m - 1)],
        "V": [(0, 0), (m - 4, 0), (m, 1), (m - 2, m), (m - 3, m - 1)],
    }[spec.family]
    poly = polygon(*verts)
    assert len(poly.vertices) == len(verts), "listed vertices must be extreme"
    return poly


def family_invariants(spec: FamilySpec) -> tuple[int, int, int]:
    """(C², genus, lattice width), computed from the polygon, not the table."""
    poly = family_polygon(spec)
    pair = numeric_invariants(poly, spec.m)
    g = pair.arithmetic_genus
    assert g.denominator == 1
    return pair.self_intersection, int(g), poly.lattice_width()[0]


def family_parametrization(spec: FamilySpec) -> Parametrization:
    m = spec.m
    fam = spec.family
    if fam == "V":
        raise NoParametrization("family V has no explicit parametrization")
    t = UniPoly.t_power
    t1 = UniPoly([-1, 1])  # t - 1
    if fam == "I":
        f1 = UniPoly([-1])
        f2 = geometric_sum(1, m)
        f3 = t(m)
    elif fam == "II":
        f1 = UniPoly([-(m - 2), m - 1])
        f2 = -1 * (t1 * t(m - 1))
        inner = t(m - 3) + UniPoly([m - 2 - i for i in range(m - 3)])
        f3 = -1 * (t1 * t1 * t1 * inner)
    elif fam == "III":
        # the paper's map at t = a·s, a = n/d, times the constant d/a^(2k-2)
        k = m // 2
        n, d = k - 1, k - 2
        f1 = UniPoly([-d, n])
        f2 = t(2 * k - 3) * UniPoly([-n, d]) * UniPoly([-1, 0, 1])
        f3 = t(2 * k - 1) * UniPoly([-n, d])
    else:  # IV
        f1 = UniPoly([-1, 2])
        f2 = (UniPoly([1, -1])) * t(m - 1)
        f3 = -1 * (t1 * t1 * (geometric_sum(1, m - 2) - UniPoly([1])))
    return Parametrization(f1, f2, f3, f1 - f2 + f3)


def verify_multiplicity_lemma(p: Parametrization) -> int:
    """Multiplicity at (1,1) of the image curve; equals deg(f1 − f2)."""
    if shares_factor(p.f1, p.f2):
        raise HypothesisFailure("gcd(f1, f2) must be 1")
    if p.f1 - p.f2 != p.f4 - p.f3:
        raise HypothesisFailure("f1 - f2 must equal f4 - f3")
    diff = p.f1 - p.f2
    if diff.is_zero():
        raise HypothesisFailure("f1 - f2 must be nonzero")
    return diff.degree


def verify_family_end_to_end(spec: FamilySpec, budget: int = 20) -> dict:
    """Implicitize and compare against the table; returns a JSON-able report."""
    if spec.family == "V":
        raise NoParametrization("family V has no explicit parametrization")
    if spec.m > budget:
        raise RangeError(f"m={spec.m} exceeds the resultant budget {budget}")
    par = family_parametrization(spec)
    mult_claim = verify_multiplicity_lemma(par)
    details: dict = {}
    f = implicitize(par.f1, par.f2, par.f3, par.f4, details)
    np_ = details["newton_polygon"]
    target = family_polygon(spec)
    polygon_ok = np_.translated_to_origin() == target.translated_to_origin()
    mult = f.multiplicity_at_identity()
    c2, g, lw = family_invariants(spec)
    table_c2, table_g = _TABLE[spec.family]
    report = {
        "family": spec.family,
        "m": spec.m,
        "multiplicity_lemma": mult_claim,
        "multiplicity": mult,
        "newton_polygon_matches": polygon_ok,
        "invariants": {"C2": c2, "genus": g, "lattice_width": lw},
        "invariants_match_table": (c2, g, lw) == (table_c2, table_g, spec.m),
        "normalized": details.get("normalized", False),
        "power": details.get("power", 1),
        "polynomial": f.to_json(),
    }
    if spec.family == "I":
        report["ord_zero"] = ord_profile(par.f1, par.f2, par.f3, par.f4, "zero")
        report["ord_infinity"] = ord_profile(par.f1, par.f2, par.f3, par.f4,
                                             "infinity")
        report["ord_matches"] = (report["ord_zero"] == (-1, spec.m)
                                 and report["ord_infinity"] == (spec.m, -1))
    report["passed"] = bool(
        polygon_ok and mult == spec.m == mult_claim
        and report["invariants_match_table"]
        and report.get("ord_matches", True)
    )
    return report
