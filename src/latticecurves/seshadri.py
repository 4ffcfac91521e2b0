"""Seshadri-constant bounds at the general point of a polarized toric surface.

Everything is an exact rational: the lattice width gives an upper bound, a
unique multiple point gives vol/m, and two instantiated lower bounds (a
width-length segment, and the fiber bound for the triangle family with
vertices (0,0),(m,1),(1,m)) can pin the constant exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegeneratePolygon,
    EmptyList,
    EmptySystem,
    PreconditionFailure,
    RangeError,
)
from .linsys import compute_system, expected_dimension
from .polygon import LatticePolygon, equivalent


@dataclass(frozen=True)
class SeshadriEstimate:
    lower: Fraction
    upper: Fraction
    certificates: tuple[str, ...]

    @property
    def exact(self) -> Fraction | None:
        return self.upper if self.lower == self.upper else None

    def to_json(self) -> dict:
        return {
            "lower": str(self.lower),
            "upper": str(self.upper),
            "exact": None if self.exact is None else str(self.exact),
            "certificates": list(self.certificates),
        }


def width_upper_bound(poly: LatticePolygon) -> int:
    if poly.volume <= 0:
        raise DegeneratePolygon("width bound needs a two-dimensional polygon")
    return poly.lattice_width()[0]


def rationality_certificates(poly: LatticePolygon, m: int | None = None) -> list[str]:
    """Sufficient conditions for the Seshadri constant to be rational.

    With m, L(poly, m) must be nonempty: a positive `expected_dimension`
    proves it, and only a count <= 0 leaves it to the exact kernel.
    """
    certs = []
    lw = width_upper_bound(poly)
    if poly.volume > lw * lw:
        certs.append("InteriorClassRational")
    if m is not None:
        if expected_dimension(poly, m) <= 0 and compute_system(poly, m).is_empty():
            raise EmptySystem(f"no curve with multiplicity {m} on this polygon")
        if poly.volume <= m * m:
            certs.append("VolOverM")
    return certs


def segment_equality(poly: LatticePolygon) -> Fraction | None:
    """lw(Δ) as the exact constant, when Δ contains a width-length segment.

    Its endpoints are congruent mod lw, and two lattice points congruent mod
    lw span k*lw steps, the first lw of them such a segment.  The reduced
    image (`LatticePolygon.reduced_slices`) keeps congruence and spans
    exactly lw in x, so two such points share a slice, of lw + 1 points, or
    lie in the end slices, tested first.  Then only the slices whose real
    length reaches lw are read, up to the first hit; a real length of lw + 1
    holds lw + 1 points, so the cost stays linear only where that length
    stays between lw and lw + 1 over a long stretch.
    """
    if poly.volume <= 0:
        raise DegeneratePolygon("needs a two-dimensional polygon")
    lw = poly.lattice_width()[0]
    (lo0, hi0), (lo1, hi1) = poly.reduced_slices((0, lw))
    # y' - y runs over [lo1 - hi0, hi1 - lo0]: does it hold a multiple of lw?
    if (hi1 - lo0) // lw * lw >= lo1 - hi0 or any(
            hi - lo >= lw for lo, hi in poly.reduced_slices(length=lw)):
        return Fraction(lw)
    return None


def ito_family_i_lower(m: int) -> Fraction:
    """Fiber-degeneration lower bound m − 1/m for the (0,0),(m,1),(1,m) triangle."""
    if m < 2:
        raise RangeError("needs m >= 2")
    return m - Fraction(1, m)


def component_minimum(components) -> Fraction:
    """min of degree/multiplicity over curve components through the point."""
    components = list(components)
    if not components:
        raise EmptyList("no components supplied")
    best = None
    for h, mult in components:
        mult = Fraction(mult)
        if mult <= 0:
            raise RangeError("multiplicities must be positive")
        val = Fraction(h) / mult
        if best is None or val < best:
            best = val
    return best


def _is_family_i(poly: LatticePolygon, m: int) -> bool:
    # unimodular invariants of the triangle; volume m² − 1 ≥ 1 rules out m = 1
    if len(poly.vertices) != 3 or poly.volume != m * m - 1:
        return False
    # canonical order for m ≥ 2, so `equivalent` can match it by a == b
    return equivalent(poly, LatticePolygon(((0, 0), (m, 1), (1, m))))


def estimate(poly: LatticePolygon, m: int, irreducible: bool = False) -> SeshadriEstimate:
    """Bound the constant using a curve of multiplicity m on the polygon.

    Requires m ≥ 1, vol ≤ m², m ≤ lw and a nonempty system; the upper bound
    is vol/m, exact when the system member is irreducible or when one of the
    instantiated lower bounds meets it.  The system is nonempty when
    |poly ∩ Z²| > m(m+1)/2 (`expected_dimension` > 0: more coefficients than
    conditions); only otherwise is the exact kernel solved.

    Each lower bound is computed only where it can enter, so skipping it
    never changes the result, and an estimate costs O(#vertices) plus at
    most one kernel outside these two cases:
    - SegmentEquality gives lw, which enters only when lw ≤ vol/m.  With
      vol ≤ m² ≤ lw·m that means vol = m² and lw = m, and only then are
      slices of the reduced image read, never the lattice points.
    - ItoFamilyI needs Δ unimodularly equivalent to the triangle
      (0,0),(m,1),(1,m), so Δ must have 3 vertices and volume m² − 1; only
      then are canonical forms built.
    """
    vol = poly.volume
    lw = width_upper_bound(poly)
    nonempty_by_count = expected_dimension(poly, m) > 0  # raises if m < 1
    if vol > m * m:
        raise PreconditionFailure("needs vol <= m^2")
    if m > lw:
        raise PreconditionFailure("needs m <= lattice width")
    if not nonempty_by_count and compute_system(poly, m).is_empty():
        raise PreconditionFailure("needs a nonempty system at order m")
    upper = Fraction(vol, m)
    certs = ["VolOverM"]
    lower = Fraction(0)
    if lw <= upper and segment_equality(poly) is not None:
        lower = Fraction(lw)
        certs.append("SegmentEquality")
    if _is_family_i(poly, m):
        ito = ito_family_i_lower(m)
        certs.append("ItoFamilyI")
        lower = max(lower, ito)
    if irreducible:  # no lower bound above exceeds vol/m
        certs.append("IrreducibleEquality")
        lower = upper
    certs.append("WidthBound")
    return SeshadriEstimate(lower, upper, tuple(certs))
