"""Numeric invariants of (polygon, multiplicity) pairs and classification.

A pair (Δ, m) determines a curve on the blow-up of the toric surface of Δ at
the identity of the torus, with self-intersection vol(Δ) − m² and arithmetic
genus ½(vol(Δ) − b + m − m²) + 1.  The classification pipeline scans polygon
datasets for pairs whose vanishing system contains exactly one curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import RangeError
from .laurent import INCONCLUSIVE, LaurentPolynomial, irreducibility_certificate
from .linsys import compute_system, expected_dimension
from .polygon import LatticePolygon, canonical_form, mixed_volume, multiplicity_cap


@dataclass(frozen=True)
class IntrinsicPair:
    polygon: LatticePolygon
    m: int
    self_intersection: int
    arithmetic_genus: Fraction
    tags: frozenset = frozenset()

    def minus_n(self):
        """n for a (−n)-pair, else None."""
        return -self.self_intersection if "MinusNPair" in self.tags else None


def numeric_invariants(poly: LatticePolygon, m: int) -> IntrinsicPair:
    if m < 1:
        raise RangeError("multiplicity must be positive")
    vol, b = poly.volume, poly.boundary_count
    c2 = vol - m * m
    pa = Fraction(vol - b + m - m * m, 2) + 1
    tags = set()
    if c2 < 0:
        tags.add("NumericallyNegative")
    if c2 <= 0:
        tags.add("NumericallyNonPositive")
    if c2 < 0 and pa == 0:
        tags.add("MinusNPair")
    if expected_dimension(poly, m) > 0:
        tags.add("Expected")
    return IntrinsicPair(poly, m, c2, pa, frozenset(tags))


def expected_case(poly: LatticePolygon, m: int):
    """Which of the three (b, i) solutions an expected non-positive pair hits.

    Returns 1, 2 or 3, or the string "NotApplicable".  Case 1 is
    (b, i) = (m, (m²−m)/2 + 1) with C² = 0, g = 1; case 2 is
    (m+2, (m²−m)/2) with C² = 0, g = 0; case 3 is (m+1, (m²−m)/2) with
    C² = −1, g = 0.
    """
    pair = numeric_invariants(poly, m)
    if ("Expected" not in pair.tags or "NumericallyNonPositive" not in pair.tags
            or pair.arithmetic_genus < 0):
        return "NotApplicable"
    _, b, i = poly.lattice_counts()
    # i = (m²−m)/2 + s: g ≥ 0 reads s ≥ 0, and by Pick C² ≤ 0 reads b ≤ m + 2 − 2s and
    # "Expected" b ≥ m + 1 − s, so s ≤ 1 and (b, s) is one of the three; the one
    # segment that qualifies, of 2 points at m = 1, is case 3
    return {(m, 1): 1, (m + 2, 0): 2, (m + 1, 0): 3}[b, i - (m * m - m) // 2]


def intersection_product(pair1: IntrinsicPair, pair2: IntrinsicPair) -> int:
    mv = mixed_volume(pair1.polygon, pair2.polygon)
    assert mv.denominator == 1, "mixed volume of lattice polygons is integral"
    return int(mv) - pair1.m * pair2.m


@dataclass(frozen=True)
class ClassificationHit:
    pair: IntrinsicPair
    polynomial: LaurentPolynomial
    irreducibility: str  # a `laurent.irreducibility_certificate` verdict

    def to_json(self) -> dict:
        return {
            "polygon": self.pair.polygon.to_json(),
            "m": self.pair.m,
            "self_intersection": self.pair.self_intersection,
            "arithmetic_genus": str(self.pair.arithmetic_genus),
            "dimension": 1,
            "polynomial": self.polynomial.to_json(),
            "irreducibility": self.irreducibility,
            "warning": self.irreducibility == INCONCLUSIVE,
        }


def _examine(task):
    """The hit of one polygon over m = first..last, or None.  The m with an
    `expected_dimension` of 2 or more (nonempty, not a unique curve) are a
    prefix, as that count falls strictly in m, and get no kernel; from there
    each m is solved until a system of dimension at most 1, which ends the
    scan.  An empty system stays empty, as the rows for m are among those
    for m + 1.  One curve is the last: if L(Δ, m) = <f> with m >= 1 and f
    lay in L(Δ, m + 1), then u ∂f/∂u, supported on Δ and of order m at
    (1, 1), would lie in L(Δ, m), so be a multiple of f: every term of f
    would share one u-exponent, and likewise one v-exponent, but a monomial
    does not vanish at (1, 1).  So f has order exactly m and every later
    system is empty."""
    poly, first, last = task
    system = None
    for m in range(first, last + 1):
        if expected_dimension(poly, m) < 2:
            system = compute_system(poly, m)
            if system.dimension < 2:
                break
    if system is None or system.dimension != 1:
        return None
    f = system.members()[0]
    newton = f.newton_polygon()
    if newton != poly.translated_to_origin():
        return None
    return ClassificationHit(numeric_invariants(poly, system.order), f,
                             irreducibility_certificate(f, newton=newton))


def classify_dataset(polygons, m_max: int, volume_max: int, oracle=None,
                     jobs: int | None = None) -> list[ClassificationHit]:
    """Unique-curve pairs from a polygon stream, deduplicated by canonical form.

    oracle holds the (canonical vertices, m) pairs whose unique member is
    reducible, as `cli.load_oracle` returns them with their checked
    witnesses; those pairs are dropped, in every coordinate system, since a
    unimodular change of coordinates fixes (1, 1) and carries the member and
    its factors along.  jobs above 1 runs the tasks in a process pool, None,
    0 or 1 serially; a negative jobs or volume_max raises RangeError.
    Each task scans its polygon from the least m with vol(Δ) - m² <= 0 up to
    m_max or `multiplicity_cap`, lazily, so m_max costs nothing past where
    the scan ends.  Above the cap every member is divisible by a binomial
    whose segment Δ lacks as a summand, so no member has Newton polygon Δ;
    a polygon whose cap lies below its first m is dropped before it is keyed.
    """
    if m_max < 1:
        raise RangeError("m_max must be at least 1")
    if jobs is not None and jobs < 0:
        raise RangeError("jobs must be nonnegative")
    if volume_max < 0:
        raise RangeError("volume_max must be nonnegative")
    tasks = {}  # canonical vertices -> (polygon, first, last)
    for poly in polygons:
        # volume and the width cap are unimodular invariants: skips keep the dedupe
        vol = poly.volume
        first = isqrt(max(vol - 1, 0)) + 1  # the least m >= 1 with m² >= vol
        if vol > volume_max or first > m_max:
            continue
        cap = multiplicity_cap(poly)
        last = m_max if cap is None else min(m_max, cap)
        if last < first:
            continue
        key = canonical_form(poly).vertices
        if key not in tasks:
            tasks[key] = (poly, first, last)
    if jobs and jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            found = list(pool.map(_examine, tasks.values(),
                                  chunksize=max(1, len(tasks) // (4 * jobs))))
    else:
        found = map(_examine, tasks.values())
    results = {(key, hit.pair.m): hit for key, hit in zip(tasks, found)
               if hit is not None and (key, hit.pair.m) not in (oracle or ())}
    return [results[k] for k in sorted(results, key=lambda k: (k[1], k[0]))]
