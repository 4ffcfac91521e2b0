"""Numeric invariants of (polygon, multiplicity) pairs and classification.

A pair (Δ, m) determines a curve on the blow-up of the toric surface of Δ at
the identity of the torus, with self-intersection vol(Δ) − m² and arithmetic
genus ½(vol(Δ) − b + m − m²) + 1.  The classification pipeline scans polygon
datasets for pairs whose vanishing system contains exactly one curve.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import RangeError
from .laurent import (
    IrreducibilityCertificate,
    LaurentPolynomial,
    irreducibility_certificate,
)
from .linsys import compute_system, is_expected
from .polygon import LatticePolygon, canonical_form, mixed_volume


@dataclass(frozen=True)
class IntrinsicPair:
    polygon: LatticePolygon
    m: int
    self_intersection: int
    arithmetic_genus: Fraction
    tags: frozenset = frozenset()

    def minus_n(self):
        """n for a (−n)-pair, else None."""
        for t in self.tags:
            if isinstance(t, tuple) and t[0] == "MinusNPair":
                return t[1]
        return None


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
        tags.add(("MinusNPair", -c2))
    if is_expected(poly, m):
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
    base = (m * m - m) // 2
    if (b, i) == (m, base + 1):
        return 1
    if (b, i) == (m + 2, base):
        return 2
    if (b, i) == (m + 1, base):
        return 3
    return "NotApplicable"


def intersection_product(pair1: IntrinsicPair, pair2: IntrinsicPair) -> int:
    mv = mixed_volume(pair1.polygon, pair2.polygon)
    assert mv.denominator == 1, "mixed volume of lattice polygons is integral"
    return int(mv) - pair1.m * pair2.m


@dataclass(frozen=True)
class ClassificationHit:
    pair: IntrinsicPair
    system_dimension: int
    unique: bool
    polynomial: LaurentPolynomial
    newton_polygon_equals_input: bool
    irreducibility: IrreducibilityCertificate
    warning: bool = False  # set when irreducibility is Inconclusive

    def to_json(self) -> dict:
        return {
            "polygon": self.pair.polygon.to_json(),
            "m": self.pair.m,
            "self_intersection": self.pair.self_intersection,
            "arithmetic_genus": str(self.pair.arithmetic_genus),
            "dimension": self.system_dimension,
            "polynomial": self.polynomial.to_json(),
            "irreducibility": self.irreducibility.verdict,
            "warning": self.warning,
        }


def _examine(task):
    """The hit for one (polygon, m) task, or None; factors come from the oracle."""
    vertices, m, factors = task
    poly = LatticePolygon(vertices)
    system = compute_system(poly, m)
    if system.dimension != 1:
        return None
    f = system.members()[0]
    if f.newton_polygon() != poly.translated_to_origin():
        return None
    pair = numeric_invariants(poly, m)
    cert = irreducibility_certificate(f, witness_factors=factors)
    if cert.verdict == IrreducibilityCertificate.REDUCIBLE:
        return None
    return ClassificationHit(
        pair, 1, True, f, True, cert,
        warning=cert.verdict == IrreducibilityCertificate.INCONCLUSIVE,
    )


def classify_dataset(polygons, m_max: int, volume_max: int, oracle=None,
                     jobs: int | None = None) -> list[ClassificationHit]:
    """Unique-curve pairs from a polygon stream, deduplicated by canonical form.

    oracle maps (canonical vertices, m) to a factor list certifying
    reducibility; such pairs are dropped.  jobs above 1 runs the tasks in a
    process pool; None takes the job count from the environment variable
    read below, and runs serially when it is unset.
    """
    if m_max < 1:
        raise RangeError("m_max must be at least 1")
    oracle = oracle or {}
    keys, tasks = [], []
    seen_input = set()
    for poly in polygons:
        # volume is a unimodular invariant, so skipping before keying keeps the dedupe
        vol = poly.volume
        if vol > volume_max or vol > m_max * m_max:
            continue
        key = canonical_form(poly)[0].vertices
        if key in seen_input:
            continue
        seen_input.add(key)
        for m in range(1, m_max + 1):
            if vol - m * m <= 0:
                keys.append((key, m))
                tasks.append((poly.vertices, m, oracle.get((key, m))))
    if jobs is None:
        jobs = int(os.environ.get("INTRINSIC_CURVES_JOBS", "0")) or None
    if jobs and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            hits = list(pool.map(_examine, tasks, chunksize=8))
    else:
        hits = map(_examine, tasks)
    results = {k: hit for k, hit in zip(keys, hits) if hit}
    return [results[k] for k in sorted(results, key=lambda k: (k[1], k[0]))]
