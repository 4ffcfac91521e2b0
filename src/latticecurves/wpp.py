"""Slope analysis on blow-ups of weighted projective planes X(a,b,c).

Classes d·H − m·E are compared against the irrational light-cone boundary of
slope √(abc) using only integer arithmetic: sign(d² − abc·m²) decides the
side, and best-approximation contests are settled by cross-multiplied
squares.  The generator table for X(9,10,13) ships as versioned data; its
intrinsic C² and genus columns are carried verbatim, never recomputed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import gcd

from .errors import EmptyAfterFilter, ParseError, RangeError

BELOW, ON, ABOVE = "Below", "On", "Above"


@dataclass(frozen=True)
class WppContext:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if min(self.a, self.b, self.c) < 1:
            raise RangeError("weights must be positive")
        if (gcd(self.a, self.b) != 1 or gcd(self.a, self.c) != 1
                or gcd(self.b, self.c) != 1):
            raise RangeError("weights must be pairwise coprime")

    @property
    def abc(self) -> int:
        return self.a * self.b * self.c


@dataclass(frozen=True)
class ClassEntry:
    d: int
    m: int
    intrinsic_c2: int | None = None
    intrinsic_genus: int | None = None


def slope_compare(ctx: WppContext, e: ClassEntry) -> str:
    """Side of the light cone: sign of d² − abc·m², never floated."""
    if e.m < 1:
        raise RangeError("multiplicity must be positive")
    diff = e.d * e.d - ctx.abc * e.m * e.m
    return ABOVE if diff > 0 else (ON if diff == 0 else BELOW)


def self_intersection_on_x(ctx: WppContext, e: ClassEntry) -> Fraction:
    """d²/abc − m², the self-intersection down on X(a,b,c)."""
    if e.m < 1:
        raise RangeError("multiplicity must be positive")
    return Fraction(e.d * e.d, ctx.abc) - e.m * e.m


def _approx_error_key(e: ClassEntry):
    """Comparable proxy for |d/m − √(abc)| over the Above entries.

    For slopes above the boundary the error is d/m − √(abc), and
    d1/m1 − s < d2/m2 − s  ⟺  d1·m2 < d2·m1, so the exact Fraction d/m
    orders the contest; √(abc) cancels.
    """
    return (Fraction(e.d, e.m), e.m)


def best_approximation(ctx: WppContext, entries, predicate=None) -> ClassEntry:
    """Entry whose slope best approximates √(abc) from above; ties favor small m."""
    pool = [e for e in entries if predicate is None or predicate(e)]
    pool = [e for e in pool if slope_compare(ctx, e) == ABOVE]
    if not pool:
        raise EmptyAfterFilter("no entries above the light cone after filtering")
    return min(pool, key=_approx_error_key)


def intrinsic_minus_one(e: ClassEntry) -> bool:
    """The table's intrinsic (−1)-curve rows: C² = −1 and genus 0."""
    return e.intrinsic_c2 == -1 and e.intrinsic_genus == 0


def ingest_table(path=None):
    """ClassEntry rows from a CSV with header d,m,c2,pa."""
    if path is None:
        src = resources.files("latticecurves.data").joinpath("x_9_10_13.csv")
        lines = src.read_text().splitlines()
    else:
        with open(path) as fh:
            lines = fh.read().splitlines()
    reader = csv.reader(lines)
    entries = []
    header_seen = False  # the header is the first row that is not blank or a comment
    for lineno, row in enumerate(reader, start=1):
        if not row or (row[0].startswith("#")):
            continue
        if not header_seen:
            if [c.strip() for c in row] != ["d", "m", "c2", "pa"]:
                raise ParseError("expected header d,m,c2,pa", lineno)
            header_seen = True
            continue
        try:
            if not all(x.isascii() and "_" not in x for x in row):  # int() reads 1_0, ٢
                raise ValueError("an entry is not an optional sign and ASCII digits")
            d, m, c2, pa = (int(x) for x in row)
        except ValueError as exc:
            raise ParseError(f"malformed row {row!r}: {exc}", lineno) from exc
        entries.append(ClassEntry(d, m, c2, pa))
    if not header_seen:  # an empty or comment-only file
        raise ParseError("expected header d,m,c2,pa")
    return entries
