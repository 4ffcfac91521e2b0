"""Seed-fixed randomized invariants across the whole toolkit."""

import random
from fractions import Fraction
from math import gcd

from latticecurves.laurent import LaurentPolynomial
from latticecurves.polygon import (
    LatticePolygon,
    UnimodularMap,
    canonical_form,
    convex_hull,
    minkowski_sum,
    mixed_volume,
    polygon,
)


def rng(seed):
    return random.Random(seed)


def random_polygon(r, span=8, npts=6):
    while True:
        pts = [(r.randint(-span, span), r.randint(-span, span))
               for _ in range(npts)]
        p = convex_hull(pts)
        if not p.is_degenerate:
            return p


def random_poly(r, span=4, terms=5):
    out = {}
    for _ in range(r.randint(1, terms)):
        out[(r.randint(-span, span), r.randint(-span, span))] = r.randint(-9, 9)
    f = LaurentPolynomial(out)
    return f if not f.is_zero() else LaurentPolynomial.one()


def random_unimodular(r, span=5):
    while True:
        a, b, c, d = (r.randint(-span, span) for _ in range(4))
        if a * d - b * c in (1, -1):
            return UnimodularMap(((a, b), (c, d)),
                                 (r.randint(-9, 9), r.randint(-9, 9)))


def test_pick_identity_1000_hulls():
    r = rng(20260826)
    for _ in range(1000):
        p = random_polygon(r)
        total, b, i = p.lattice_counts()
        assert p.volume == 2 * i + b - 2
        assert total == i + b


def test_newton_polygon_of_product_is_minkowski_sum_500():
    r = rng(17)
    for _ in range(500):
        f, g = random_poly(r), random_poly(r)
        prod = f * g
        assert not prod.is_zero()  # no zero divisors over Q
        assert prod.newton_polygon() == \
            minkowski_sum(f.newton_polygon(), g.newton_polygon())


def test_multiplicity_additivity_500():
    r = rng(99)
    for _ in range(500):
        f = random_poly(r, span=3, terms=4)
        g = random_poly(r, span=3, terms=4)
        assert (f * g).multiplicity_at_identity() == \
            f.multiplicity_at_identity() + g.multiplicity_at_identity()


def test_mixed_volume_bilinear_300():
    r = rng(4242)
    for _ in range(300):
        a = random_polygon(r, span=4, npts=5)
        b = random_polygon(r, span=4, npts=5)
        c = random_polygon(r, span=4, npts=5)
        assert mixed_volume(a, b) == mixed_volume(b, a)
        assert mixed_volume(minkowski_sum(a, b), c) == \
            mixed_volume(a, c) + mixed_volume(b, c)


def test_canonical_form_invariant_1000():
    r = rng(31337)
    for _ in range(1000):
        p = random_polygon(r, span=5, npts=5)
        mp = random_unimodular(r)
        assert canonical_form(p) == canonical_form(mp.apply(p))


def brute_force_width(p):
    # every primitive direction up to twice the found bound
    found = p.lattice_width()[0]
    bound = 2 * max(found, 1)
    best = None
    for a in range(0, bound + 1):
        for b in range(-bound, bound + 1):
            if (a, b) == (0, 0) or gcd(a, abs(b)) != 1:
                continue
            w = p.width_in_direction((a, b))
            if best is None or w < best:
                best = w
    return best


def test_lattice_width_vs_brute_force_200():
    r = rng(777)
    polys = [random_polygon(r, span=6, npts=5) for _ in range(200)]
    # thin slanted triangles: a slice with no integer point comes before the
    # last nonempty real slice of the direction search
    for k in range(1, 13):
        polys += [polygon((0, 0), (1, 0), (k, k + 1)),
                  polygon((0, 0), (1, 0), (k + 1, k)),
                  polygon((0, 0), (0, 1), (k, 2 * k + 1))]
    for p in polys:
        assert p.lattice_width()[0] == brute_force_width(p)
