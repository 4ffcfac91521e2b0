"""Linear systems of Laurent polynomials with prescribed vanishing at (1, 1).

L(poly, m) is the space of Laurent polynomials supported on the lattice
points of the polygon vanishing to order at least m at the identity of the
torus.  Condition (a, b), a + b <= m - 1, is the row of binomials
C(p - x0, a) C(q - y0, b) over the lattice points (p, q), with (x0, y0) the
lower-left corner of the bounding box: the order-(a, b) derivative at (1, 1),
divided by a! b!, of the polynomial moved into the first quadrant by a
monomial, which keeps its vanishing order there.  Row (a, b) vanishes at
the points with p < x0 + a, so the matrix is sparse: elimination mod a prime
runs forward only, pivots on the row whose nonzeros end first to limit fill
(Markowitz 1957), and back-substitutes on the free columns alone.

Kernels take one exact route, modulo word-sized primes, and each answer
carries an integer certificate.  The primes and the Chinese remainder step
come from `modular`, which the resultants in `laurent` share.  Rank mod p
is a lower bound for the rank over Q, so full column rank mod one prime
proves the system empty.  Otherwise the reduced pivot rows, restricted to
the free columns, are combined by Chinese remaindering over the primes that
agree on the highest rank and the earliest pivots, then lifted by rational
reconstruction.  The lift is accepted once its vectors, denominators
cleared, satisfy M x = 0 over the integers: there is one per free column,
independent, as many as the nullity bound the rank mod p gives, so they
span the kernel.  Since the columns are eliminated right to left, these
vectors are already the RREF rows of the kernel, scaled to coprime
integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd, isqrt, lcm, prod

import numpy as np

from .errors import RangeError
from .laurent import LaurentPolynomial
from .modular import _word_primes, crt_step
from .polygon import LatticePolygon

_POINT_LIMIT = 5_000  # most lattice points a system is solved on: m = 1 takes 0.4 GB there


def condition_matrix(points, m: int) -> list[list[int]]:
    """Rows indexed by (a, b), a + b <= m - 1, a <= x-span and b <= y-span;
    columns by lattice points.  The rows left out are zero, as C(k, a) = 0
    for 0 <= k < a."""
    xs, ys = [p for p, _ in points], [q for _, q in points]
    x0, y0 = min(xs, default=0), min(ys, default=0)
    cx = [[comb(p - x0, a) for p in xs] for a in range(min(m, max(xs, default=0) - x0 + 1))]
    cy = [[comb(q - y0, b) for q in ys] for b in range(min(m, max(ys, default=0) - y0 + 1))]
    return [[u * v for u, v in zip(cx[a], cy[b])]
            for a in range(len(cx)) for b in range(min(m - a, len(cy)))]


@dataclass(frozen=True)
class LinearSystem:
    """Exact kernel of the vanishing conditions.  The basis rows are the
    integer RREF rows of the kernel: each is primitive, with a positive lead,
    which is the lcm of the row's denominators."""

    polygon: LatticePolygon
    order: int
    points: tuple[tuple[int, int], ...]
    basis: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def conditions(self) -> int:
        return self.order * (self.order + 1) // 2

    def members(self) -> tuple[LaurentPolynomial, ...]:
        return tuple(
            LaurentPolynomial({e: c for e, c in zip(self.points, vec) if c})
            for vec in self.basis
        )

    def is_empty(self) -> bool:
        return not self.basis


def expected_dimension(poly: LatticePolygon, m: int) -> int:
    """|poly ∩ Z²| − m(m+1)/2, a lower bound on dim L(poly, m): the kernel of
    m(m+1)/2 conditions on that many coefficients.  A positive count proves
    the system nonempty without solving it."""
    if m < 1:
        raise RangeError("vanishing order must be at least 1")
    return poly.lattice_counts()[0] - m * (m + 1) // 2


def _reduce_mod(ints: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Forward elimination mod a prime p < 2**31: (pivot columns, free block),
    the reduced pivot rows in the free columns.

    Entries stay in [0, p), so each product is reduced below 2**62 before it
    is subtracted.  tail[i] bounds the last nonzero column of row i.  Column
    c pivots on a hit (a row with a nonzero there) of least tail, so every
    other hit's tail still bounds it after the update, which spans rows
    r + 1 to the last hit and columns c to tail[r].  The reduced rows are
    unique, so this choice changes neither output.
    """
    a = (ints % p).astype(np.int64)
    nrows, ncols = a.shape
    tail = ncols - 1 - (a[:, ::-1] != 0).argmax(1)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        hit = np.flatnonzero(a[r:, c])
        if not hit.size:
            continue
        i = r + int(hit[tail[r + hit].argmin()])
        if i != r:
            a[r], a[i] = a[i], a[r].copy()
            tail[r], tail[i] = tail[i], tail[r]
        t = int(tail[r]) + 1
        row = a[r, c:t]
        row *= pow(int(row[0]), -1, p)
        row %= p
        pivots.append(c)
        if hit.size > 1:
            below = a[r + 1:r + int(hit[-1]) + 1, c:t]
            below -= below[:, :1] * row % p
            below %= p
    block = np.delete(a[:len(pivots)], pivots, axis=1)
    if block.size:
        for k in range(len(pivots) - 1, 0, -1):
            block[:k] = (block[:k] - a[:k, pivots[k], None] * block[k] % p) % p
    return pivots, block


def _rational_reconstruct(a: int, mod: int) -> tuple[int, int] | None:
    """Lift a mod `mod` to n/d in lowest terms, returned as (n, d) with d > 0
    and |n|, d <= sqrt(mod / 2)."""
    bound = isqrt(mod // 2)
    r0, r1 = mod, a % mod
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or gcd(r1, abs(s1)) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _lift(residues: np.ndarray, mod: int, pivots: list[int],
          free: list[int]) -> list[list[int]] | None:
    """One integer kernel vector per free column, from the residues of the
    pivot rows in the free columns; None while some entry has no lift."""
    basis = []
    for j, f in enumerate(free):
        col = []
        for v in residues[:, j]:
            q = _rational_reconstruct(int(v), mod)
            if q is None:
                return None
            col.append(q)
        den = lcm(*(d for _, d in col))
        vec = [0] * (len(pivots) + len(free))
        vec[f] = den
        for c, (n, d) in zip(pivots, col):
            vec[c] = -n * (den // d)
        basis.append(vec)
    return basis


def _kernel(mat: list[list[int]], primes=None) -> list[list[int]]:
    """The RREF rows of {x : M x = 0} over Q, each scaled to integers;
    `primes` defaults to the stream of primes below 2**31.

    Columns are eliminated right to left.  Then the vector of each free
    column, zero on the other free columns, is zero left of its own column
    too: it is an RREF row of the kernel.  Every minor is at most the
    Hadamard bound h = prod max(1, |row|), so the unlucky primes multiply to
    at most h and the lift needs 2 h^2: once the primes tried pass 2 h^3,
    the check must have passed, and a failure is an error.  h is found only
    when two primes have left no answer, so most kernels never pay for it.
    """
    exact = np.array(mat, dtype=object)[:, ::-1]
    ncols = exact.shape[1]
    best, tried, limit = None, 1, None
    for k, p in enumerate(_word_primes() if primes is None else primes):
        if k == 2:
            h = isqrt(prod(max(1, sum(x * x for x in row)) for row in mat)) + 1
            limit = 2 * h ** 3
        if limit is not None and tried > limit:
            raise ArithmeticError("kernel: the integer check failed past the bound")
        tried *= p
        pivots, block = _reduce_mod(exact, p)
        if len(pivots) == ncols:
            return []  # rank over Q >= rank mod p = ncols
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, crt, mod = key, 0, 1  # restart: any earlier primes were unlucky
        elif key != best:
            continue  # this prime is unlucky
        free = sorted(set(range(ncols)).difference(pivots))
        crt = crt_step(crt, mod, block.astype(object), p)
        mod *= p
        basis = _lift(crt, mod, pivots, free)
        if basis is not None and not exact.dot(np.array(basis, dtype=object).T).any():
            return [vec[::-1] for vec in reversed(basis)]
    raise ArithmeticError("kernel: primes ran out before the integer check passed")


@lru_cache(maxsize=256)
def compute_system(poly: LatticePolygon, m: int) -> LinearSystem:
    """Exact basis of L(poly, m); m >= 1, on at most _POINT_LIMIT lattice points."""
    if m < 1:
        raise RangeError("vanishing order must be at least 1")
    if poly.lattice_counts()[0] > _POINT_LIMIT:
        raise RangeError(f"{poly.lattice_counts()[0]} lattice points pass the limit {_POINT_LIMIT}")
    points = tuple(poly.lattice_points())
    basis = _kernel(condition_matrix(points, m))
    return LinearSystem(poly, m, points, tuple(map(tuple, basis)))

