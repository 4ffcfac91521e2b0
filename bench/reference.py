"""A fixed reference computation, timed between benchmark items to follow the
machine's speed."""

import random
import time
from fractions import Fraction
from math import gcd

_RNG = random.Random(3)
_POINTS = [(_RNG.randint(-50, 50), _RNG.randint(-50, 50)) for _ in range(2000)]


def reference_time() -> float:
    """Seconds taken by fixed pure-Python work like the library's: a rational
    sum reduced with gcd, Gaussian elimination over Fraction, and sorting
    and counting tuples.  A mix tracks the machine's speed for all three
    workloads better than any one part does."""
    t0 = time.perf_counter()
    num, den = 0, 1
    for i in range(1, 250):
        num, den = num * i * (i + 2) + (i + 1) * den, den * i * (i + 2)
        g = gcd(num, den)
        num, den = num // g, den // g
    n = 9
    rows = [[Fraction((i * 7 + j * 13) % 17 - 8, 1 + (i + j) % 5) for j in range(n + 1)]
            for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    seen = {}
    for x, y in sorted(_POINTS):
        key = (x * 3 + y, y - x)
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - t0
