"""Word-sized primes, largest first, and the Chinese remainder step: the
modular core of the kernels in `linsys` and the resultants in `laurent`."""

from functools import lru_cache
from itertools import count


def _is_prime(n: int) -> bool:
    """Miller-Rabin for odd n > 7 with bases 2, 3, 5, 7: exact below 3.2e9."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _word_prime(i: int) -> int:
    """The i-th prime below 2**31, largest first; found once per process."""
    n = (_word_prime(i - 1) if i else 2**31 + 1) - 2
    while not _is_prime(n):
        n -= 2
    return n


def _word_primes():
    return map(_word_prime, count())


def crt_step(x, mod: int, r, p: int):
    """The residue mod `mod` * p that is x mod `mod` and r mod p; x and r are
    integers or object arrays of them, and p is a prime not dividing `mod`."""
    return x + mod * ((r - x) * pow(mod, -1, p) % p)
