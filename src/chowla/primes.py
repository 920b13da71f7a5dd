"""Integer primality and factorization helpers shared by the sieve and ideal layers."""
from __future__ import annotations

import math

import numpy as np

from .cubic_form import ExactRangeError

# trial division by 2, 3, 5 and the 6k+-1 wheel stops below this bound
_WHEEL_BOUND = 70000

# Deterministic Miller-Rabin: the first k prime bases admit no strong
# pseudoprime below psi_k (Sorenson and Webster, Math. Comp. 2017), so each
# witness set is exact below its bound; _MR_LIMIT is psi_13.
_MR_WITNESSES = (
    (3_215_031_751, (2, 3, 5, 7)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)
_MR_LIMIT = _MR_WITNESSES[-1][0]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 < n < 3.3e24, witnesses picked by size."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality test out of deterministic range: {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES[-1][1]:
        if n % p == 0:
            return n == p
    bases = next(w for bound, w in _MR_WITNESSES if n < bound)
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_int(n: int) -> list[tuple[int, int]]:
    """Full factorization of n > 0 as sorted (prime, exponent) pairs.

    Exact by trial division below _WHEEL_BOUND plus a primality test of what
    is left; a composite remainder (n >= 70003**2), or one past the test's
    range, raises ExactRangeError.
    """
    if n <= 0:
        raise ValueError("factor_int wants n > 0")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # wheel over 6k+-1 below a fixed bound; what is left is 1, a prime, or out of range
    d = 7
    while d * d <= n and d < _WHEEL_BOUND:
        for q in (d, d + 4):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        d += 6
    if n > 1:
        if n >= _MR_LIMIT:
            raise ExactRangeError(f"factor_int: cofactor {n} is past the primality test's range")
        if not is_prime(n):
            raise ExactRangeError(
                f"factor_int: composite cofactor {n} has no prime factor below {_WHEEL_BOUND}"
            )
        out[n] = out.get(n, 0) + 1
    return sorted(out.items())


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (plain Eratosthenes)."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)
