import random

import numpy as np
import pytest

from chowla.polymod import roots_mod_p

from helpers import simple_primes


def _scan(coeffs, p: int) -> list[int]:
    """Roots by plain evaluation at every residue (Horner over all of GF(p))."""
    t = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * t + c % p) % p
    return np.flatnonzero(acc == 0).tolist()


def _from_roots(roots, lead: int = 1) -> list[int]:
    """Lowest-first coefficients of lead * prod(t - r)."""
    out = [lead]
    for r in roots:
        out = [(out[i - 1] if i else 0) - r * (out[i] if i < len(out) else 0) for i in range(len(out) + 1)]
    return out


def _cases(p: int, rng: random.Random) -> list[list[int]]:
    big = 10 * p
    cases = [[rng.randint(-big, big) for _ in range(3)] + [rng.randint(1, big)] for _ in range(4)]
    # p | a: the cubic drops to a quadratic; p | a and p | b: to a line
    cases.append([rng.randint(-big, big), rng.randint(-big, big), rng.randint(1, p - 1), p * rng.randint(-3, 3)])
    cases.append([rng.randint(-big, big), rng.randint(1, p - 1), p * rng.randint(-3, 3), p * rng.randint(1, 3)])
    cases.append([rng.randint(1, p - 1), 0, 0, p])  # nonzero constant mod p: no roots
    # chosen roots: three distinct, one double, one triple, with a leading factor
    r1, r2, r3 = rng.sample(range(p), 3)
    cases.append(_from_roots((r1, r2, r3)))
    cases.append(_from_roots((r1, r2, r3), lead=rng.randint(2, p - 1)))
    cases.append(_from_roots((r1, r1, r2)))
    cases.append(_from_roots((r3, r3, r3), lead=-1))
    cases.append(_from_roots((r1 - p, r2 + 2 * p, r3 + 5 * p)))
    return cases


_SMALL = [p for p in simple_primes(97) if p >= 3]
_NEAR_3000 = [p for p in simple_primes(3089) if p >= 2903]
_NEAR_1E5 = [99961, 99971, 99989, 99991, 100003, 100019]
# p = 1 mod 2^9 ... 2^16: square roots take the long Tonelli-Shanks loop
_DEEP_2ADIC = [7681, 12289, 40961, 65537]


@pytest.mark.parametrize("p", _SMALL + _NEAR_3000 + _NEAR_1E5 + _DEEP_2ADIC)
def test_roots_mod_p_vs_scan(p):
    rng = random.Random(p)
    for coeffs in _cases(p, rng):
        assert roots_mod_p(coeffs, p) == _scan(coeffs, p), coeffs


def test_roots_mod_2_vs_scan():
    """Every polynomial of degree <= 3 with 0/1 coefficients, nonzero mod 2."""
    polys = [[n >> i & 1 for i in range(4)] for n in range(1, 16)]
    for coeffs in polys:
        assert roots_mod_p(coeffs, 2) == _scan(coeffs, 2), coeffs


def test_roots_mod_p_chosen_roots():
    for p in (7, 2999, 3001, 100003):
        assert roots_mod_p(_from_roots((1, 2, 5)), p) == [1, 2, 5]
        assert roots_mod_p(_from_roots((3, 3, 6), lead=4), p) == [3, 6]
        assert roots_mod_p(_from_roots((4, 4, 4)), p) == [4]
        assert roots_mod_p([0, 0, 0, 1], p) == [0]


@pytest.mark.parametrize("p", [2**31 + 11, 10**12 + 39])
def test_roots_mod_p_large_primes(p):
    """Primes too large to scan, both = 1 mod 3; cubics with known roots."""
    rng = random.Random(p)
    r1, r2, r3 = rng.sample(range(p), 3)
    lead = rng.randint(2, p - 1)
    n = next(n for n in iter(lambda: rng.randrange(2, p), None) if pow(n, (p - 1) // 2, p) == p - 1)
    c = next(c for c in iter(lambda: rng.randrange(2, p), None) if pow(c, (p - 1) // 3, p) != 1)
    assert roots_mod_p(_from_roots((r1, r2, r3), lead), p) == sorted((r1, r2, r3))
    assert roots_mod_p(_from_roots((r1, r2, r1)), p) == sorted((r1, r2))
    assert roots_mod_p(_from_roots((r3, r3, r3), lead), p) == [r3]
    # (t - r1)(t^2 - n) with n a non-residue: one root
    assert roots_mod_p([r1 * n, -n, -r1, 1], p) == [r1]
    # t^3 - c with c a non-cube: no root
    assert roots_mod_p([-c, 0, 0, 1], p) == []
    # t^3 - r1^3: roots r1, zeta*r1, zeta^2*r1, with zeta a primitive cube root of 1
    zeta = pow(c, (p - 1) // 3, p)
    pure = (r1, zeta * r1 % p, zeta * zeta * r1 % p)
    assert roots_mod_p(_from_roots(pure), p) == sorted(pure)
    # p | a: the quadratic left over has two, one or no roots
    assert roots_mod_p(_from_roots((r1, r2), lead) + [7 * p], p) == sorted((r1, r2))
    assert roots_mod_p(_from_roots((r2, r2)) + [-p], p) == [r2]
    assert roots_mod_p([-n, 0, 1, p], p) == []


@pytest.mark.parametrize("p", [5, 2999, 3001, 99991])
def test_roots_mod_p_rejects_vanishing(p):
    for coeffs in ([0, 0, 0, 0], [p, -2 * p, 3 * p, p], [0, 0, 0, p]):
        with pytest.raises(ValueError):
            roots_mod_p(coeffs, p)
