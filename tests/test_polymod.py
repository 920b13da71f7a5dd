import itertools
import math
import random

import numpy as np
import pytest

from chowla.polymod import factor_cubic_mod_p, roots_mod_p, roots_mod_primes
from chowla.primes import is_prime

from helpers import scalar_roots_mod_p, simple_primes


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
# p = 1 mod 2^9 ... 2^16, where p - 1 is highly even
_DEEP_2ADIC = [7681, 12289, 40961, 65537]


def _lanes(coeffs, primes, dtype=np.int64) -> tuple[list[int], list[int]]:
    pair_p, pair_r = roots_mod_primes(coeffs, np.array(primes, dtype=np.int64))
    assert pair_p.dtype == pair_r.dtype == dtype
    return pair_p.tolist(), pair_r.tolist()


@pytest.mark.parametrize("p", _SMALL + _NEAR_3000 + _NEAR_1E5 + _DEEP_2ADIC)
def test_roots_mod_p_vs_scan(p):
    """roots_mod_p and a one-lane roots_mod_primes call against the scan."""
    rng = random.Random(p)
    for coeffs in _cases(p, rng):
        want = _scan(coeffs, p)
        assert roots_mod_p(coeffs, p) == want, coeffs
        assert _lanes(coeffs, [p]) == ([p] * len(want), want), coeffs


def test_split_cubics_vs_scan_to_19():
    """Every monic cubic with three distinct roots mod each prime up to 19:
    the lanes need two distinct roots from the shifts, and the sum gives
    the third."""
    calls = 0
    for p in simple_primes(19):
        for roots in itertools.combinations(range(p), 3):
            coeffs = _from_roots(roots)
            assert roots_mod_p(coeffs, p) == _scan(coeffs, p) == list(roots), (p, roots)
            calls += 1
    assert calls == 2146


def test_roots_mod_2_vs_scan():
    """Every polynomial of degree <= 3 with 0/1 coefficients, nonzero mod 2."""
    polys = [[n >> i & 1 for i in range(4)] for n in range(1, 16)]
    for coeffs in polys:
        want = _scan(coeffs, 2)
        assert roots_mod_p(coeffs, 2) == want, coeffs
        assert _lanes(coeffs, [2]) == ([2] * len(want), want), coeffs


def test_roots_mod_p_chosen_roots():
    for p in (7, 2999, 3001, 100003):
        assert roots_mod_p(_from_roots((1, 2, 5)), p) == [1, 2, 5]
        assert roots_mod_p(_from_roots((3, 3, 6), lead=4), p) == [3, 6]
        assert roots_mod_p(_from_roots((4, 4, 4)), p) == [4]
        assert roots_mod_p([0, 0, 0, 1], p) == [0]


_PAST_INT64_LANES = [2**31 + 11, 4294967311, 10**12 + 39, 2**61 - 1]


@pytest.mark.parametrize("p", _PAST_INT64_LANES)
def test_roots_mod_p_large_primes(p):
    """Primes too large to scan, all = 1 mod 3; cubics with known roots."""
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


@pytest.mark.parametrize("p", _PAST_INT64_LANES)
def test_roots_mod_p_vs_scalar_past_int64_lanes(p):
    """The Python-int lanes against the scalar reference on random cubics,
    some with p | a, and on cubics with chosen roots."""
    rng = random.Random(p)
    for _ in range(40):
        coeffs = [rng.randint(-p, p) for _ in range(3)] + [rng.choice([1, 2 * p, rng.randint(1, p)])]
        roots, lead = rng.sample(range(p), 3), rng.randint(1, p - 1)
        for f in (coeffs, _from_roots(roots, lead), _from_roots(roots[:2], lead) + [p]):
            assert roots_mod_p(f, p) == scalar_roots_mod_p(f, p), f


def test_factor_cubic_mod_p_wants_a_cubic_mod_p():
    assert factor_cubic_mod_p([1, 0, 0, 1], 5) == ([(4, 1)], 2)
    with pytest.raises(ValueError, match="stays cubic"):
        factor_cubic_mod_p([1, 0, 0, 5], 5)


@pytest.mark.parametrize("p", [5, 2999, 3001, 99991])
def test_roots_mod_p_rejects_vanishing(p):
    for coeffs in ([0, 0, 0, 0], [p, -2 * p, 3 * p, p], [0, 0, 0, p]):
        with pytest.raises(ValueError):
            roots_mod_p(coeffs, p)


# ---------------------------------------------------------------- root lanes


def _loop(coeffs, primes) -> tuple[list[int], list[int]]:
    """The scalar reference at each prime, flattened as the lanes are."""
    pairs = [(p, r) for p in primes for r in scalar_roots_mod_p(coeffs, p)]
    return [p for p, _ in pairs], [r for _, r in pairs]


# lowest degree first
_LANE_FORMS = (
    [2, 0, 0, 1],  # x^3 + 2y^3, pure: delta = 0 never splits it
    [1, -3, 0, 1],  # x^3 - 3xy^2 + y^3, cyclic: a third of the primes split it completely
    [-5, 2, -1, 3],  # non-monic, negative coefficients, 3 | a
    [1, 10, 35, 55],  # mod 5 a nonzero constant, mod 11 a quadratic
    # p | a for p <= 13; p | b too for p = 2, 3, 5, where a line (mod 2) or a
    # nonzero constant (mod 3, 5) is left
    [7, -3 * 5 * 7, 2 * 3 * 5, -2 * 3 * 5 * 7 * 11 * 13],
)


def _seeded_forms(rng: random.Random, count: int) -> list[list[int]]:
    """Content-1 forms with negative coefficients whose a is divisible by primes
    up to 13 and past them."""
    forms = []
    while len(forms) < count:
        lead = rng.choice([1, -1, 6, -35, 1009, -2 * 3 * 5 * 7, 11 * 13 * 17 * 19 * 23])
        coeffs = [rng.randint(-10**6, 10**6) for _ in range(3)] + [lead * rng.randint(1, 50)]
        if math.gcd(*coeffs) == 1:
            forms.append(coeffs)
    return forms


def test_roots_mod_primes_vs_loop_to_20000():
    """One call over every prime up to 20,000 equals the scalar per-prime loop."""
    primes = simple_primes(20000)
    for coeffs in list(_LANE_FORMS) + _seeded_forms(random.Random(1981), 8):
        assert _lanes(coeffs, primes) == _loop(coeffs, primes), coeffs


_LANE_EDGE = [2**31 - 1, 2147483629]
_PAST_LANES = 2147483659  # the first prime past the int64 lanes


def test_roots_mod_primes_exact_range_edge():
    """The largest primes the int64 lanes take and the first prime past
    them, with chosen roots, each in one call with a small prime: past 2^31
    the lanes hold Python ints instead of wrapping."""
    rng = random.Random(2**31)
    for p in _LANE_EDGE + [_PAST_LANES]:
        assert is_prime(p)
        r1, r2, r3 = rng.sample(range(p), 3)
        lead = rng.randint(2, p - 1)
        c = next(c for c in iter(lambda: rng.randrange(2, p), None) if pow(c, (p - 1) // 3, p) != 1)
        zeta = pow(c, (p - 1) // 3, p)  # a primitive cube root of 1
        pure = (r1, zeta * r1 % p, zeta * zeta * r1 % p)
        cases = [
            ((r1, r2, r3), _from_roots((r1, r2, r3), lead)),
            ((r1, r2), _from_roots((r1, r1, r2), lead)),
            ((r3,), _from_roots((r3, r3, r3))),
            (pure, _from_roots(pure)),
            ((r1, r2), _from_roots((r1, r2), lead) + [5 * p]),  # p | a
            ((r2,), _from_roots((r2, r2)) + [-p]),
        ]
        dtype = np.int64 if p < 2**31 else object
        for roots, coeffs in cases:
            coeffs = [k % p for k in coeffs]  # int64 lanes take int64 coefficients
            want = sorted(set(roots))
            small = _scan(coeffs, 7)
            assert roots_mod_p(coeffs, p) == want
            assert _lanes(coeffs, [7, p], dtype) == ([7] * len(small) + [p] * len(want), small + want), roots
    # small coefficients serve both primes in one call
    assert _lanes(_from_roots((1, 2, 5), lead=3), _LANE_EDGE) == (
        [_LANE_EDGE[0]] * 3 + [_LANE_EDGE[1]] * 3,
        [1, 2, 5, 1, 2, 5],
    )
    # so does a coefficient past int64, at small primes
    assert _lanes([2 + 3 * 5 * 7 * 2**70, 0, 0, 1], [3, 5, 7], object) == _lanes([2, 0, 0, 1], [3, 5, 7])


def test_roots_mod_primes_rejects_vanishing():
    with pytest.raises(ValueError):
        roots_mod_primes([5, -10, 15, 5], np.array([2, 3, 5, 7], dtype=np.int64))
    assert _lanes([5, -10, 15, 5], []) == ([], [])
