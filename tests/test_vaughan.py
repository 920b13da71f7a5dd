"""Tests for the seven-window divisor identity and the flip/pairing lemmas
on divisor Mobius sums."""

import itertools
import random
from fractions import Fraction

import pytest

from chowla import (
    VaughanParams,
    pairing_bound,
    prime_ideals_up_to,
    verify_groupings,
    verify_identity,
    window_flip,
)
from chowla.ideal_arith import Ideal, mu_ideal, norm, tau
from chowla.vaughan import _windows, beta_all, combine

from helpers import (
    beta_all_oracle,
    divisors,
    groupings_oracle,
    rad,
    random_ideal,
    split_S,
    sum_star_pairs,
)


@pytest.fixture(scope="module")
def pools(K2, K23):
    return [
        (K2, prime_ideals_up_to(K2, 80)),
        (K23, prime_ideals_up_to(K23, 80)),
    ]


# ------------------------------------------------------------- star pairs


def _brute_star_pairs(a, Q):
    divs = list(divisors(a))
    out = set()
    for b in divs:
        for c in divs:
            bc = b * c
            if not bc.divides(a):
                continue
            if any(b.valuation(q) != a.valuation(q) for q in Q):
                continue
            out.add((b, c))
    return out


def test_split_S(K2):
    q1, q2 = sorted(prime_ideals_up_to(K2, 40))[::5][:2]
    a = Ideal.prime(q1, 3) * Ideal.prime(q2)
    assert split_S(a, [q1]) == (Ideal.prime(q1, 3), Ideal.prime(q2))
    assert split_S(a, []) == (Ideal.unit(), a)


def test_sum_star_pairs_matches_brute(pools):
    rng = random.Random(101)
    for trial in range(120):
        K, primes = pools[trial % 2]
        a = random_ideal(rng, primes, max_primes=3, max_exp=2)
        qs = [q for q, _ in a.factors]
        Q = rng.sample(qs, k=min(len(qs), rng.randint(0, 2)))
        if rng.random() < 0.3:  # a prime avoiding a: its Q-part is empty
            Q.append(rng.choice(primes))
        got = list(sum_star_pairs(a, Q))
        assert len(got) == len(set(got))  # no pair repeats
        assert set(got) == _brute_star_pairs(a, Q)


def test_beta_all_divisor_cap(pools):
    _, primes = pools[0]
    a = Ideal.from_factors([(q, 1) for q in primes[:17]])
    assert tau(a) == 1 << 17
    calls = []
    with pytest.raises(ValueError, match="exceeds the cap"):
        beta_all(a, calls.append, VaughanParams.make(2, 10, 50))
    assert calls == []  # the cap is checked before h is called


# ------------------------------------------------------------- one walk


def _recording_h():
    """h with per-ideal values independent of call order; ``order`` lists
    the distinct ideals in the order h first saw them."""
    memo, order = {}, []

    def h(b):
        if b not in memo:
            memo[b] = random.Random(repr(b)).randint(-5, 5)
            order.append(b)
        return memo[b]

    return h, order


def _assert_walk_matches_oracle(a, P):
    h_new, seen_new = _recording_h()
    h_old, seen_old = _recording_h()
    betas, high, low = _windows(a, h_new, P)
    assert betas == beta_all_oracle(a, h_old, P), (a, P)
    assert seen_new == seen_old, (a, P)
    assert (high, low) == groupings_oracle(a, h_old, P), (a, P)
    assert beta_all(a, h_new, P) == betas
    assert verify_groupings(a, h_new, P), (a, P)


def _occurring_cuts(rng, a, Q):
    """Integer cuts y <= u <= w with u = N(b) and y = N(c) for star pairs."""
    pairs = [(norm(b), norm(c)) for b, c in sum_star_pairs(a, Q) if mu_ideal(c)]
    u = rng.choice([nb for nb, _ in pairs])
    y = rng.choice([nc for _, nc in pairs if nc <= u])
    w = rng.choice([n for n in itertools.chain(*pairs) if n >= u])
    return y, u, w


def test_windows_match_oracle(pools):
    rng = random.Random(606)
    for trial in range(160):
        _, primes = pools[trial % 2]
        a = random_ideal(rng, primes, max_primes=4, max_exp=3)
        qs = [q for q, _ in a.factors]
        Q = [] if trial % 4 == 0 else rng.sample(qs, k=min(len(qs), rng.randint(0, 2)))
        if trial % 4 == 3:  # a prime a avoids adds nothing to the Q-part
            Q.append(rng.choice([q for q in primes if q not in qs]))
        if trial % 2:
            cuts = _occurring_cuts(rng, a, Q)
        else:
            cuts = sorted(Fraction(rng.randint(1, 900), rng.randint(2, 7)) for _ in range(3))
        _assert_walk_matches_oracle(a, VaughanParams.make(*cuts, Q))


def test_windows_match_oracle_edge_cases(pools):
    _, primes = pools[0]
    unit_cuts = ((2, 10, 50), (Fraction(1, 2), 1, 1), (1, 1, 1), (Fraction(1, 3), Fraction(2, 3), 1))
    for cuts, Q in itertools.product(unit_cuts, ((), primes[:1])):
        _assert_walk_matches_oracle(Ideal.unit(), VaughanParams.make(*cuts, Q))
    # tau = 4^6 = 4096, half of it fixed by Q
    a = Ideal.from_factors((q, 3) for q in primes[:6])
    assert tau(a) == 4096
    rng = random.Random(707)
    wide_cuts = (Fraction(7, 2), Fraction(10**5, 3), 10**9 + Fraction(1, 2))
    for Q in (primes[:3], primes[3:6:2] + primes[-1:]):
        _assert_walk_matches_oracle(a, VaughanParams.make(*_occurring_cuts(rng, a, Q), Q))
        _assert_walk_matches_oracle(a, VaughanParams.make(*wide_cuts, Q))


# ------------------------------------------------------------- identity


def test_unit_ideal_window_values():
    u = Ideal.unit()
    P = VaughanParams.make(2, 10, 50)
    assert beta_all(u, lambda a: 3, P) == [6, 0, 0, 0, 3, 0, 0]
    # with y < 1 the unit pair lands in window 7 instead of 5
    P_low = VaughanParams.make(Fraction(1, 2), 10, 50)
    assert beta_all(u, lambda a: 3, P_low) == [6, 0, 0, 0, 0, 0, 3]
    assert combine(beta_all(u, lambda a: 3, P)) == 3
    assert combine(beta_all(u, lambda a: 3, P_low)) == 3


def _random_cuts(rng):
    vals = sorted(Fraction(rng.randint(1, 600), rng.choice((1, 1, 2, 4))) for _ in range(3))
    return vals[0], vals[1], vals[2]


def test_identity_and_groupings_randomized(pools):
    rng = random.Random(202)
    for trial in range(150):
        K, primes = pools[trial % 2]
        a = random_ideal(rng, primes, max_primes=3, max_exp=2)
        y, u, w = _random_cuts(rng)
        qs = [q for q, _ in a.factors]
        Q = rng.sample(qs, k=min(len(qs), rng.randint(0, 2)))
        P = VaughanParams.make(y, u, w, Q)
        memo = {}

        def h(b):
            if b not in memo:
                memo[b] = rng.randint(-5, 5)
            return memo[b]

        assert verify_identity(a, h, P), (a, y, u, w)
        assert verify_groupings(a, h, P), (a, y, u, w)


def test_identity_with_fraction_values(pools):
    # exact rational h keeps every comparison exact
    rng = random.Random(303)
    _, primes = pools[0]
    for _ in range(30):
        a = random_ideal(rng, primes, max_primes=3, max_exp=2)
        P = VaughanParams.make(*_random_cuts(rng))
        assert verify_identity(a, lambda b: Fraction(1, 1 + norm(b)), P)


# ------------------------------------------------------------- flip


def test_window_flip_frozen_examples(K2):
    ps = {p.norm: p for p in prime_ideals_up_to(K2, 30)}
    fr = window_flip(Ideal.prime(ps[3]), 1)
    assert (fr.lhs, fr.rhs, fr.mu_total) == (-1, -1, 0)
    assert fr.ok
    fr2 = window_flip(Ideal.prime(ps[3], 2), 2)
    assert (fr2.lhs, fr2.rhs, fr2.mu_total) == (-1, -1, 0)
    assert fr2.ok


def test_window_flip_randomized(pools):
    rng = random.Random(404)
    for trial in range(200):
        _, primes = pools[trial % 2]
        e = random_ideal(rng, primes, max_primes=3, max_exp=2, nonunit=True)
        u = Fraction(rng.randint(1, 1000), rng.randint(1, 10))
        rec = window_flip(e, u)
        assert rec.ok, (e, u, rec)


def test_flip_and_pairing_match_divisor_walk(pools):
    """Both read N(c) and mu(c) off exponent vectors; here every divisor is
    built as an ideal instead, with Fraction cuts, and the exact tallies
    must agree."""
    rng = random.Random(606)
    for trial in range(150):
        _, primes = pools[trial % 2]
        e = random_ideal(rng, primes, max_primes=4, max_exp=3, nonunit=True)
        u = Fraction(rng.randint(1, 3000), rng.randint(1, 7))
        cut = Fraction(norm(rad(e))) / u
        divs = [(norm(c), mu_ideal(c)) for c in divisors(e)]
        lhs = sum(m for n, m in divs if n > u)
        rhs = mu_ideal(rad(e)) * sum(m for n, m in divs if n < cut)
        rec = window_flip(e, u)
        assert (rec.lhs, rec.rhs, rec.mu_total) == (lhs, rhs, sum(m for _, m in divs)), (e, u)
        y = Fraction(rng.randint(1, 3000), rng.randint(1, 7))
        l = max(q.norm for q, _ in e.factors)
        acc = sum(m for n, m in divs if n <= y)
        window = sum(1 for n, _ in divs if y / l < n <= y)
        assert pairing_bound(e, y, l) == (abs(acc), window), (e, y, l)


def test_window_flip_rejects_unit():
    with pytest.raises(ValueError, match="non-unit"):
        window_flip(Ideal.unit(), 2)


# ------------------------------------------------------------- pairing


def test_pairing_bound_frozen_example(K2):
    ps = {p.norm: p for p in prime_ideals_up_to(K2, 30)}
    e = Ideal.prime(ps[3]) * Ideal.prime(ps[5])
    # partial sum 1 - 1 - 1 = -1; window (5/3, 5] holds norms 3 and 5
    assert pairing_bound(e, 5, 3) == (1, 2)


def test_pairing_bound_randomized(pools):
    rng = random.Random(505)
    for trial in range(200):
        _, primes = pools[trial % 2]
        e = random_ideal(rng, primes, max_primes=3, max_exp=2, nonunit=True)
        l = max(q.norm for q, _ in e.factors)
        y = Fraction(rng.randint(1, 2000), rng.randint(1, 8))
        lhs, rhs = pairing_bound(e, y, l)
        assert lhs <= rhs, (e, y, l)


def test_pairing_bound_requires_small_prime(K2):
    ps = {p.norm: p for p in prime_ideals_up_to(K2, 30)}
    with pytest.raises(ValueError, match="no prime divisor"):
        pairing_bound(Ideal.prime(ps[5]), 5, 3)
