"""Tests for truncated Mobius sieve weights, the main/tail split, and the
exact anti-sieve decomposition of windowed pair sums."""

import math
import random
from fractions import Fraction

import pytest

from chowla import (
    anti_sieve_split,
    brun_pure_weights,
    buchstab_split,
    integer_brun_weights,
    prime_ideals_up_to,
    sieve_weights,
)
from chowla.ideal_arith import Ideal, mu_ideal, norm
from chowla.sieve_weights import IntegerWeights, SieveWeights, default_depth, sieve_value

from helpers import random_ideal, simple_primes, trial_factor, truncated_mobius_oracle


@pytest.fixture(scope="module")
def pool2(K2):
    return prime_ideals_up_to(K2, 40)


@pytest.fixture(scope="module")
def pool23(K23):
    return prime_ideals_up_to(K23, 40)


# ------------------------------------------------------------- depth


def test_default_depth_frozen_values():
    assert default_depth(100) == 6
    assert default_depth(1e6) == 8
    assert default_depth(3) == 4
    assert default_depth(2) == 2
    for cut in (10, 100, 1e4, 1e9, 1e12):
        d = default_depth(cut)
        assert d % 2 == 0 and d >= 2


# ------------------------------------------------------------- weights


def test_brun_weights_are_truncated_mobius(pool2):
    W = brun_pure_weights(pool2, 200)
    assert W.weight(Ideal.unit()) == 1
    assert W.truncation_level == default_depth(200) == 6
    for d, wt in W.weights.items():
        if d.is_unit:
            continue
        assert all(e == 1 for _, e in d.factors)  # squarefree
        assert all(q in W.P for q, _ in d.factors)
        assert norm(d) <= 200
        assert len(d.factors) <= W.truncation_level
        assert wt == mu_ideal(d) in (-1, 1)
    # maximality: every admissible squarefree product is present
    singles = [q for q in pool2 if q.norm <= 200]
    assert all(Ideal.prime(q) in W.weights for q in singles)


def test_brun_tables_vs_brute_force(pool2, pool23):
    """Both tables, over prime ideals (not sorted by norm) and over rational
    primes, are every set of at most depth primes whose (norm) product is
    at most the cut, weighted (-1)^size."""
    rng = random.Random(4242)
    pools = [pool2, pool23]
    for trial in range(48):
        depth = (0, 2, 4, 6)[trial % 4]
        P = rng.sample(pools[trial % 2], k=rng.randint(0, 8))
        cut = math.inf if trial % 3 == 0 else rng.randint(1, 3000)
        W = brun_pure_weights(P, cut, depth)
        want = truncated_mobius_oracle(
            sorted(set(P)), lambda q: q.norm, cut, depth, lambda s: Ideal.from_factors((q, 1) for q in s)
        )
        assert W.weights == want, (P, cut, depth)
        lo, icut = rng.randint(0, 12), rng.randint(1, 150)
        ps = [p for p in simple_primes(icut) if p > lo]
        Wi = integer_brun_weights(lo, icut, depth)
        assert Wi.weights == truncated_mobius_oracle(ps, int, icut, depth, math.prod), (lo, icut, depth)


def test_weight_cap_guards_both_tables(pool2, monkeypatch):
    assert len(brun_pure_weights(pool2, math.inf, depth=2).weights) > 20
    assert len(integer_brun_weights(1, 100, 2).weights) > 20
    monkeypatch.setattr(sieve_weights, "_WEIGHT_CAP", 20)
    with pytest.raises(ValueError, match="weight table too large"):
        brun_pure_weights(pool2, math.inf, depth=2)
    with pytest.raises(ValueError, match="weight table too large"):
        integer_brun_weights(1, 100, 2)


def test_brun_weights_reject_odd_depth(pool2):
    with pytest.raises(ValueError, match="even truncation depth"):
        brun_pure_weights(pool2, 100, depth=3)


def test_sieve_value_upper_bound(pool2, pool23):
    # even-depth truncation with no norm cut dominates the coprime indicator
    rng = random.Random(606)
    pools = [pool2, pool23]
    for trial in range(200):
        primes = pools[trial % 2]
        P = rng.sample(primes, k=rng.randint(1, min(6, len(primes))))
        W = brun_pure_weights(P, math.inf, depth=rng.choice((2, 4, 6)))
        b = random_ideal(rng, primes, max_primes=4, max_exp=2)
        s = sieve_value(W, b)
        coprime = all(q not in W.P for q, _ in b.factors)
        if coprime:
            assert s == 1
        else:
            assert s >= 0


def test_sieve_value_untruncated_is_indicator(pool2):
    # depth at least omega(b) makes the weighted sum exactly the indicator
    rng = random.Random(707)
    W = brun_pure_weights(pool2, math.inf, depth=8)
    for _ in range(60):
        b = random_ideal(rng, pool2, max_primes=4, max_exp=2)
        expected = 1 if all(q not in W.P for q, _ in b.factors) else 0
        assert sieve_value(W, b) == expected


# ------------------------------------------------------------- buchstab


def test_buchstab_split_telescopes(pool2, pool23):
    rng = random.Random(808)
    pools = [pool2, pool23]
    for trial in range(150):
        primes = pools[trial % 2]
        cut = rng.randint(20, 300)
        W = brun_pure_weights(primes, cut, depth=rng.choice((2, 4, 6)))
        b = random_ideal(rng, primes, max_primes=4, max_exp=2)
        main, tail = buchstab_split(W, b)
        assert main - tail == 1
        assert main == sieve_value(W, b)


def test_buchstab_window_leak_raises(pool2):
    # a lower gap above the smallest support norm makes the window leak
    brun = brun_pure_weights(pool2, 200)
    W = SieveWeights(brun.weights, brun.P, 10, brun.upper_cut, brun.truncation_level)
    b = Ideal.prime(pool2[0])
    with pytest.raises(ValueError, match="leaks outside the window"):
        buchstab_split(W, b)


def test_buchstab_corrupt_unit_weight_raises():
    W = SieveWeights({Ideal.unit(): 2}, frozenset(), 1, 10, 2)
    with pytest.raises(ArithmeticError, match="telescope"):
        buchstab_split(W, Ideal.unit())


# ------------------------------------------------------------- integers


def test_integer_brun_weights_structure():
    W = integer_brun_weights(4, 60, 2)
    assert W.weights[1] == 1 and W.support_floor == 4
    assert len(W.weights) == 18  # 1, fifteen primes in (4,60], 35, 55
    for d, wt in W.weights.items():
        if d == 1:
            continue
        fac = trial_factor(d)
        assert all(e == 1 for _, e in fac)
        assert all(4 < p <= 60 for p, _ in fac)
        assert len(fac) <= 2
        assert wt == (-1) ** len(fac)
    assert W.weights[35] == 1 and W.weights[55] == 1
    W.check(4)  # no leak at its own floor
    with pytest.raises(ValueError, match="leaks at d=5"):
        W.check(9)


def test_integer_brun_weights_reject_odd_depth():
    with pytest.raises(ValueError, match="even truncation depth"):
        integer_brun_weights(4, 60, 3)


def test_integer_weights_check_requires_unit():
    with pytest.raises(ValueError, match="d=1 weight 1"):
        IntegerWeights({2: 1}, 1).check(1)


# ------------------------------------------------------------- anti-sieve


def test_anti_sieve_all_ones_frozen():
    W = integer_brun_weights(4, 60, 2)
    F = {(a, b): 1 for a in range(1, 101) for b in range(1, 101)}
    r = anti_sieve_split(F, 100, Fraction(1, 2), 2, W)
    # window 5 < a < 20: fourteen a-values times a hundred b-values
    assert (r.window_sum, r.weighted_sum, r.correction, r.correction_cov) == (
        1400,
        600,
        -800,
        -800,
    )
    assert r.identity_ok and r.cov_ok


def test_anti_sieve_single_entry_frozen():
    W = integer_brun_weights(4, 60, 2)
    r = anti_sieve_split({(6, 4): 5}, 100, Fraction(1, 2), 2, W)
    # a=6 sits in (5,20); its only supported divisor is d=1
    assert (r.window_sum, r.weighted_sum, r.correction, r.correction_cov) == (5, 5, 0, 0)


def test_anti_sieve_fractional_yfun_frozen():
    y = Fraction(3, 2)
    W = integer_brun_weights(y * y, 40, 2)
    F = {(a, b): 1 for a in range(1, 13) for b in range(1, 13)}
    r = anti_sieve_split(F, 49, Fraction(1, 2), y, W)
    # window 14/3 < a < 21/2, so a in 5..10; only a=8 keeps full weight 1
    assert (r.window_sum, r.weighted_sum, r.correction, r.correction_cov) == (
        72,
        12,
        -60,
        -60,
    )
    assert r.identity_ok and r.cov_ok


def _brute_anti_sieve(F, x, alpha, yfun, W):
    alpha = Fraction(alpha)
    y = Fraction(yfun)
    p, q = alpha.numerator, alpha.denominator
    floor = y * y

    def in_window(a):
        lo_ok = Fraction(a, 1) ** q * y**q > x**p  # a > x^alpha / y
        hi_ok = Fraction(a, 1) ** q < x**p * y**q  # a < x^alpha * y
        return lo_ok and hi_ok

    window = weighted = correction = 0
    for (a, b), val in F.items():
        if not in_window(a):
            continue
        window += val
        for d in range(1, a + 1):
            if a % d == 0:
                wt = W.weights.get(d, 0)
                weighted += wt * val
                if wt and Fraction(d) > floor:
                    correction += wt * val
    return window, weighted, correction


def test_anti_sieve_randomized_tables():
    rng = random.Random(909)
    alphas = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4), Fraction(1)]
    for _ in range(150):
        yv = rng.choice((2, 3, Fraction(3, 2), Fraction(5, 2)))
        floor = yv * yv
        cut = rng.randint(int(floor) + 2, 200)
        W = integer_brun_weights(floor, cut, rng.choice((2, 4)))
        x = rng.randint(2, 500)
        alpha = rng.choice(alphas)
        F = {
            (rng.randint(1, 150), rng.randint(1, 150)): rng.randint(-9, 9)
            for _ in range(rng.randint(1, 40))
        }
        r = anti_sieve_split(F, x, alpha, yv, W)
        assert r.identity_ok and r.cov_ok
        bw, bwt, bc = _brute_anti_sieve(F, x, alpha, yv, W)
        assert (r.window_sum, r.weighted_sum, r.correction) == (bw, bwt, bc)


def test_anti_sieve_domain_errors():
    W = integer_brun_weights(4, 60, 2)
    F = {(6, 4): 1}
    with pytest.raises(ValueError, match="alpha in"):
        anti_sieve_split(F, 100, Fraction(3, 2), 2, W)
    with pytest.raises(ValueError, match="x >= 1"):
        anti_sieve_split(F, 0, Fraction(1, 2), 2, W)
    with pytest.raises(ValueError, match="yfun > 0"):
        anti_sieve_split(F, 100, Fraction(1, 2), 0, W)
    with pytest.raises(ValueError, match="leaks at d=5"):
        anti_sieve_split(F, 100, Fraction(1, 2), 3, W)  # floor 9 above support
    with pytest.raises(ValueError, match="positive coordinates"):
        anti_sieve_split({(0, 4): 1}, 100, Fraction(1, 2), 2, W)
