"""Exact integer factorization at the edge of its trial-division wheel."""

import random

import pytest

from chowla.cubic_form import ExactRangeError
from chowla.factor_sieve import parities
from chowla.primes import factor_int, is_prime

from helpers import trial_factor


def test_factor_int_at_the_wheel_edge():
    # the wheel divides by every prime up to 70001; 70003 is the first past it
    assert all(is_prime(p) for p in (69997, 70001, 70003, 70009))
    assert factor_int(69997 * 70001) == [(69997, 1), (70001, 1)]
    assert factor_int(70001**2) == [(70001, 2)]
    assert factor_int(70003) == [(70003, 1)]
    assert factor_int(2**3 * 70003) == [(2, 3), (70003, 1)]
    for n in (70003**2, 70003 * 70009):
        with pytest.raises(ExactRangeError, match="composite cofactor"):
            factor_int(n)


# the least strong pseudoprime to the twelve bases 2, ..., 37
PSI_12 = 318_665_857_834_031_151_167_461


def test_is_prime_picks_witnesses_by_size():
    # each n is the least strong pseudoprime to a smaller witness set
    assert PSI_12 == 399_165_290_221 * 798_330_580_441
    for n in (3_215_031_751, 341_550_071_728_321, PSI_12):
        assert not is_prime(n), n
    assert is_prime(2**61 - 1)


def test_factor_int_refuses_what_it_cannot_prove():
    # PSI_12 is composite with both factors past the wheel; 2^89 - 1 is a
    # prime past the primality test's range
    for n in (PSI_12, 2**89 - 1):
        with pytest.raises(ExactRangeError):
            factor_int(n)
    with pytest.raises(ExactRangeError):
        parities(PSI_12)


def test_factor_int_matches_trial_division():
    rng = random.Random(17)
    for n in [1, 2, 360, 2**40, 3**20 * 7] + [rng.randrange(1, 10**9) for _ in range(300)]:
        assert factor_int(n) == trial_factor(n), n
    with pytest.raises(ValueError):
        factor_int(0)
