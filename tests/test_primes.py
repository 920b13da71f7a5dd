"""Exact integer factorization at the edge of its trial-division wheel."""

import random

import pytest

from chowla.cubic_form import ExactRangeError
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


def test_factor_int_matches_trial_division():
    rng = random.Random(17)
    for n in [1, 2, 360, 2**40, 3**20 * 7] + [rng.randrange(1, 10**9) for _ in range(300)]:
        assert factor_int(n) == trial_factor(n), n
    with pytest.raises(ValueError):
        factor_int(0)
