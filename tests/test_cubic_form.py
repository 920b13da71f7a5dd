import itertools
import random

import pytest

from chowla.cubic_form import (
    EXACT_LIMIT,
    BinaryCubicForm,
    ExactRangeError,
    ZeroFormError,
    content,
    evaluate,
    is_irreducible,
    parse_form,
    parse_rational,
)
from fractions import Fraction


def test_discriminant_known_values():
    assert BinaryCubicForm(1, 0, 0, 2).discriminant() == -108
    assert BinaryCubicForm(1, -1, 0, 1).discriminant() == -23
    assert BinaryCubicForm(1, 0, 1, 1).discriminant() == -31
    assert BinaryCubicForm(1, 1, -2, 8).discriminant() == -2012


def test_discriminant_detects_repeated_roots():
    # (x - y)^2 (x + 2y) has a repeated linear factor, so discriminant 0
    # expansion: x^3 - 3 x y^2 + 2 y^3
    assert BinaryCubicForm(1, 0, -3, 2).discriminant() == 0


def test_evaluate_matches_polynomial():
    rng = random.Random(7)
    for _ in range(200):
        f = BinaryCubicForm(*(rng.randint(-9, 9) or 1 for _ in range(4)))
        x, y = rng.randint(-30, 30), rng.randint(-30, 30)
        want = f.a * x**3 + f.b * x**2 * y + f.c * x * y**2 + f.d * y**3
        assert f(x, y) == want
        assert evaluate(f, x, y) == want


def test_evaluate_range_guard():
    f = BinaryCubicForm(1, 0, 0, 2)
    with pytest.raises(ExactRangeError):
        evaluate(f, 1 << 45, 0)


def test_range_guard_bounds_every_value():
    """|f(x, y)| reaches 4 * H(f) * n^3 at half-width n, so the guard counts
    4 * H(f) * (n + 1)^3 against 2^127."""
    f = BinaryCubicForm(1, 1, 1, 1)
    with pytest.raises(ExactRangeError):
        evaluate(f, 2**42 - 2, 2**42 - 2)  # 4 * n^3 needs 128 bits
    # m: the largest with 4 * m^3 < 2^127; the guard passes n = m - 1 only
    lo, hi = 1, 1 << 42
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if 4 * mid**3 < EXACT_LIMIT else (lo, mid)
    m = lo
    n = m - 1
    for s in (1, -1):
        assert abs(evaluate(f, s * n, s * n)) == 4 * n**3 < EXACT_LIMIT
        with pytest.raises(ExactRangeError):
            evaluate(f, s * m, s * m)


def test_zero_form_rejected():
    with pytest.raises(ZeroFormError):
        BinaryCubicForm(0, 0, 0, 0)


def test_content():
    assert content(BinaryCubicForm(2, 4, -6, 8)) == 2
    assert content(BinaryCubicForm(1, 0, 0, 2)) == 1
    assert content(BinaryCubicForm(0, 3, 9, 6)) == 3


def test_irreducibility_flags_linear_factors():
    assert is_irreducible(BinaryCubicForm(1, 0, 0, 2))
    assert is_irreducible(BinaryCubicForm(1, -1, 0, 1))
    assert not is_irreducible(BinaryCubicForm(1, 0, 0, -8))  # x - 2y divides
    assert not is_irreducible(BinaryCubicForm(1, 0, 0, 0))  # x^3: x divides
    assert not is_irreducible(BinaryCubicForm(0, 1, 1, 1))  # no x^3 term: y divides
    # (x + 2y)(x^2 - xy + 3y^2) = x^3 + x^2 y + x y^2 + 6 y^3
    assert not is_irreducible(BinaryCubicForm(1, 1, 1, 6))


def _has_zero_line(f, reach: int) -> bool:
    """Whether f vanishes at some (p, q) != (0, 0) with |p|, |q| <= reach:
    every rational root p/q of f(t, 1) has p | d and q | a, and a == 0 or
    d == 0 puts a zero at (1, 0) or (0, 1)."""
    return any(f(p, q) == 0 for p in range(-reach, reach + 1) for q in range(reach + 1) if (p, q) != (0, 0))


def test_irreducibility_vs_root_scan():
    """Both ways: reducible exactly when the scan finds a rational zero line,
    on every form with coefficients in [-3, 3] and on random ones in [-6, 6]."""
    forms = [BinaryCubicForm(*c) for c in itertools.product(range(-3, 4), repeat=4) if any(c)]
    assert sum(not _has_zero_line(f, 3) for f in forms) > 500
    for f in forms:
        assert is_irreducible(f) == (not _has_zero_line(f, 3)), f
    rng = random.Random(11)
    for _ in range(300):
        f = BinaryCubicForm(*(rng.randint(-6, 6) for _ in range(4)))
        assert is_irreducible(f) == (not _has_zero_line(f, 6)), f


def test_irreducibility_at_large_coefficients():
    """Coefficients past 2^50, where a scan of the divisors of d would not
    end.  The irreducible ones have no root mod 7, so they are irreducible
    mod 7 and over Q."""
    assert is_irreducible(BinaryCubicForm(1, 0, 0, 10**16 + 61))
    assert is_irreducible(BinaryCubicForm(1, 0, 0, 2**100 + 1))
    # (x - R*y)(x^2 + x*y + y^2): the root R lies near 2^90
    R = 2**90 + 12345
    assert not is_irreducible(BinaryCubicForm(1, 1 - R, 1 - R, -R))
    # (3x - R*y)(x^2 + y^2): the root R/3 is not an integer
    assert not is_irreducible(BinaryCubicForm(3, -R, 3, -R))
    assert is_irreducible(BinaryCubicForm(3, -R, 3, 1 - R))


def test_parse_form():
    assert parse_form(" 1, 0 ,0, 2 ") == BinaryCubicForm(1, 0, 0, 2)
    with pytest.raises(ValueError):
        parse_form("1,2,3")
    with pytest.raises(ValueError):
        parse_form("1,2,3,x")


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(" -7/3 ") == Fraction(-7, 3)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")
