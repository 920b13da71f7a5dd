"""Binary cubic forms a*x^3 + b*x^2*y + c*x*y^2 + d*y^3 over the integers."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class ZeroFormError(ValueError):
    pass


class ReducibleFormError(ValueError):
    pass


class ExactRangeError(ArithmeticError):
    """Raised when a request is past an exact-arithmetic range guard.

    The guards: `check_range` keeps single form values under 2^127; the
    grid sieve keeps 4 * H(f) * (m + 1)^3 under 2^62 on a grid of half-width
    m, so its int64 values cannot wrap; and the sieve caps its grids at 230
    million cells, a factor table at 4.2 million cells (8 times that for a
    parity grid that keeps its per-point arrays).
    """


# All form values are kept inside signed 128-bit territory.  Python ints never
# wrap, so the guard exists to fail loudly instead of silently degrading the
# vectorized paths that mirror these computations in fixed width.
EXACT_LIMIT = 1 << 127


@dataclass(frozen=True)
class BinaryCubicForm:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0:
            raise ZeroFormError("all four coefficients are zero")

    def __repr__(self):
        return f"BinaryCubicForm({self.a}, {self.b}, {self.c}, {self.d})"

    def __call__(self, x: int, y: int) -> int:
        return evaluate(self, x, y)

    @property
    def coeffs(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def height(self) -> int:
        return max(abs(t) for t in self.coeffs)

    def discriminant(self) -> int:
        a, b, c, d = self.coeffs
        return (
            18 * a * b * c * d
            - 4 * b**3 * d
            + b**2 * c**2
            - 4 * a * c**3
            - 27 * a**2 * d**2
        )

    def dehomogenized(self) -> list[int]:
        """Coefficients of f(t, 1), lowest degree first."""
        return [self.d, self.c, self.b, self.a]

    def is_monic(self) -> bool:
        return self.a == 1


def parse_form(text: str) -> BinaryCubicForm:
    """Parse 'a,b,c,d' into a form. Whitespace around entries is fine."""
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"expected four comma-separated coefficients, got {text!r}")
    try:
        a, b, c, d = (int(t) for t in parts)
    except ValueError as exc:
        raise ValueError(f"non-integer coefficient in {text!r}") from exc
    return BinaryCubicForm(a, b, c, d)


def evaluate(f: BinaryCubicForm, x: int, y: int) -> int:
    check_range(f, max(abs(x), abs(y)))
    a, b, c, d = f.coeffs
    return a * x**3 + b * x**2 * y + c * x * y**2 + d * y**3


def check_range(f: BinaryCubicForm, half_width: int | float) -> None:
    """Guard: 4 * max|coeff| * (half_width + 1)^3 must stay under 2^127,
    as |f(x, y)| <= 4 * max|coeff| * half_width^3."""
    n = int(math.ceil(abs(half_width)))
    if 4 * f.height() * (n + 1) ** 3 >= EXACT_LIMIT:
        raise ExactRangeError(
            f"coordinates up to {n} push form values past the exact range"
        )


def content(f: BinaryCubicForm) -> int:
    return math.gcd(math.gcd(abs(f.a), abs(f.b)), math.gcd(abs(f.c), abs(f.d)))


def is_irreducible(f: BinaryCubicForm) -> bool:
    """Irreducibility over Q by the rational root test.

    A reducible cubic form has a linear factor: either y (a == 0), x (d == 0),
    or q*x - p*y with p/q a rational root of f(t, 1) in lowest terms, p | d
    and q | a.  Degree 3 means no other reducibility pattern exists.
    """
    a, b, c, d = f.coeffs
    if a == 0 or d == 0:
        return False
    for p in _divisors_signed(d):
        for q in _divisors_pos(a):
            if math.gcd(abs(p), q) != 1:
                continue
            # f(p/q, 1) == 0  <=>  a p^3 + b p^2 q + c p q^2 + d q^3 == 0
            if a * p**3 + b * p**2 * q + c * p * q**2 + d * q**3 == 0:
                return False
    return True


def _divisors_pos(n: int) -> list[int]:
    n = abs(n)
    out = []
    for k in range(1, math.isqrt(n) + 1):
        if n % k == 0:
            out.append(k)
            out.append(n // k)
    return sorted(set(out))


def _divisors_signed(n: int) -> list[int]:
    pos = _divisors_pos(n)
    return [-k for k in reversed(pos)] + pos


def parse_rational(text: str) -> Fraction:
    """Accept plain integers, decimals, and p/q strings; q = 0 is a ValueError."""
    text = text.strip()
    if "/" in text:
        num, den = (int(t) for t in text.split("/", 1))
        if den == 0:
            raise ValueError(f"rational {text!r} has a zero denominator")
        return Fraction(num, den)
    return Fraction(text)
