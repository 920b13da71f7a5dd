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
    or q*x - p*y with p/q a rational root of f(t, 1).  Degree 3 means no
    other reducibility pattern exists.  As a^2 * f(t, 1) = g(a*t) for the
    monic g(u) = u^3 + b*u^2 + a*c*u + a^2*d, whose rational roots are
    integers, f(t, 1) has a rational root exactly when g has an integer
    root.  Those lie within Cauchy's bound, and the real roots of g' cut
    that range into pieces where g is monotone, each searched by bisection.
    """
    a, b, c, d = f.coeffs
    if a == 0 or d == 0:
        return False
    ac, aad = a * c, a * a * d

    def g(u: int) -> int:
        return ((u + b) * u + ac) * u + aad

    bound = 1 + max(abs(b), abs(ac), abs(aad))
    pieces = [(-bound, bound)]
    disc = b * b - 3 * ac  # g' = 3u^2 + 2bu + ac has roots (-b -+ sqrt(disc)) / 3
    if disc > 0:
        s = math.isqrt(disc)
        r = s if s * s == disc else s + 1  # ceil(sqrt(disc))
        # floor and ceil of each root of g'
        lo1, hi1 = (-b - r) // 3, -((b + s) // 3)
        lo2, hi2 = (-b + s) // 3, -((b - r) // 3)
        pieces = [(-bound, lo1), (hi1, lo2), (hi2, bound)]
    return not any(_monotone_has_root(g, lo, hi) for lo, hi in pieces)


def _monotone_has_root(g, lo: int, hi: int) -> bool:
    """Whether g, monotone on the integers lo..hi, vanishes at one of them."""
    if lo > hi:
        return False
    glo, ghi = g(lo), g(hi)
    if glo == 0 or ghi == 0:
        return True
    if (glo > 0) == (ghi > 0):
        return False
    while hi - lo > 1:
        mid = (lo + hi) // 2
        gm = g(mid)
        if gm == 0:
            return True
        if (gm > 0) == (glo > 0):
            lo = mid
        else:
            hi = mid
    return False


def parse_rational(text: str) -> Fraction:
    """Accept plain integers, decimals, and p/q strings; q = 0 is a ValueError."""
    text = text.strip()
    if "/" in text:
        num, den = (int(t) for t in text.split("/", 1))
        if den == 0:
            raise ValueError(f"rational {text!r} has a zero denominator")
        return Fraction(num, den)
    return Fraction(text)
