"""A seven-term Vaughan-style decomposition over ideals of a number field.

For an arbitrary function h on ideals and cut points y <= u <= w, the value
h(a) splits into seven window sums over pairs (b, c) with b*c | a and the
Q-part of b equal to the Q-part of a.  The split is exact and boundary
sensitive, so all norm-versus-cut comparisons are integer-versus-rational.

Also here: the divisor-window flip (complement map on squarefree divisors)
and the pairing bound on partial Mobius sums over divisors, both verified by
full enumeration.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable, Iterable, Iterator

from .ideal_arith import (
    Ideal,
    PrimeIdeal,
    divisors,
    mu_ideal,
    norm,
    rad,
    split_S,
    tau,
)


@dataclass(frozen=True)
class VaughanParams:
    """Cut points (exact rationals) and the distinguished prime set Q."""

    y: Fraction
    u: Fraction
    w: Fraction
    Q: frozenset[PrimeIdeal] = frozenset()

    @staticmethod
    def make(y, u, w, Q: Iterable[PrimeIdeal] = ()) -> "VaughanParams":
        return VaughanParams(Fraction(y), Fraction(u), Fraction(w), frozenset(Q))


# ------------------------------------------------------------------ pairs


def sum_star_pairs(
    a: Ideal, Q: Iterable[PrimeIdeal], cap: int = 1 << 16
) -> Iterator[tuple[Ideal, Ideal]]:
    """All pairs (b, c) with b*c | a and the Q-part of b equal to that of a.

    The Q-part of b must exhaust a's, which forces c to avoid Q entirely; so
    b = (Q-part of a) * b' with b'*c dividing the non-Q part.
    """
    if tau(a) > cap:
        raise ValueError(f"divisor count {tau(a)} exceeds the cap {cap}")
    q_part, m = split_S(a, Q)
    for d in divisors(m, cap):
        for b_prime in divisors(d, cap):
            yield q_part * b_prime, d.divide(b_prime)


# ------------------------------------------------------------------ betas


def beta_all(a: Ideal, h: Callable[[Ideal], object], P: VaughanParams) -> list:
    """The seven window sums, evaluated in one pass over the star pairs.

    Windows on norms: (1) no cut on b, c <= u, plus the standalone h(a <= u);
    (2) u < b <= w, c > u; (3) b > w, u < c <= w; (4) b > w, c > w;
    (5) b <= u, c <= y; (6) b <= y, y < c <= u; (7) y < b <= u, y < c <= u.
    """
    y, u, w = P.y, P.u, P.w
    na = norm(a)
    betas = [0] * 8  # 1-indexed
    if na <= u:
        betas[1] += h(a)
    for b, c in sum_star_pairs(a, P.Q):
        nb, nc = norm(b), norm(c)
        hb = None  # computed lazily; h may be expensive
        mc = mu_ideal(c)
        if mc and nc <= u:
            hb = h(b)
            betas[1] += hb * mc
        if mc == 0:
            continue
        if hb is None:
            hb = h(b)
        if u < nb <= w and nc > u:
            betas[2] += hb * mc
        if nb > w and u < nc <= w:
            betas[3] += hb * mc
        if nb > w and nc > w:
            betas[4] += hb * mc
        if nb <= u and nc <= y:
            betas[5] += hb * mc
        if nb <= y and y < nc <= u:
            betas[6] += hb * mc
        if y < nb <= u and y < nc <= u:
            betas[7] += hb * mc
    return betas[1:]


def combine(betas: list) -> object:
    """beta1 + beta2 + beta3 + beta4 - beta5 - beta6 - beta7."""
    return betas[0] + betas[1] + betas[2] + betas[3] - betas[4] - betas[5] - betas[6]


def verify_identity(a: Ideal, h: Callable[[Ideal], object], P: VaughanParams) -> bool:
    """Does h(a) equal the seven-term combination, exactly (or to 1e-9 rel)?"""
    lhs = h(a)
    rhs = combine(beta_all(a, h, P))
    if isinstance(lhs, Rational) and isinstance(rhs, Rational):
        return lhs == rhs
    denom = max(abs(float(lhs)), abs(float(rhs)), 1.0)
    return abs(float(lhs) - float(rhs)) <= 1e-9 * denom


def verify_groupings(a: Ideal, h: Callable[[Ideal], object], P: VaughanParams) -> bool:
    """The two coarser splits the seven windows refine, checked exactly:
    terms 2+3+4 sum h(b > u) mu(c > u); terms 5+6+7 sum h(b <= u) mu(c <= u)."""
    y, u, w = P.y, P.u, P.w
    betas = beta_all(a, h, P)
    high = 0
    low = 0
    for b, c in sum_star_pairs(a, P.Q):
        mc = mu_ideal(c)
        if not mc:
            continue
        nb, nc = norm(b), norm(c)
        if nb > u and nc > u:
            high += h(b) * mc
        if nb <= u and nc <= u:
            low += h(b) * mc
    return betas[1] + betas[2] + betas[3] == high and betas[4] + betas[5] + betas[6] == low


# ------------------------------------------------------------------ flip


@dataclass(frozen=True)
class FlipRecord:
    lhs: int
    rhs: int
    mu_total: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs and self.mu_total == 0


def window_flip(e: Ideal, u) -> FlipRecord:
    """Complement-map identity on divisor Mobius sums of a non-unit ideal:
    the sum of mu(c) over c | e with norm > u equals mu(rad e) times the sum
    over c | e with norm strictly below N(rad e)/u; and mu sums to 0 over all
    divisors."""
    if e.is_unit:
        raise ValueError("flip needs a non-unit ideal")
    u = Fraction(u)
    flip_cut = Fraction(norm(rad(e))) / u
    lhs = 0
    rhs = 0
    mu_total = 0
    for c in divisors(e):
        mc = mu_ideal(c)
        mu_total += mc
        if not mc:
            continue
        nc = norm(c)
        if nc > u:
            lhs += mc
        if nc < flip_cut:
            rhs += mc
    return FlipRecord(lhs, mu_ideal(rad(e)) * rhs, mu_total)


def pairing_bound(e: Ideal, y, l) -> tuple[int, int]:
    """(|partial Mobius sum up to y|, count of divisors with norm in (y/l, y]).

    Requires a prime divisor of e with norm at most l: then squarefree
    divisors pair off as (o, o*p) with opposite Mobius values, and only pairs
    straddling the cut survive, which the window count dominates.
    """
    y = Fraction(y)
    l = Fraction(l)
    if not any(Fraction(q.norm) <= l for q, _ in e.factors):
        raise ValueError("hypothesis violated: no prime divisor of norm <= l")
    acc = 0
    window = 0
    for c in divisors(e):
        nc = norm(c)
        if nc <= y:
            acc += mu_ideal(c)
        if y / l < nc <= y:
            window += 1
    return abs(acc), window
