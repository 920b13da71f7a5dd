"""A seven-term Vaughan-style decomposition over ideals of a number field.

For an arbitrary function h on ideals and cut points y <= u <= w, the value
h(a) splits into seven window sums over pairs (b, c) with b*c | a and the
Q-part of b equal to the Q-part of a.  The split is exact and boundary
sensitive, so every norm-versus-cut comparison is exact: norms are integers
and the cuts are exact rationals.

Also here: the divisor-window flip (complement map on squarefree divisors)
and the pairing bound on partial Mobius sums over divisors, both verified by
full enumeration.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .ideal_arith import Ideal, PrimeIdeal, norm, tau

_DIVISOR_CAP = 1 << 16


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


# ------------------------------------------------------------------ betas


def _windows(a: Ideal, h: Callable[[Ideal], object], P: VaughanParams) -> tuple:
    """(the seven window sums, high grouping, low grouping) in one walk.

    The star pairs are the (b, c) with b*c | a and the Q-part of b equal to
    a's; that forces c to avoid Q, so b = (Q-part of a) * b' with b'*c
    dividing the non-Q part.  Only pairs with mu(c) != 0 add anything, so
    the walk takes d = b'*c over the non-Q exponents of a in
    ``itertools.product`` order and, per exponent d_t, only b'_t in
    (d_t - 1, d_t), which leaves c_t in {1, 0}: the squarefree-c pairs in
    the order a walk over all divisors of d would reach them.  Every b' <= d
    comes no later than d in product order, so each b is first reached at
    d = b' (c = 1): calling h once per d, on b = (Q-part of a) * d, calls it
    on each b in the order that full walk first reaches it.

    Norms are ints, so n <= q iff n <= floor(q) and n > q iff n > floor(q).
    The nine membership tests below are independent on purpose: nesting
    them would make the groupings agree with the windows by construction.
    """
    if tau(a) > _DIVISOR_CAP:
        raise ValueError(f"divisor count {tau(a)} exceeds the cap {_DIVISOR_CAP}")
    y, u, w = math.floor(P.y), math.floor(P.u), math.floor(P.w)
    factors = a.factors
    in_q = [q in P.Q for q, _ in factors]
    nb_q = 1
    free = []  # (norm, exponent) of the non-Q primes of a, in a's order
    for (q, e), fixed in zip(factors, in_q):
        if fixed:
            nb_q *= q.norm**e
        else:
            free.append((q.norm, e))

    betas = [0] * 7
    high = 0
    low = 0
    if norm(a) <= u:
        betas[0] += h(a)
    h_of: dict[tuple, object] = {}  # b' exponents -> h(b)
    for d in itertools.product(*(range(e + 1) for _, e in free)):
        exps = iter(d)
        h_of[d] = h(Ideal(tuple(
            (q, x) for (q, e), fixed in zip(factors, in_q) if (x := e if fixed else next(exps))
        )))
        for bp in itertools.product(*((t - 1, t) if t else (0,) for t in d)):
            nb, nc, mc = nb_q, 1, 1
            for (n, _), dt, bt in zip(free, d, bp):
                nb *= n**bt
                if bt != dt:
                    nc *= n
                    mc = -mc
            v = h_of[bp] * mc
            if nc <= u:
                betas[0] += v
            if u < nb <= w and nc > u:
                betas[1] += v
            if nb > w and u < nc <= w:
                betas[2] += v
            if nb > w and nc > w:
                betas[3] += v
            if nb <= u and nc <= y:
                betas[4] += v
            if nb <= y and y < nc <= u:
                betas[5] += v
            if y < nb <= u and y < nc <= u:
                betas[6] += v
            if nb > u and nc > u:
                high += v
            if nb <= u and nc <= u:
                low += v
    return betas, high, low


def beta_all(a: Ideal, h: Callable[[Ideal], object], P: VaughanParams) -> list:
    """The seven window sums over the star pairs (b, c), mu(c) weighted.

    Windows on norms: (1) no cut on b, c <= u, plus the standalone h(a <= u);
    (2) u < b <= w, c > u; (3) b > w, u < c <= w; (4) b > w, c > w;
    (5) b <= u, c <= y; (6) b <= y, y < c <= u; (7) y < b <= u, y < c <= u.
    """
    return _windows(a, h, P)[0]


def combine(betas: list) -> object:
    """beta1 + beta2 + beta3 + beta4 - beta5 - beta6 - beta7."""
    return betas[0] + betas[1] + betas[2] + betas[3] - betas[4] - betas[5] - betas[6]


def verify_identity(a: Ideal, h: Callable[[Ideal], object], P: VaughanParams) -> bool:
    """Does h(a) equal the seven-term combination exactly?"""
    return h(a) == combine(beta_all(a, h, P))


def verify_groupings(a: Ideal, h: Callable[[Ideal], object], P: VaughanParams) -> bool:
    """The two coarser splits the seven windows refine, checked exactly:
    terms 2+3+4 sum h(b > u) mu(c > u); terms 5+6+7 sum h(b <= u) mu(c <= u)."""
    betas, high, low = _windows(a, h, P)
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


def _divisor_norms(e: Ideal):
    """(N(c), mu(c)) for every divisor c of e, read off its exponent vector."""
    if tau(e) > _DIVISOR_CAP:
        raise ValueError(f"divisor count {tau(e)} exceeds the cap {_DIVISOR_CAP}")
    # per prime q^k of e, (N(q)^x, mu(q^x)) for x = 0..k; mu(q^x) = 0 from x = 2
    powers = [[(q.norm**x, (1, -1, 0)[min(x, 2)]) for x in range(k + 1)] for q, k in e.factors]
    for choice in itertools.product(*powers):
        nc = mc = 1
        for n, m in choice:
            nc *= n
            mc *= m
        yield nc, mc


def window_flip(e: Ideal, u) -> FlipRecord:
    """Complement-map identity on divisor Mobius sums of a non-unit ideal:
    the sum of mu(c) over c | e with norm > u equals mu(rad e) times the sum
    over c | e with norm strictly below N(rad e)/u; and mu sums to 0 over all
    divisors."""
    if e.is_unit:
        raise ValueError("flip needs a non-unit ideal")
    u = Fraction(u)
    flip_cut = Fraction(math.prod(q.norm for q, _ in e.factors)) / u
    lhs = 0
    rhs = 0
    mu_total = 0
    for nc, mc in _divisor_norms(e):
        if not mc:
            continue
        mu_total += mc
        if nc > u:
            lhs += mc
        if nc < flip_cut:
            rhs += mc
    mu_rad = -1 if len(e.factors) % 2 else 1
    return FlipRecord(lhs, mu_rad * rhs, mu_total)


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
    low = y / l
    acc = 0
    window = 0
    for nc, mc in _divisor_norms(e):
        if nc <= y:
            acc += mc
        if low < nc <= y:
            window += 1
    return abs(acc), window
