"""Brun pure-sieve weights over prime-ideal sets, the Buchstab-style
main/tail split, and the pair-level anti-sieving identity on integer tables.

The weight system is deliberately abstract (a map from ideals to -1/0/+1
with the unit ideal pinned to 1) so a stronger sieve can replace Brun's
without touching any consumer; everything asserted about the weights is
exact combinatorics, never an analytic estimate.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .ideal_arith import Ideal, PrimeIdeal, norm
from .primes import primes_up_to

_WEIGHT_CAP = 300_000


@dataclass(frozen=True)
class SieveWeights:
    """Upper-bound sieve weights: support on the unit ideal plus squarefree
    products of the sieving set with norms in (lower_gap, upper_cut]."""

    weights: dict  # Ideal -> int in {-1, 0, +1}
    P: frozenset[PrimeIdeal]
    lower_gap: object  # number: support excludes 1 < norm <= lower_gap
    upper_cut: object  # number: support excludes norm > upper_cut
    truncation_level: int

    def weight(self, d: Ideal) -> int:
        return self.weights.get(d, 0)


def default_depth(cut) -> int:
    """Smallest even integer >= 2*log log(cut) + 2 (and at least 2)."""
    c = float(cut)
    target = 2.0 * math.log(math.log(c)) + 2.0 if c > math.e else 2.0
    depth = max(2, math.ceil(target))
    return depth + (depth % 2)


def _truncated_mobius(units, norms, cut, depth: int, one, times) -> dict:
    """Mobius weights truncated at an even number of prime factors.

    one, the empty product, weighs 1; each product of distinct units, taken
    in order, with at most depth factors and norm at most cut weighs minus
    the product without its last unit.  The norms need not ascend (prime
    ideals sort by (p, tag)), so a unit past the cut is skipped, not a stop.
    """
    if depth % 2 or depth < 0:
        raise ValueError("upper-bound sieve needs an even truncation depth")
    weights = {one: 1}

    def extend(start: int, d, nd, size: int) -> None:
        if len(weights) > _WEIGHT_CAP:
            raise ValueError("weight table too large; lower the depth or cut")
        if size == depth:
            return
        for i in range(start, len(units)):
            nn = nd * norms[i]
            if nn > cut:
                continue
            e = times(d, units[i])
            weights[e] = -weights[d]
            extend(i + 1, e, nn, size + 1)

    extend(0, one, 1, 0)
    return weights


def brun_pure_weights(
    P: Iterable[PrimeIdeal],
    cut,
    depth: Optional[int] = None,
) -> SieveWeights:
    """Mobius weights truncated at an even number of prime factors.

    Support: squarefree products of distinct primes of P with at most
    `depth` factors and norm at most `cut` (cut may be infinite), each
    weighted by its Mobius value; the unit ideal gets weight 1.
    """
    primes = sorted(set(P))
    if depth is None:
        depth = default_depth(cut if math.isfinite(float(cut)) else 1e6)
    lower_gap = min((q.norm for q in primes), default=2) - 1
    # primes ascend, so each product is already canonical
    weights = _truncated_mobius(
        primes, [q.norm for q in primes], cut, depth, Ideal.unit(),
        lambda d, q: Ideal(d.factors + ((q, 1),)),
    )
    return SieveWeights(weights, frozenset(primes), lower_gap, cut, depth)


def _sieving_divisors(W: SieveWeights, b: Ideal):
    """The squarefree divisors of b composed of sieving primes: the only
    divisors that can carry weight."""
    shared = [q for q, _ in b.factors if q in W.P]
    for mask in range(1 << len(shared)):
        yield Ideal.from_factors((shared[i], 1) for i in range(len(shared)) if mask >> i & 1)


def sieve_value(W: SieveWeights, b: Ideal) -> int:
    """Sum of the weights over the divisors of b."""
    return sum(W.weight(d) for d in _sieving_divisors(W, b))


def buchstab_split(W: SieveWeights, b: Ideal) -> tuple[int, int]:
    """(main, tail) with main the full weighted divisor sum and tail its
    restriction to window norms; their difference is exactly 1.

    Valid whenever every non-unit ideal in the support lies inside the
    window (lower_gap, upper_cut]; a violation is an error, not a wrong answer.
    """
    lo, hi = W.lower_gap, W.upper_cut
    for d, wt in W.weights.items():
        if wt and not d.is_unit:
            nd = norm(d)
            if not (lo < nd <= hi):
                raise ValueError(f"weight support leaks outside the window at norm {nd}")
    main = 0
    tail = 0
    for d in _sieving_divisors(W, b):
        wt = W.weight(d)
        if not wt:
            continue
        main += wt
        if not d.is_unit and lo < norm(d) <= hi:
            tail += wt
    if main - tail != 1:
        raise ArithmeticError("main minus tail failed to telescope to 1")
    return main, tail


# ------------------------------------------------------------- anti-sieve


@dataclass(frozen=True)
class IntegerWeights:
    """Divisor weights on positive integers: weight 1 at d=1, arbitrary
    -1/0/+1 above the support floor, zero in between."""

    weights: dict  # int -> int
    support_floor: object  # number: weights vanish for 1 < d <= support_floor

    def check(self, floor) -> None:
        if self.weights.get(1, 0) != 1:
            raise ValueError("integer weights must give d=1 weight 1")
        for d, wt in self.weights.items():
            if wt and 1 < d <= floor:
                raise ValueError(f"integer weight support leaks at d={d}")


def integer_brun_weights(lo, cut, depth: int) -> IntegerWeights:
    """Mobius weights on squarefree integers built from rational primes in
    (lo, cut], truncated at an even count; d=1 has weight 1."""
    ps = [int(p) for p in primes_up_to(int(cut)) if p > lo]
    weights = _truncated_mobius(ps, ps, cut, depth, 1, operator.mul)
    return IntegerWeights(weights, lo)


@dataclass(frozen=True)
class AntiSieveRecord:
    window_sum: object  # plain sum of F over the a-window
    weighted_sum: object  # same sum with full divisor weights inserted
    correction: object  # the d > yfun^2 part, direct form
    correction_cov: object  # the same part after the change of variables

    @property
    def identity_ok(self) -> bool:
        return self.window_sum == self.weighted_sum - self.correction

    @property
    def cov_ok(self) -> bool:
        return self.correction == self.correction_cov


def anti_sieve_split(F: dict, x: int, alpha, yfun, W: IntegerWeights) -> AntiSieveRecord:
    """Exact three-term split of the window sum of a pair table.

    F maps integer pairs (a, b) with a, b >= 1 to numbers.  The a-window is
    x^alpha / yfun < a < x^alpha * yfun, compared exactly through the
    rational exponent.  Inserting the divisor weights is lossless because
    only d = 1 survives below the support floor; the correction term is then
    rewritten by a = d*a' and re-summed as a check of the change of
    variables, whose inner window is
    max(yfun^2, x^alpha/(a'*yfun)) < d < x^alpha*yfun/a'.
    """
    alpha = Fraction(alpha)
    yfun = Fraction(yfun)
    if x < 1 or yfun <= 0 or not 0 <= alpha <= 1:
        raise ValueError("need x >= 1, yfun > 0, alpha in [0, 1]")
    floor = yfun * yfun
    W.check(floor)
    p, q = alpha.numerator, alpha.denominator
    xp = x**p

    def a_in_window(a: int) -> bool:
        # x^alpha / yfun < a  and  a < x^alpha * yfun
        yn, yd = yfun.numerator, yfun.denominator
        return (a * yn) ** q * 1 > xp * yd**q and (a * yd) ** q < xp * yn**q

    window_sum = 0
    weighted = 0
    correction = 0
    for (a, b), val in F.items():
        if a < 1 or b < 1:
            raise ValueError("pair table wants positive coordinates")
        if not a_in_window(a):
            continue
        window_sum = window_sum + val
        full = 0
        high = 0
        for d, wt in W.weights.items():
            if wt and a % d == 0:
                full += wt
                if d > floor:
                    high += wt
        weighted = weighted + full * val
        correction = correction + high * val

    correction_cov = 0
    yn, yd = yfun.numerator, yfun.denominator
    for d, wt in W.weights.items():
        if not wt or d <= floor:
            continue
        for (aa, bb), val in F.items():
            if aa % d:
                continue
            a_prime = aa // d
            # max(yfun^2, x^alpha/(a'*yfun)) < d < x^alpha*yfun/a'; d > yfun^2
            # holds already
            if not (d * a_prime * yn) ** q > xp * yd**q:
                continue
            if not (d * a_prime * yd) ** q < xp * yn**q:
                continue
            # re-index through b' = d*b: F_{a'd, b'/d} with b' = d*bb
            correction_cov = correction_cov + wt * F[(a_prime * d, (d * bb) // d)]
    return AntiSieveRecord(window_sum, weighted, correction, correction_cov)
