"""Exact ideal arithmetic in the cubic field attached to a monic form.

The field is presented through the order Z[theta] with theta a root of the
monic minimal polynomial; the point map sends (x, y) to the principal ideal
generated by x - y*theta, whose norm is exactly the form value.  Primes whose
square divides the discriminant might divide the index of Z[theta] in the
maximal order; a Dedekind-criterion test shrinks that set, and the survivors
are refused by every operation that would need the maximal order.

Everything here is factorization-level: an ideal is its sorted list of
(prime ideal, exponent) pairs, and the functions on ideals (norm, tau,
Mobius) read off that list exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .cubic_form import BinaryCubicForm, ReducibleFormError, is_irreducible
from .polymod import (
    factor_cubic_mod_p,
    hensel_lift_root,
    poly_eval,
    roots_mod_primes,
    splitting_type,
)
from .primes import factor_int, is_prime, primes_up_to
from .region_lattice import WHOLE_PLANE, RowForm

_SAMPLE_BUDGET = 4_000_000


class IndexBoundError(ValueError):
    """Operation touched a prime that may divide the index of Z[theta]."""


# ------------------------------------------------------------------ field


class CubicField:
    """Cubic field data: minimal polynomial, discriminant, risky primes."""

    __slots__ = ("form", "min_poly", "disc", "index_bound", "_factor_cache")

    def __init__(self, form: BinaryCubicForm, disc: int, index_bound: frozenset[int]):
        self.form = form
        self.min_poly = form.dehomogenized()  # t^3 + b t^2 + c t + d
        self.disc = disc
        self.index_bound = index_bound
        self._factor_cache: dict[int, tuple["PrimeIdeal", ...]] = {}

    def __repr__(self) -> str:
        return f"CubicField(t^3 + {self.form.b}t^2 + {self.form.c}t + {self.form.d})"


def build_field(g: BinaryCubicForm) -> CubicField:
    """Field of the monic irreducible form g, with exact discriminant.

    The index-risk set starts as the primes whose square divides the
    discriminant and is shrunk by the Dedekind criterion per prime.
    """
    if not g.is_monic():
        raise ValueError("field construction needs a monic form")
    if not is_irreducible(g):
        raise ReducibleFormError("field construction needs an irreducible form")
    disc = g.discriminant()
    min_poly = g.dehomogenized()
    risky = frozenset(
        p for p, e in factor_int(abs(disc)) if e >= 2 and _dedekind_index_divisible(min_poly, p)
    )
    return CubicField(g, disc, risky)


def _dedekind_index_divisible(min_poly: list[int], p: int) -> bool:
    """Dedekind's criterion: does p divide [O_K : Z[theta]]?

    Only a repeated root r mod p can share a factor with (f - g*h)/p, and it
    does exactly when f(r) = 0 mod p^2; since p | f'(r), any lift of r will do.
    """
    roots, _ = factor_cubic_mod_p(min_poly, p)
    return any(m > 1 and poly_eval(min_poly, r, p * p) == 0 for r, m in roots)


# ------------------------------------------------------------------ primes


@dataclass(frozen=True, order=False)
class PrimeIdeal:
    """A prime of the field: degree-1 primes carry their root mod p as tag;
    the (unique) higher-degree prime above p carries tag -1."""

    p: int
    residue_degree: int
    ramification: int
    root_tag: int

    @property
    def norm(self) -> int:
        return self.p**self.residue_degree

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.p, self.root_tag)

    def __lt__(self, other: "PrimeIdeal") -> bool:
        return self.sort_key < other.sort_key

    def __repr__(self) -> str:
        tag = "*" if self.root_tag < 0 else str(self.root_tag)
        return f"P({self.p};f{self.residue_degree}e{self.ramification};t{tag})"


def _prime_ideals(p: int, split) -> tuple[PrimeIdeal, ...]:
    """The prime ideals above p, sorted, from the splitting type of the
    minimal polynomial mod p: ([(root, mult), ...], rest_degree)."""
    roots, rest = split
    out = [PrimeIdeal(p, 1, mult, root) for root, mult in roots]
    if rest:
        out.append(PrimeIdeal(p, rest, 1, -1))
    if sum(q.residue_degree * q.ramification for q in out) != 3:
        raise ArithmeticError(f"splitting of {p} does not sum to the field degree")
    return tuple(sorted(out))


def factor_prime(K: CubicField, p: int) -> list[PrimeIdeal]:
    """Prime ideals above p, from the factorization of the minimal polynomial."""
    cached = K._factor_cache.get(p)
    if cached is not None:
        return list(cached)
    if p in K.index_bound:
        raise IndexBoundError(f"unsupported: {p} may divide the index")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    out = K._factor_cache[p] = _prime_ideals(p, factor_cubic_mod_p(K.min_poly, p))
    return list(out)


def prime_ideals_up_to(K: CubicField, B: int) -> list[PrimeIdeal]:
    """All prime ideals of norm <= B above usable primes, sorted.

    The primes not yet in K's cache are solved by one ``roots_mod_primes``
    call, and their prime ideals cached as ``factor_prime`` caches them.
    """
    primes = [p for p in primes_up_to(B).tolist() if p not in K.index_bound]
    roots: dict[int, list[int]] = {p: [] for p in primes if p not in K._factor_cache}
    for p, r in zip(*(a.tolist() for a in roots_mod_primes(K.min_poly, list(roots)))):
        roots[p].append(r)
    for p, rs in roots.items():
        K._factor_cache[p] = _prime_ideals(p, splitting_type(K.min_poly, p, rs))
    return sorted(q for p in primes for q in K._factor_cache[p] if q.norm <= B)


# ------------------------------------------------------------------ ideals


@dataclass(frozen=True)
class Ideal:
    """Product of prime ideals, canonically sorted; empty tuple = unit ideal."""

    factors: tuple[tuple[PrimeIdeal, int], ...] = ()

    @staticmethod
    def unit() -> "Ideal":
        return Ideal(())

    @staticmethod
    def from_factors(pairs: Iterable[tuple[PrimeIdeal, int]]) -> "Ideal":
        acc: dict[PrimeIdeal, int] = {}
        for q, e in pairs:
            if e < 0:
                raise ValueError("negative exponent")
            if e:
                acc[q] = acc.get(q, 0) + e
        items = sorted(acc.items(), key=lambda t: t[0].sort_key)
        return Ideal(tuple(items))

    @staticmethod
    def prime(q: PrimeIdeal, e: int = 1) -> "Ideal":
        return Ideal.from_factors([(q, e)])

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def valuation(self, q: PrimeIdeal) -> int:
        for qq, e in self.factors:
            if qq == q:
                return e
        return 0

    def __mul__(self, other: "Ideal") -> "Ideal":
        return Ideal.from_factors(list(self.factors) + list(other.factors))

    def divides(self, other: "Ideal") -> bool:
        return all(other.valuation(q) >= e for q, e in self.factors)

    def __repr__(self) -> str:
        if not self.factors:
            return "(1)"
        return "*".join(f"{q}^{e}" if e > 1 else f"{q}" for q, e in self.factors)


def norm(a: Ideal) -> int:
    acc = 1
    for q, e in a.factors:
        acc *= q.norm**e
    return acc


def tau(a: Ideal) -> int:
    acc = 1
    for _, e in a.factors:
        acc *= e + 1
    return acc


def mu_ideal(a: Ideal) -> int:
    if any(e > 1 for _, e in a.factors):
        return 0
    return -1 if len(a.factors) % 2 else 1


# ------------------------------------------------------------------ points


def ideal_from_point(
    K: CubicField, x: int, y: int, factors: Optional[Iterable[tuple[int, int]]] = None
) -> Ideal:
    """The ideal generated by x - y*theta, for coprime (x, y).

    For each prime p dividing the (nonzero) form value, p cannot divide y
    (monic model), so exactly one degree-1 prime above p — the one whose
    root tag is x/y mod p — divides the point, with the full valuation.
    For p not dividing the discriminant that prime is unramified, so it is
    built directly; only p | disc reads the splitting from ``factor_prime``.
    A precomputed factorization of |f(x, y)| may be passed to skip the
    factoring step (it is still checked through the norm identity).
    """
    if math.gcd(x, y) != 1:
        raise ValueError("point must be primitive (coprime coordinates)")
    v = K.form(x, y)
    if v == 0:
        raise ValueError("form vanishes at the point")
    pairs = []
    for p, e in factors if factors is not None else factor_int(abs(v)):
        if p in K.index_bound:
            raise IndexBoundError(f"unsupported: value divisible by index-risk prime {p}")
        if y % p == 0:
            raise ArithmeticError("monic model cannot have p | y at a struck point")
        r = (x * pow(y, -1, p)) % p
        if K.disc % p:
            pairs.append((PrimeIdeal(p, 1, 1, r), e))
            continue
        match = next(
            (q for q in factor_prime(K, p) if q.residue_degree == 1 and q.root_tag == r),
            None,
        )
        if match is None:
            raise ArithmeticError(f"no degree-1 prime above {p} matches the point")
        pairs.append((match, e))
    ideal = Ideal.from_factors(pairs)
    if norm(ideal) != abs(v):
        raise ArithmeticError("point ideal norm does not reproduce the value")
    return ideal


def valuation_at_point(K: CubicField, q: PrimeIdeal, x: int, y: int) -> float:
    """v at the prime q of the element x - y*theta; (0, 0) maps to infinity."""
    if x == 0 and y == 0:
        return math.inf
    p = q.p
    if p in K.index_bound:
        raise IndexBoundError(f"unsupported: valuation at index-risk prime {p}")
    s = 0
    while x % p == 0 and y % p == 0:
        x //= p
        y //= p
        s += 1
    val = s * q.ramification
    if q.residue_degree == 1 and y % p != 0:
        r = (x * pow(y, -1, p)) % p
        if r == q.root_tag:
            v = abs(K.form(x, y))
            while v % p == 0:
                v //= p
                val += 1
    return val


def point_lattice(K: CubicField, q: PrimeIdeal, v: int) -> RowForm:
    """The lattice of (x, y) with v at q of x - y*theta at least v.

    Degree-1 unramified primes give a single congruence x = r*y modulo p^v
    with r the Hensel-lifted root; higher-degree primes give p^ceil(v/e)
    times the full lattice; ramified degree-1 primes are sampled over a
    fundamental domain and the lattice is rebuilt from the members.
    """
    if v < 0:
        raise ValueError("negative order")
    if v == 0:
        return WHOLE_PLANE
    p = q.p
    if q.residue_degree == 1 and q.ramification == 1:
        r = hensel_lift_root(K.min_poly, p, q.root_tag, v)
        m = p**v
        return RowForm(1, 0, m, r % m, 0)
    if q.residue_degree >= 2:
        m = p ** _ceil_div(v, q.ramification)
        return RowForm(m, 0, m, 0, 0)
    # ramified degree-1: sample the fundamental domain
    k = _ceil_div(v, q.ramification)
    mod = p**k
    if mod * mod > _SAMPLE_BUDGET:
        raise ValueError("sampling domain too large for a ramified-prime lattice")
    members = [
        (x, y)
        for y in range(mod)
        for x in range(mod)
        if valuation_at_point(K, q, x, y) >= v
    ]
    form = RowForm.span(members + [(mod, 0), (0, mod)])
    if form.index * len(members) != mod * mod:
        raise ArithmeticError("rebuilt lattice index disagrees with the member count")
    return form


def ideal_lattice(K: CubicField, d: Ideal) -> RowForm:
    """Intersection of the prime-power point lattices of d (a sublattice)."""
    acc = WHOLE_PLANE
    for q, e in d.factors:
        nxt = acc.intersect(point_lattice(K, q, e))
        if nxt is None:
            raise ArithmeticError("point lattices of one ideal cannot be disjoint")
        acc = nxt
    return acc


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def compute_D0(K: CubicField) -> int:
    """Product of the primes dividing the discriminant (index risks included).

    Outside these primes, any prime ideal dividing a primitive point value
    is unramified of degree 1, so its norm is a rational prime.
    """
    acc = 1
    for p, _ in factor_int(abs(K.disc)):
        acc *= p
    return acc
