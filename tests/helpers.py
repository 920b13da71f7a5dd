"""Shared test utilities: independent oracles and random-object builders.

The oracles here deliberately avoid the package's own factoring code so
that agreement is evidence, not circularity: plain sieves, plain trial
division, plain lattice scans.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from chowla.ideal_arith import Ideal, PrimeIdeal, mu_ideal, norm, tau
from chowla.region_lattice import RowForm


# ------------------------------------------------------------- int oracles


def simple_primes(limit: int) -> list[int]:
    """Plain sieve of Eratosthenes, independent of the package."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [i for i in range(2, limit + 1) if flags[i]]


def spf_parity_tables(limit: int):
    """(mu, lam, omg) int arrays via a smallest-prime-factor walk."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if spf[p] == 0:
            seg = spf[p::p]
            seg[seg == 0] = p
    mu = np.zeros(limit + 1, dtype=np.int8)
    lam = np.zeros(limit + 1, dtype=np.int8)
    omg = np.zeros(limit + 1, dtype=np.int8)
    if limit >= 1:
        mu[1] = lam[1] = omg[1] = 1
    for n in range(2, limit + 1):
        p = int(spf[n])
        m = n // p
        lam[n] = -lam[m]
        if m % p == 0:
            mu[n] = 0
            omg[n] = omg[m]
        else:
            mu[n] = -mu[m]
            omg[n] = -omg[m]
    return mu, lam, omg


def trial_factor(n: int) -> list[tuple[int, int]]:
    """Factor |n| by schoolbook trial division (n != 0)."""
    m = abs(n)
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def trial_mu(n: int) -> int:
    fs = trial_factor(n)
    if any(e > 1 for _, e in fs):
        return 0
    return -1 if len(fs) % 2 else 1


def grid_mu_sums(form, N: int) -> tuple[int, int]:
    """(points, mu-sum) over the full box [-N, N]^2 minus the origin, by
    whole-array divide-out over an independently sieved prime list."""
    xs = np.arange(-N, N + 1, dtype=np.int64)
    vals = (
        form.a * xs[None, :] ** 3
        + form.b * xs[None, :] ** 2 * xs[:, None]
        + form.c * xs[None, :] * xs[:, None] ** 2
        + form.d * xs[:, None] ** 3
    ).ravel()
    vals = np.abs(vals)
    origin = (2 * N + 1) * N + N  # flat index of (0, 0)
    vals[origin] = 1
    work = vals.copy()
    mu = np.ones(work.shape, dtype=np.int8)
    bound = int(work.max())
    for p in simple_primes(math.isqrt(bound)):
        hit = work % p == 0
        if not hit.any():
            continue
        work[hit] //= p
        mu[hit] *= -1
        again = hit & (work % p == 0)
        if again.any():
            mu[again] = 0
            while again.any():
                work[again] //= p
                again &= work % p == 0
    big = work > 1
    mu[big] *= -1
    mu[origin] = 0
    points = vals.size - 1
    return points, int(mu.astype(np.int64).sum())


# ------------------------------------------------------------ coset oracle


@dataclass(frozen=True)
class LatticeCoset:
    """offset + integer span of the two basis matrix columns; membership by
    the adjugate, independent of the package's Hermite form."""

    basis: tuple[tuple[int, int], tuple[int, int]]  # rows of the matrix
    offset: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if self.det == 0:
            raise ValueError("coset basis is singular")

    @property
    def det(self) -> int:
        (b11, b12), (b21, b22) = self.basis
        return b11 * b22 - b12 * b21

    @property
    def index(self) -> int:
        return abs(self.det)

    def columns(self) -> tuple[tuple[int, int], tuple[int, int]]:
        (b11, b12), (b21, b22) = self.basis
        return (b11, b21), (b12, b22)

    def contains(self, x: int, y: int) -> bool:
        (b11, b12), (b21, b22) = self.basis
        vx, vy = x - self.offset[0], y - self.offset[1]
        det = self.det
        return (b22 * vx - b12 * vy) % det == 0 and (b11 * vy - b21 * vx) % det == 0

    def row_form(self) -> RowForm:
        return RowForm.span(self.columns(), self.offset)


# ------------------------------------------------------------- cubic oracles


def brute_splitting(coeffs, p: int) -> tuple[list[tuple[int, int]], int]:
    """Splitting type of a monic cubic mod p by synthetic division.

    Divides t - r out of the lowest-first coefficient list for every r in
    GF(p), as often as it goes; returns ([(root, multiplicity), ...], degree
    of the rootless rest).
    """
    rest = [c % p for c in coeffs]
    found = []
    for r in range(p):
        mult = 0
        while len(rest) > 1:
            acc, quot = 0, []
            for c in reversed(rest):
                acc = (acc * r + c) % p
                quot.append(acc)
            if quot.pop():
                break
            rest = quot[::-1]
            mult += 1
        if mult:
            found.append((r, mult))
    return found, len(rest) - 1


def _det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def index_divisible_by_integrality(coeffs, p: int) -> bool:
    """Does p divide [O_K : Z[theta]], theta a root of the monic cubic?

    True exactly when some nonzero (a + b*theta + c*theta^2)/p with
    0 <= a, b, c < p is an algebraic integer, i.e. when the element
    beta = a + b*theta + c*theta^2 has trace = 0 mod p, second symmetric
    function = 0 mod p^2 and norm = 0 mod p^3.  The three are read off
    the matrix of beta on the basis 1, theta, theta^2.
    """
    d0, c1, b2, _ = coeffs
    theta = [[0, 0, -d0], [1, 0, -c1], [0, 1, -b2]]  # columns: theta * basis
    theta2 = [[sum(theta[i][k] * theta[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    for a, b, c in itertools.product(range(p), repeat=3):
        if a == b == c == 0:
            continue
        m = [
            [(a if i == j else 0) + b * theta[i][j] + c * theta2[i][j] for j in range(3)]
            for i in range(3)
        ]
        trace = m[0][0] + m[1][1] + m[2][2]
        e2 = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i] for i in range(3) for j in range(i + 1, 3))
        if trace % p == 0 and e2 % (p * p) == 0 and _det3(m) % p**3 == 0:
            return True
    return False


# ------------------------------------------------------------- ideal builders


def random_ideal(
    rng: random.Random,
    primes: list[PrimeIdeal],
    max_primes: int = 4,
    max_exp: int = 2,
    nonunit: bool = False,
) -> Ideal:
    while True:
        k = rng.randint(1 if nonunit else 0, min(max_primes, len(primes)))
        chosen = rng.sample(primes, k)
        a = Ideal.from_factors((q, rng.randint(1, max_exp)) for q in chosen)
        if not (nonunit and a.is_unit):
            return a


def rad(a: Ideal) -> Ideal:
    """The product of the distinct primes dividing a."""
    return Ideal.from_factors((q, 1) for q, _ in a.factors)


def divide(a: Ideal, b: Ideal) -> Ideal:
    """a / b for b | a; ValueError otherwise."""
    acc = dict(a.factors)
    for q, e in b.factors:
        acc[q] = acc.get(q, 0) - e
        if acc[q] < 0:
            raise ValueError("not a divisor")
    return Ideal.from_factors(acc.items())


def divisors(a: Ideal, cap: int = 1 << 16):
    """All tau(a) divisors, each exactly once."""
    if tau(a) > cap:
        raise ValueError(f"divisor count {tau(a)} exceeds the cap {cap}")
    primes = [q for q, _ in a.factors]
    for exps in itertools.product(*(range(e + 1) for _, e in a.factors)):
        yield Ideal.from_factors(zip(primes, exps))


# ------------------------------------------------------------- window oracles


def split_S(a: Ideal, S) -> tuple[Ideal, Ideal]:
    """(part supported on S, part outside S); the product is a."""
    sset = set(S)
    inside = [(q, e) for q, e in a.factors if q in sset]
    outside = [(q, e) for q, e in a.factors if q not in sset]
    return Ideal.from_factors(inside), Ideal.from_factors(outside)


def sum_star_pairs(a: Ideal, Q, cap: int = 1 << 16):
    """All pairs (b, c) with b*c | a and the Q-part of b equal to that of a,
    as ideals, mu(c) = 0 included.

    The Q-part of b must exhaust a's, which forces c to avoid Q entirely; so
    b = (Q-part of a) * b' with b'*c dividing the non-Q part.
    """
    if tau(a) > cap:
        raise ValueError(f"divisor count {tau(a)} exceeds the cap {cap}")
    q_part, m = split_S(a, Q)
    for d in divisors(m, cap):
        for b_prime in divisors(d, cap):
            yield q_part * b_prime, divide(d, b_prime)


def beta_all_oracle(a: Ideal, h, P) -> list:
    """The seven window sums, tallied pair by pair over ``sum_star_pairs``
    with ideal norms compared against the Fraction cuts."""
    y, u, w = P.y, P.u, P.w
    betas = [0] * 8  # 1-indexed
    if norm(a) <= u:
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


def groupings_oracle(a: Ideal, h, P) -> tuple:
    """(sum of h(b) mu(c) over b > u, c > u; the same over b <= u, c <= u)."""
    u = P.u
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
    return high, low
