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

from chowla.cubic_form import BinaryCubicForm
from chowla.ideal_arith import Ideal, PrimeIdeal, mu_ideal, norm, tau
from chowla.region_lattice import ConvexRegion, RowForm


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


# ------------------------------------------------------------- Brun tables


def truncated_mobius_oracle(units, norm_of, cut, depth: int, product) -> dict:
    """Every set of at most depth distinct units whose norms multiply to at
    most cut, keyed by product(set) and weighted (-1)^size.  No set of k
    units qualifies once the k least norms multiply past cut."""
    least = sorted(norm_of(u) for u in units)
    table = {}
    for k in range(depth + 1):
        if math.prod(least[:k]) > cut:
            break
        for subset in itertools.combinations(units, k):
            if math.prod(norm_of(u) for u in subset) <= cut:
                table[product(subset)] = (-1) ** k
    return table


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


# ------------------------------------------------------------ GL2(Z) action
# For g in GL2(Z), Q -> g*Q is a bijection of Z^2 that keeps gcd(x, y), and
# f(g*Q) = (f o g)(Q): sums over (f, S, L) equal those over
# (f o g, g^-1 S, g^-1 L).  g = ((p, q), (r, s)) by rows.


def gl2_inverse(g):
    """g^-1, exact: det g = +-1, so g^-1 = det(g) * adj(g)."""
    (p, q), (r, s) = g
    det = p * s - q * r
    if det not in (1, -1):
        raise ValueError("not in GL2(Z)")
    return (s * det, -q * det), (-r * det, p * det)


def gl2_point(g, v):
    """g * v for a column vector v = (x, y)."""
    (p, q), (r, s) = g
    x, y = v
    return p * x + q * y, r * x + s * y


def gl2_form(f, g) -> BinaryCubicForm:
    """f o g: the form (x, y) -> f(p*x + q*y, r*x + s*y), expanded on
    Python ints."""
    (p, q), (r, s) = g
    out = [0, 0, 0, 0]
    for k, coeff in enumerate(f.coeffs):  # coeff * X^(3-k) * Y^k
        term = [coeff]  # coefficients of x^(deg) .. y^(deg)
        for u, v in [(p, q)] * (3 - k) + [(r, s)] * k:
            term = [a * u + b * v for a, b in zip(term + [0], [0] + term)]
        out = [o + t for o, t in zip(out, term)]
    return BinaryCubicForm(*out)


def gl2_polygon(g, S: ConvexRegion) -> ConvexRegion:
    """g * S for a polygon S, by its vertices."""
    return ConvexRegion.polygon([gl2_point(g, v) for v in S.data])


def gl2_coset(g, L: RowForm) -> RowForm:
    """g * L: the span of the images of L's basis (a, 0), (b, c), through
    the image of its point (x0, y0)."""
    gens = [gl2_point(g, (L.a, 0)), gl2_point(g, (L.b, L.c))]
    return RowForm.span(gens, gl2_point(g, (L.x0, L.y0)))


# ------------------------------------------------------------- cubic oracles


# Cantor-Zassenhaus one prime at a time on Python ints: an independent
# reference for the package's root lanes at primes too many to scan.


def _sqrt_mod(n: int, p: int) -> int:
    """A square root of a nonzero quadratic residue n mod an odd prime p."""
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    # Tonelli-Shanks: p - 1 = q * 2^s with q odd, z a non-residue
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _quadratic_roots(b: int, c: int, p: int) -> list[int]:
    """Distinct roots of t^2 + b*t + c mod an odd prime p, sorted."""
    disc = (b * b - 4 * c) % p
    half = (p + 1) // 2
    if disc == 0:
        return [-b * half % p]
    if pow(disc, (p - 1) // 2, p) != 1:
        return []
    s = _sqrt_mod(disc, p)
    return sorted(((s - b) * half % p, (-s - b) * half % p))


def _pow_linear(delta: int, e: int, t3, t4, p: int) -> tuple[int, int, int]:
    """(t + delta)^e mod a monic cubic f, e >= 1, as the coefficient triple
    (c0, c1, c2) of c0 + c1*t + c2*t^2; t3 and t4 are t^3 and t^4 mod f."""
    t30, t31, t32 = t3
    t40, t41, t42 = t4
    a0, a1, a2 = delta % p, 1, 0
    for bit in bin(e)[3:]:
        e3, e4 = 2 * a1 * a2, a2 * a2
        a0, a1, a2 = (
            (a0 * a0 + e3 * t30 + e4 * t40) % p,
            (2 * a0 * a1 + e3 * t31 + e4 * t41) % p,
            (2 * a0 * a2 + a1 * a1 + e3 * t32 + e4 * t42) % p,
        )
        if bit == "1":
            a0, a1, a2 = (
                (a2 * t30 + delta * a0) % p,
                (a0 + a2 * t31 + delta * a1) % p,
                (a1 + a2 * t32 + delta * a2) % p,
            )
    return a0, a1, a2


def _gcd_root(B: int, C: int, D: int, h, p: int):
    """A root of f = t^3 + B*t^2 + C*t + D read off gcd(f, h), h = (h0, h1, h2) != 0.

    Returns (r, True) when h made monic divides f, with r the root of
    f / h; otherwise gcd(f, h) = gcd(h, f mod h) is at most linear, and
    (x, False) is returned when f vanishes at x, the root of whichever of
    h and f mod h is linear; else None.
    """
    h0, h1, h2 = h
    if h2:
        inv = pow(h2, -1, p)
        g1, g0 = h1 * inv % p, h0 * inv % p
        # f mod (t^2 + g1*t + g0), using t^3 = (g1^2 - g0)*t + g1*g0 there
        h1 = (g1 * g1 - g0 - B * g1 + C) % p
        h0 = (g1 * g0 - B * g0 + D) % p
        if not (h1 or h0):
            return (g1 - B) % p, True
    if not h1:
        return None
    x = -h0 * pow(h1, -1, p) % p
    return (x, False) if (((x + B) * x + C) * x + D) % p == 0 else None


def _cubic_roots(D: int, C: int, B: int, p: int) -> list[int]:
    """Distinct roots of the monic t^3 + B*t^2 + C*t + D mod a prime p.

    For p = 2, t^p - t has degree 2, so it is never 0 mod f and the
    Cantor-Zassenhaus step, which needs p odd, is not reached.
    """
    t3 = (-D % p, -C % p, -B % p)
    t4 = (B * D % p, (B * C - D) % p, (B * B - C) % p)
    h0, h1, h2 = _pow_linear(0, p, t3, t4, p)
    h = (h0, (h1 - 1) % p, h2)  # t^p - t mod f
    if any(h):
        # every root of f is a root of t^p - t, so the gcd holds all of them
        found = _gcd_root(B, C, D, h, p)
        if found is None:
            return []
        r, repeated = found
        # a degree-2 gcd: two distinct roots, r the double one
        return sorted((r, (-B - 2 * r) % p)) if repeated else [r]
    # f divides t^p - t: three distinct roots; Cantor-Zassenhaus finds one.
    # delta = 0 never splits a pure cubic t^3 - c: its roots differ by cube
    # roots of unity, which are squares, so t^((p-1)/2) is one value on all three
    for delta in range(1, p):
        w0, w1, w2 = _pow_linear(delta, (p - 1) // 2, t3, t4, p)
        w = ((w0 - 1) % p, w1, w2)
        found = _gcd_root(B, C, D, w, p) if any(w) else None
        if found is not None:
            r = found[0]
            e1 = (B + r) % p  # f / (t - r) = t^2 + e1*t + e0
            return sorted([r] + _quadratic_roots(e1, (C + r * e1) % p, p))
    raise ArithmeticError(f"equal-degree split failed mod {p}")


def scalar_roots_mod_p(coeffs, p: int) -> list[int]:
    """Distinct roots in GF(p) of a polynomial of degree <= 3, sorted: the
    scalar reference for the package's root lanes.

    Solved as the monic cubic of ``_cubic_roots`` on Python ints: a
    polynomial f of degree k < 3 mod p is taken as t^(3-k) * f, and the
    root 0 this adds is dropped unless f(0) = 0 mod p, as in
    ``roots_mod_primes``.
    """
    f = [c % p for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    if not f:
        raise ValueError(f"polynomial vanishes identically mod {p}")
    cubic = [0] * (4 - len(f)) + f
    inv = pow(f[-1], -1, p)
    roots = _cubic_roots(*(c * inv % p for c in cubic[:3]), p)
    return roots[1:] if len(f) < 4 and f[0] else roots


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
