"""Polynomials of degree <= 3 mod a prime p: roots, splitting type, lifting.

Coefficient lists are lowest-degree-first.  Roots have one algorithm in one
shape: ``roots_mod_primes`` solves every prime given at once, one numpy lane
per prime, all lanes in step, by gcd(f, t^p - t) and then, where f splits
completely, Cantor-Zassenhaus shifts until two distinct roots turn up; the
third follows, as the roots of a monic cubic sum to minus its t^2
coefficient.  ``roots_mod_p`` is one lane of it.  The lanes are int64 for
primes below 2^31 and Python ints past that.
"""
from __future__ import annotations

import numpy as np


def poly_eval(a, x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


# Lanes hold residues below 2^31: a product of two is below 2^62, and a sum
# of two such products, 2*(2^31 - 1)^2 at most, still fits in int64.
_LANE_LIMIT = 1 << 31
# shifts delta tried per open lane in one pass
_TRIES = 4


def _bits(e):
    """The bits of each lane's exponent e, most significant first, one 0/1
    array per bit."""
    for k in reversed(range(int(e.max()).bit_length())):
        yield (e >> k) % 2


def _lane_pow(b, e, p):
    """b^e mod p per lane, by square-and-multiply over the bits of each e."""
    b = b % p
    r = np.ones_like(p)
    for odd in _bits(e):
        r = r * r % p
        r = np.where(odd, r * b % p, r)
    return r


def _lane_pow_t(e, B, C, D, p):
    """t^e mod the monic t^3 + B*t^2 + C*t + D per lane, as (c0, c1, c2)."""
    a0, a1, a2 = np.ones_like(p), np.zeros_like(p), np.zeros_like(p)
    nD = -D
    for odd in _bits(e):
        # square, reducing 2*a before it multiplies; t^4 and then t^3 fold
        # back through t^3 = -B*t^2 - C*t - D
        u, v = 2 * a2 % p, 2 * a1 % p
        s4 = a2 * a2 % p
        s3 = (a1 * u - B * s4) % p
        s2 = (a0 * u + a1 * a1) % p
        a0, a1, a2 = (
            (a0 * a0 - D * s3) % p,
            (a0 * v % p - D * s4 - C * s3) % p,
            (s2 - C * s4 - B * s3) % p,
        )
        a0, a1, a2 = (  # times t
            np.where(odd, nD * a2 % p, a0),
            np.where(odd, (a0 - C * a2) % p, a1),
            np.where(odd, (a1 - B * a2) % p, a2),
        )
    return a0, a1, a2


def _lane_gcd_root(B, C, D, h0, h1, h2, p):
    """A root of f = t^3 + B*t^2 + C*t + D read off gcd(f, h), h = h0 +
    h1*t + h2*t^2: (x, found, divides) per lane.

    Where h made monic divides f (divides), x is the root of f / h.
    Otherwise gcd(f, h) = gcd(h, f mod h) is at most linear, and x is the
    root of whichever of h and f mod h is linear, found only where f
    vanishes at it.  A lane with h = 0 is not found.  Each lane takes one
    modular inverse: the remainder of f by a quadratic h is read scaled by
    h2^2.
    """
    y = h0 * h2 % p
    sq = h2 * h2 % p
    # h2^2 * (f mod h) = R1*t + R0 for a quadratic h
    R1 = ((h1 * h1 - B * h1 % p * h2) % p - y + C * sq) % p
    R0 = ((h1 * h0 - B * y) % p + D * sq) % p
    quad = h2 != 0
    divides = quad & (R1 == 0) & (R0 == 0)
    num = np.where(divides, h1 - B * h2, np.where(quad, -R0, -h0)) % p
    den = np.where(divides, h2, np.where(quad, R1, h1))
    found = den != 0
    x = num * _lane_pow(np.where(found, den, 1), p - 2, p) % p
    # a linear gcd candidate is a root only where f vanishes
    fx = (((x + B) * x % p + C) * x + D) % p
    return x, found & (divides | (fx == 0)), divides


def _lane_split_roots(B, C, D, p):
    """The three roots of monic cubics f that divide t^p - t, p odd.

    Cantor-Zassenhaus: for delta = 1, 2, ... on the lanes still open,
    gcd(f, (t + delta)^((p-1)/2) - 1) yields one root, read off
    g(u) = f(u - delta), whose roots are those of f shifted by delta, as
    gcd(g, u^((p-1)/2) - 1).  A lane stays open until its shifts have
    yielded two distinct roots r0 and r1; the third is -B - r0 - r1, since
    the roots of a monic cubic sum to -B.  delta = 0 is skipped: it never
    splits a pure cubic t^3 - c, whose roots differ by cube roots of unity,
    which are squares, so t^((p-1)/2) takes one value on all three.
    """
    r0, r1 = np.full_like(p, -1), np.full_like(p, -1)
    todo = np.arange(p.size)
    delta = 1
    while todo.size:
        if delta >= int(p[todo].max()):
            raise ArithmeticError("equal-degree split failed")
        lane = np.repeat(todo, _TRIES)
        q = p[lane]
        shift = -np.tile(np.arange(delta, delta + _TRIES, dtype=np.int64), todo.size) % q
        # g(u) = f(u + shift), by Taylor shift
        g = [D[lane], C[lane], B[lane], np.ones_like(q)]
        for i in range(3):
            for j in range(2, i - 1, -1):
                g[j] = (g[j] + shift * g[j + 1]) % q
        w0, w1, w2 = _lane_pow_t((q - 1) // 2, g[2], g[1], g[0], q)
        x, found, _ = _lane_gcd_root(g[2], g[1], g[0], (w0 - 1) % q, w1, w2, q)
        x = (x + shift) % q
        first = found & (r0[lane] < 0)
        r0[lane[first]] = x[first]  # any root found serves
        second = found & (x != r0[lane])
        r1[lane[second]] = x[second]
        todo = todo[r1[todo] < 0]
        delta += _TRIES
    return r0, r1, (-B - r0 - r1) % p


def roots_mod_primes(coeffs, primes) -> tuple[np.ndarray, np.ndarray]:
    """Distinct roots of a polynomial of degree <= 3 mod every prime given.

    Returns (pair_p, pair_r), arrays with one entry per root, in the order
    of primes and sorted within each prime.  One lane per prime, all lanes
    in step: the roots are those of gcd(f, t^p - t), and where f divides
    t^p - t, Cantor-Zassenhaus shifts find two of its three roots and their
    sum the third.  For p = 2, t^p - t has degree 2, so it is never 0 mod
    f, and that step, which needs p odd, is not reached.  A lane where p
    divides the leading coefficient solves the cubic t^k * f instead and
    drops the root 0 it added unless f(0) = 0 mod p.  The lanes are int64
    when every prime is below 2^31 and every coefficient fits int64;
    otherwise they hold Python ints (object dtype), exact at any size.
    """
    p = np.asarray(primes)
    wide = p.size and (int(p.max()) >= _LANE_LIMIT or any(abs(c) >> 63 for c in coeffs))
    p = p.astype(object if wide else np.int64)
    if not p.size:
        return p, p.copy()
    f = [np.remainder(c, p) for c in coeffs]
    f += [np.zeros_like(p)] * (4 - len(f))
    added = (f[3] == 0) & (f[0] != 0)
    for _ in range(3):
        low = f[3] == 0
        if not low.any():
            break
        f = [np.where(low, f[i - 1] if i else 0, f[i]) for i in range(4)]
    if (f[3] == 0).any():
        raise ValueError(f"polynomial vanishes identically mod {int(p[f[3] == 0][0])}")
    inv = _lane_pow(f[3], p - 2, p)
    D, C, B = (c * inv % p for c in f[:3])
    del f, inv
    h0, h1, h2 = _lane_pow_t(p, B, C, D, p)
    h1 = (h1 - 1) % p  # t^p - t mod f
    x, found, divides = _lane_gcd_root(B, C, D, h0, h1, h2, p)
    # a quadratic gcd: two distinct roots, x the double one
    roots = [np.where(found, x, p), np.where(divides, (-B - 2 * x) % p, p), p.copy()]
    split = np.nonzero((h0 == 0) & (h1 == 0) & (h2 == 0))[0]
    if split.size:
        for col, r in zip(roots, _lane_split_roots(B[split], C[split], D[split], p[split])):
            col[split] = r
    r0, r1, r2 = (np.where(added & (col == 0), p, col) for col in roots)
    # sort each lane's three slots; p marks an empty one
    r0, r1 = np.minimum(r0, r1), np.maximum(r0, r1)
    r1, r2 = np.minimum(r1, r2), np.maximum(r1, r2)
    r0, r1 = np.minimum(r0, r1), np.maximum(r0, r1)
    table = np.stack((r0, r1, r2), axis=1)
    keep = table < p[:, None]
    return np.repeat(p, keep.sum(axis=1)), table[keep]


def roots_mod_p(coeffs, p: int) -> list[int]:
    """Distinct roots in GF(p) of a polynomial of degree <= 3, sorted: one
    lane of ``roots_mod_primes``."""
    return roots_mod_primes([c % p for c in coeffs], [p])[1].tolist()


def _derivative(coeffs) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def splitting_type(coeffs, p: int, roots) -> tuple[list[tuple[int, int]], int]:
    """Splitting type of a cubic that stays cubic mod p, read off its
    distinct roots mod p, sorted.

    Returns ([(root, mult), ...] sorted by root, rest_degree).  A root r is
    repeated exactly when f'(r) = 0 mod p; a cubic has at most one repeated
    root, and its multiplicity is 4 - (number of distinct roots).  The rest,
    of degree 0, 2 or 3, has no root, so it is irreducible.
    """
    fprime = _derivative(coeffs)
    mults = [4 - len(roots) if poly_eval(fprime, r, p) == 0 else 1 for r in roots]
    return list(zip(roots, mults)), 3 - sum(mults)


def factor_cubic_mod_p(coeffs, p: int) -> tuple[list[tuple[int, int]], int]:
    """``splitting_type`` of a cubic mod p, with the roots from ``roots_mod_p``."""
    if coeffs[3] % p == 0:
        raise ValueError("factor_cubic_mod_p wants a cubic that stays cubic mod p")
    return splitting_type(coeffs, p, roots_mod_p(coeffs, p))


def hensel_lift_root(coeffs, p: int, r: int, k: int) -> int:
    """Lift a simple root r of f mod p to the unique root mod p^k."""
    fprime = _derivative(coeffs)
    if poly_eval(fprime, r, p) == 0:
        raise ValueError(f"root {r} of f mod {p} is not simple; no unique lift")
    q = p
    root = r % p
    while q < p**k:
        q = min(q * q, p**k)
        fv = poly_eval(coeffs, root, q)
        dv = poly_eval(fprime, root, q)
        root = (root - fv * pow(dv, -1, q)) % q
    return root % p**k
