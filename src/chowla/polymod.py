"""Polynomials of degree <= 3 mod a prime p: roots, splitting type, lifting.

Coefficient lists are lowest-degree-first.  Roots come in two lane shapes
with one algebra: gcd(f, t^p - t), then one Cantor-Zassenhaus step where f
splits completely.  ``roots_mod_p`` solves one prime on Python ints, for
the ideal layer; ``roots_mod_primes`` solves every prime of a sieve at once
on int64 numpy lanes, one lane per prime, all lanes in step.
"""
from __future__ import annotations

import numpy as np

from .cubic_form import ExactRangeError


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_reduce(a, p: int) -> list[int]:
    return _trim([c % p for c in a])


def poly_eval(a, x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


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


def roots_mod_p(coeffs, p: int) -> list[int]:
    """Distinct roots in GF(p) of a polynomial of degree <= 3, sorted.

    Solved as the monic cubic of ``_cubic_roots`` on Python ints: a
    polynomial f of degree k < 3 mod p is taken as t^(3-k) * f, and the
    root 0 this adds is dropped unless f(0) = 0 mod p, as in
    ``roots_mod_primes``.
    """
    f = poly_reduce(coeffs, p)
    if not f:
        raise ValueError(f"polynomial vanishes identically mod {p}")
    cubic = [0] * (4 - len(f)) + f
    inv = pow(f[-1], -1, p)
    roots = _cubic_roots(*(c * inv % p for c in cubic[:3]), p)
    return roots[1:] if len(f) < 4 and f[0] else roots


# Lanes hold residues below 2^31: a product of two is below 2^62, and a sum
# of two such products, 2*(2^31 - 1)^2 at most, still fits in int64.
_LANE_LIMIT = 1 << 31
# shifts delta (and non-residue candidates) tried per open lane in one pass
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
    """``_gcd_root`` on lanes: (x, found, divides) per lane.

    Where found, x is a root of f = t^3 + B*t^2 + C*t + D.  Where h divides
    f (divides), x is the root of f / h, as in ``_gcd_root``.  A lane with
    h = 0 is not found.  Each lane takes one modular inverse: the remainder
    of f by a quadratic h is read scaled by h2^2.
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


def _lane_nonresidues(p):
    """A quadratic non-residue mod each odd prime p, from 2, 3, 4, ..."""
    z = np.zeros_like(p)
    todo = np.arange(p.size)
    start = 2
    while todo.size:
        lane = np.repeat(todo, _TRIES)
        cand = np.tile(np.arange(start, start + _TRIES, dtype=np.int64), todo.size)
        q = p[lane]
        hit = _lane_pow(cand, (q - 1) // 2, q) == q - 1
        z[lane[hit]] = cand[hit]  # any non-residue serves
        todo = todo[z[todo] == 0]
        start += _TRIES
    return z


def _lane_sqrt(n, p):
    """A square root of each quadratic residue n mod an odd prime p.

    Tonelli-Shanks with p - 1 = q * 2^s, all lanes in step: t = n^q is
    pushed down the 2-Sylow subgroup one order at a time by c = z^q, its
    generator, so step i runs on the lanes with s > i.
    """
    q = p - 1
    while True:
        even = q % 2 == 0
        if not even.any():
            break
        q = np.where(even, q // 2, q)
    low = (p - 1) // q  # 2^s
    x = _lane_pow(n, (q - 1) // 2, p)
    r = n * x % p
    t = r * x % p
    c = np.ones_like(p)  # lanes with s = 1 take no step
    deep = np.nonzero(low > 2)[0]
    if deep.size:
        c[deep] = _lane_pow(_lane_nonresidues(p[deep]), q[deep], p[deep])
    for i in reversed(range(1, int(low.max()).bit_length() - 1)):
        # on the live lanes t has order dividing 2^i, and c order 2^(i+1)
        live = low > 1 << i
        d = t
        for _ in range(i - 1):
            d = d * d % p
        flip = live & (d == p - 1)
        r = np.where(flip, r * c % p, r)
        c = np.where(live, c * c % p, c)
        t = np.where(flip, t * c % p, t)
    return r


def _lane_split_roots(B, C, D, p):
    """The three roots of monic cubics f that divide t^p - t, p odd.

    Cantor-Zassenhaus as in ``_cubic_roots``: for delta = 1, 2, ... on the
    lanes still open, gcd(f, (t + delta)^((p-1)/2) - 1) yields one root r,
    read off g(u) = f(u - delta), whose roots are those of f shifted by
    delta, as gcd(g, u^((p-1)/2) - 1); then f / (t - r) by the quadratic
    formula.
    """
    r = np.full_like(p, -1)
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
        r[lane[found]] = (x[found] + shift[found]) % q[found]  # any root found serves
        todo = todo[r[todo] < 0]
        delta += _TRIES
    e1 = (B + r) % p  # f / (t - r) = t^2 + e1*t + e0
    e0 = (C + r * e1) % p
    s = _lane_sqrt((e1 * e1 - 4 * e0) % p, p)
    half = (p + 1) // 2
    return r, (s - e1) * half % p, (-s - e1) * half % p


def roots_mod_primes(coeffs, primes) -> tuple[np.ndarray, np.ndarray]:
    """Distinct roots of a polynomial of degree <= 3 mod every prime given.

    Returns (pair_p, pair_r), int64 arrays with one entry per root, in the
    order of primes and sorted within each prime: what ``roots_mod_p`` finds
    one prime at a time.  One lane per prime, all lanes in step, the same
    algebra as ``_cubic_roots``.  A lane where p divides the leading
    coefficient solves the cubic t^k * f instead and drops the root 0 it
    added unless f(0) = 0 mod p.  Every lane is exact for p < 2^31; a larger
    prime raises ExactRangeError.
    """
    p = np.asarray(primes, dtype=np.int64)
    if not p.size:
        return p.copy(), p.copy()
    if int(p.max()) >= _LANE_LIMIT:
        raise ExactRangeError(f"prime {int(p.max())} is past the exact int64 root lanes")
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


def _derivative(coeffs) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def factor_cubic_mod_p(coeffs, p: int) -> tuple[list[tuple[int, int]], int]:
    """Splitting type of a cubic mod p, read off its distinct roots.

    Returns ([(root, mult), ...] sorted by root, rest_degree).  A root r is
    repeated exactly when f'(r) = 0 mod p; a cubic has at most one repeated
    root, and its multiplicity is 4 - (number of distinct roots).  The rest,
    of degree 0, 2 or 3, has no root, so it is irreducible.
    """
    f = poly_reduce(coeffs, p)
    if len(f) != 4:
        raise ValueError("factor_cubic_mod_p wants a cubic that stays cubic mod p")
    roots = roots_mod_p(f, p)
    fprime = _derivative(f)
    mults = [4 - len(roots) if poly_eval(fprime, r, p) == 0 else 1 for r in roots]
    return list(zip(roots, mults)), 3 - sum(mults)


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
