"""Polynomials of degree <= 3 mod a prime p: roots, splitting type, lifting.

Coefficient lists are lowest-degree-first. Roots are found in closed form
on Python ints, so every odd p takes the same path.
"""
from __future__ import annotations


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
    """Distinct roots of the monic t^3 + B*t^2 + C*t + D mod an odd prime p."""
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

    For p = 2 both residues are tried.  For odd p the polynomial is made
    monic and solved in closed form on Python ints: a line directly, a
    quadratic by its discriminant, a cubic through gcd(f, t^p - t) and, when
    f splits completely, one Cantor-Zassenhaus step and the quadratic
    formula.
    """
    f = poly_reduce(coeffs, p)
    if not f:
        raise ValueError(f"polynomial vanishes identically mod {p}")
    if p == 2:
        return [r for r in (0, 1) if poly_eval(f, r, 2) == 0]
    inv = pow(f[-1], -1, p)
    monic = [c * inv % p for c in f[:-1]]
    if len(monic) == 0:
        return []
    if len(monic) == 1:
        return [-monic[0] % p]
    if len(monic) == 2:
        return _quadratic_roots(monic[1], monic[0], p)
    return _cubic_roots(*monic, p)


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
