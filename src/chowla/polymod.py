"""Dense polynomial arithmetic mod p for small degrees.

Coefficient lists are lowest-degree-first. Everything here assumes a prime
modulus; degree stays <= 3 throughout the package so no FFT, no sparsity.
"""
from __future__ import annotations

import numpy as np

_BRUTE_LIMIT = 3000  # below this, root finding just scans GF(p)


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_reduce(a, p: int) -> list[int]:
    return _trim([c % p for c in a])


def poly_mul(a, b, p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(out)


def poly_divmod(a, b, p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("poly division by zero")
    a = a[:]
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        d = len(a) - len(b)
        q[d] = c
        for i, cb in enumerate(b):
            a[d + i] = (a[d + i] - c * cb) % p
        _trim(a)
    return _trim(q), a


def poly_gcd(a, b, p: int) -> list[int]:
    """Monic gcd in GF(p)[t]."""
    a, b = poly_reduce(a, p), poly_reduce(b, p)
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def poly_mulmod(a, b, m, p: int) -> list[int]:
    return poly_divmod(poly_mul(a, b, p), m, p)[1]


def poly_powmod(a, e: int, m, p: int) -> list[int]:
    result = [1]
    a = poly_divmod(a, m, p)[1]
    while e:
        if e & 1:
            result = poly_mulmod(result, a, m, p)
        a = poly_mulmod(a, a, m, p)
        e >>= 1
    return result


def poly_eval(a, x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def _roots_brute(coeffs, p: int) -> list[int]:
    t = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed([c % p for c in coeffs]):
        acc = (acc * t + c) % p
    return [int(r) for r in np.nonzero(acc == 0)[0]]


def _split_linear_product(g: list[int], p: int) -> list[int]:
    """Roots of g = product of distinct monic linear factors, deg g >= 1, p odd."""
    deg = len(g) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [(-g[0]) * pow(g[1], -1, p) % p]
    # Cantor-Zassenhaus with a deterministic shift sequence
    for delta in range(p):
        h = poly_powmod([delta, 1], (p - 1) // 2, g, p)
        h = poly_reduce([(h[0] - 1) if h else -1] + h[1:], p)
        d = poly_gcd(g, h, p)
        if 0 < len(d) - 1 < deg:
            q = poly_divmod(g, d, p)[0]
            return sorted(_split_linear_product(d, p) + _split_linear_product(q, p))
    raise ArithmeticError(f"equal-degree split failed mod {p}")


def roots_mod_p(coeffs, p: int) -> list[int]:
    """Distinct roots in GF(p) of a polynomial of degree <= 3, sorted.

    Scans all residues for small p; otherwise finds the product of the
    distinct linear factors via gcd(t^p - t, f) and splits it.
    """
    f = poly_reduce(coeffs, p)
    if not f:
        raise ValueError(f"polynomial vanishes identically mod {p}")
    if p < _BRUTE_LIMIT:
        return _roots_brute(coeffs, p)
    tp = poly_powmod([0, 1], p, f, p)  # t^p mod f
    while len(tp) < 2:
        tp.append(0)
    diff = poly_reduce([tp[0], tp[1] - 1] + list(tp[2:]), p)
    g = poly_gcd(f, diff, p)
    if not g or len(g) == 1:
        return []
    return _split_linear_product(g, p)


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
