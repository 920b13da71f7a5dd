import math
import random

import pytest

from chowla.cubic_form import BinaryCubicForm, ReducibleFormError, is_irreducible
from chowla.ideal_arith import (
    Ideal,
    IndexBoundError,
    build_field,
    compute_D0,
    factor_prime,
    ideal_from_point,
    ideal_lattice,
    mu_ideal,
    norm,
    point_lattice,
    prime_ideals_up_to,
    tau,
    valuation_at_point,
)

from helpers import (
    brute_splitting,
    divide,
    divisors,
    index_divisible_by_integrality,
    rad,
    random_ideal,
    simple_primes,
    trial_factor,
)


def test_build_field_anchors(K2, K23, K31):
    assert K2.disc == -108
    assert K2.index_bound == frozenset()
    assert K23.disc == -23
    assert K23.index_bound == frozenset()
    assert K31.disc == -31
    assert K31.index_bound == frozenset()


def test_build_field_index_bound_detection():
    K = build_field(BinaryCubicForm(1, 1, -2, 8))
    assert K.disc == -2012
    assert K.index_bound == frozenset({2})
    with pytest.raises(IndexBoundError):
        factor_prime(K, 2)
    # 503 divides the discriminant to the first power only: usable
    assert sum(q.ramification * q.residue_degree for q in factor_prime(K, 503)) == 3


def test_build_field_rejects_non_monic():
    with pytest.raises(ValueError):
        build_field(BinaryCubicForm(2, 0, 0, 3))
    with pytest.raises(ReducibleFormError):
        build_field(BinaryCubicForm(1, 0, 0, -8))  # (x - 2y)(x^2 + 2xy + 4y^2)


def test_factor_prime_anchors(K2):
    q5 = factor_prime(K2, 5)
    assert sorted((q.residue_degree, q.ramification) for q in q5) == [(1, 1), (2, 1)]
    deg1 = next(q for q in q5 if q.residue_degree == 1)
    assert (deg1.root_tag**3 + 2) % 5 == 0

    q3 = factor_prime(K2, 3)
    assert len(q3) == 1 and q3[0].ramification == 3 and q3[0].residue_degree == 1
    assert q3[0].root_tag == 1

    q31 = factor_prime(K2, 31)
    assert [q.residue_degree for q in q31] == [1, 1, 1]
    assert sorted(q.root_tag for q in q31) == [11, 24, 27]

    q7 = factor_prime(K2, 7)
    assert len(q7) == 1 and q7[0].residue_degree == 3


def test_factorization_complete(K2, K23, K31):
    for K in (K2, K23, K31):
        for p in simple_primes(300):
            qs = factor_prime(K, p)
            assert sum(q.ramification * q.residue_degree for q in qs) == 3
            assert math.prod(q.norm ** q.ramification for q in qs) == p**3
            # ramification only at discriminant primes
            if K.disc % p:
                assert all(q.ramification == 1 for q in qs)


def _oracle_forms(count: int = 80) -> list[BinaryCubicForm]:
    """Seeded monic irreducible cubics: every other one random, the rest
    (t - r)^2 (t - s) + p*k(t), so that repeated roots mod a small prime
    (and p^2 | disc, with either index outcome) turn up often."""
    rng = random.Random(2005)
    forms = []
    while len(forms) < count:
        if len(forms) % 2:
            b, c, d = (rng.randint(-20, 20) for _ in range(3))
        else:
            p = rng.choice((2, 3, 5, 7))
            r, s = rng.randrange(p), rng.randrange(p)
            k0, k1, k2 = (p * rng.randint(-3, 3) for _ in range(3))
            b, c, d = -2 * r - s + k2, r * r + 2 * r * s + k1, -r * r * s + k0
        g = BinaryCubicForm(1, b, c, d)
        if is_irreducible(g):
            forms.append(g)
    return forms


def test_splitting_law_vs_synthetic_division():
    kinds = set()
    for g in _oracle_forms():
        K = build_field(g)
        for p in simple_primes(47):
            if p in K.index_bound:
                continue
            roots, rest = brute_splitting(K.min_poly, p)
            qs = factor_prime(K, p)
            got_roots = [(q.root_tag, q.ramification) for q in qs if q.residue_degree == 1]
            higher = [q for q in qs if q.residue_degree > 1]
            assert got_roots == roots, (g, p)
            assert [(q.residue_degree, q.ramification) for q in higher] == (
                [(rest, 1)] if rest else []
            ), (g, p)
            kinds.add((tuple(sorted((m for _, m in roots), reverse=True)), rest))
    # split, one root + quadratic, inert, double root, triple root
    assert kinds == {((1, 1, 1), 0), ((1,), 2), ((), 3), ((2, 1), 0), ((3,), 0)}


def test_index_bound_vs_integrality_oracle():
    outcomes = set()
    for g in _oracle_forms():
        K = build_field(g)
        for p in simple_primes(13):
            if K.disc % (p * p):
                continue
            want = index_divisible_by_integrality(K.min_poly, p)
            assert (p in K.index_bound) == want, (g, p)
            outcomes.add(want)
    assert outcomes == {True, False}


def test_prime_ideals_up_to(K2):
    B = 120
    qs = prime_ideals_up_to(K2, B)
    assert all(q.norm <= B for q in qs)
    # the degree-2 prime above 5 has norm 25 <= B; inert 7 has norm 343 > B
    assert any(q.norm == 25 for q in qs)
    assert not any(q.p == 7 for q in qs)
    got_norms = sorted(q.norm for q in qs)
    assert got_norms.count(31) == 3
    assert 2 in got_norms and 3 in got_norms
    for q in qs:
        if q.residue_degree == 2:
            assert q.norm == q.p**2 <= B


def test_compute_D0(K2, K23, K31):
    assert compute_D0(K2) == 6
    assert compute_D0(K23) == 23
    assert compute_D0(K31) == 31
    K = build_field(BinaryCubicForm(1, 1, -2, 8))
    assert compute_D0(K) == 1006  # 2 * 503


def test_ideal_algebra(K2):
    qs = prime_ideals_up_to(K2, 60)
    rng = random.Random(3)
    for _ in range(200):
        a = random_ideal(rng, qs, max_primes=3, max_exp=3)
        b = random_ideal(rng, qs, max_primes=3, max_exp=3)
        ab = a * b
        assert norm(ab) == norm(a) * norm(b)
        assert ab.divides(a) == b.is_unit
        assert a.divides(ab) and b.divides(ab)
        assert divide(ab, a) == b
        if not {q for q, _ in a.factors} & {q for q, _ in b.factors}:
            assert tau(ab) == tau(a) * tau(b)
            assert mu_ideal(ab) == mu_ideal(a) * mu_ideal(b)


def test_mobius_tau_rad(K2):
    qs = sorted(prime_ideals_up_to(K2, 40))
    q1, q2 = qs[0], qs[-1]
    u = Ideal.unit()
    assert (mu_ideal(u), tau(u)) == (1, 1)
    p1 = Ideal.prime(q1)
    assert mu_ideal(p1) == -1
    sq = Ideal.prime(q1, 2)
    assert mu_ideal(sq) == 0 and tau(sq) == 3
    two = p1 * Ideal.prime(q2)
    assert mu_ideal(two) == 1 and tau(two) == 4
    assert rad(Ideal.prime(q1, 3) * Ideal.prime(q2, 2)) == two


def test_divisors(K2):
    qs = sorted(prime_ideals_up_to(K2, 40))
    a = Ideal.prime(qs[0], 2) * Ideal.prime(qs[1], 1) * Ideal.prime(qs[2], 3)
    ds = list(divisors(a))
    assert len(ds) == 3 * 2 * 4 == tau(a)
    assert len(set(ds)) == len(ds)
    assert all(d.divides(a) for d in ds)
    with pytest.raises(ValueError):
        list(divisors(a, cap=5))


def test_ideal_from_point_anchors(K2):
    assert ideal_from_point(K2, 1, -1).is_unit  # f(1,-1) = -1
    a = ideal_from_point(K2, 1, 1)  # f(1,1) = 3
    assert norm(a) == 3
    b = ideal_from_point(K2, 1, 2)  # f(1,2) = 17
    assert norm(b) == 17
    ((q, e),) = b.factors
    assert q.residue_degree == 1 and e == 1
    assert (1 - q.root_tag * 2) % 17 == 0  # tag = x / y mod p


def test_ideal_from_point_errors(K2):
    with pytest.raises(ValueError):
        ideal_from_point(K2, 0, 0)
    with pytest.raises(ValueError):
        ideal_from_point(K2, 2, 4)  # not coprime
    K = build_field(BinaryCubicForm(1, 1, -2, 8))
    with pytest.raises(IndexBoundError):
        ideal_from_point(K, 0, 1)  # value 8 meets the index-risk prime 2


def test_point_ideal_norms_match_values(K2, K23, K31):
    for K in (K2, K23, K31):
        f = K.form
        for x in range(-25, 26):
            for y in range(-25, 26):
                if math.gcd(x, y) != 1:
                    continue
                v = f(x, y)
                a = ideal_from_point(K, x, y)
                assert norm(a) == abs(v)
                # every prime power in the value is carried by ideals above it
                for p, e in trial_factor(v):
                    assert sum(
                        q.ramification * ee for q, ee in a.factors if q.p == p
                    ) >= 0  # structure exists
                    got = math.prod(
                        q.norm**ee for q, ee in a.factors if q.p == p
                    )
                    assert got == p**e


def test_degree_one_law_off_discriminant(K2):
    D0 = compute_D0(K2)
    for x in range(-25, 26):
        for y in range(-25, 26):
            if math.gcd(x, y) != 1 or (x, y) == (0, 0):
                continue
            a = ideal_from_point(K2, x, y)
            for q, e in a.factors:
                if D0 % q.p == 0:
                    continue
                assert q.residue_degree == 1
                assert q.ramification == 1
                # exponent equals the exact valuation of the value
                v = K2.form(x, y)
                vp = 0
                while v % q.p == 0:
                    v //= q.p
                    vp += 1
                assert e == vp


def test_valuation_at_point(K2):
    q5 = next(q for q in factor_prime(K2, 5) if q.residue_degree == 1)
    assert valuation_at_point(K2, q5, 0, 0) == math.inf
    # scaling by p^s adds s * ramification
    for x, y in ((2, 1), (7, 1), (3, 4)):
        base = valuation_at_point(K2, q5, x, y)
        assert valuation_at_point(K2, q5, 5 * x, 5 * y) == base + 1
        assert valuation_at_point(K2, q5, 25 * x, 25 * y) == base + 2
    q3 = factor_prime(K2, 3)[0]  # ramified, e = 3
    for x, y in ((1, 1), (2, 5)):
        base = valuation_at_point(K2, q3, x, y)
        assert valuation_at_point(K2, q3, 3 * x, 3 * y) == base + 3


def test_valuation_matches_ideal_exponents(K2, K23):
    for K in (K2, K23):
        qs = prime_ideals_up_to(K, 30)
        for x in range(-12, 13):
            for y in range(-12, 13):
                if math.gcd(x, y) != 1:
                    continue
                a = ideal_from_point(K, x, y)
                for q in qs:
                    assert valuation_at_point(K, q, x, y) == a.valuation(q)


def test_point_lattice_degree_one(K2):
    q17 = next(q for q in factor_prime(K2, 17) if q.residue_degree == 1)
    for v in (1, 2):
        lam = point_lattice(K2, q17, v)
        assert lam.index == 17**v
        for x in range(-40, 41):
            for y in range(-40, 41):
                if (x, y) == (0, 0):
                    continue
                inside = lam.contains(x, y)
                assert inside == (valuation_at_point(K2, q17, x, y) >= v)


def test_point_lattice_higher_degree(K2):
    q5deg2 = next(q for q in factor_prime(K2, 5) if q.residue_degree == 2)
    lam = point_lattice(K2, q5deg2, 1)
    assert lam.index == 25
    for x in range(-20, 21):
        for y in range(-20, 21):
            if (x, y) == (0, 0):
                continue
            assert lam.contains(x, y) == (
                valuation_at_point(K2, q5deg2, x, y) >= 1
            )


def test_point_lattice_ramified(K2):
    q3 = factor_prime(K2, 3)[0]
    for v in (1, 2, 3, 4):
        lam = point_lattice(K2, q3, v)
        for x in range(-30, 31):
            for y in range(-30, 31):
                if (x, y) == (0, 0):
                    continue
                assert lam.contains(x, y) == (
                    valuation_at_point(K2, q3, x, y) >= v
                )


def test_ideal_lattice_composite(K2):
    q5 = next(q for q in factor_prime(K2, 5) if q.residue_degree == 1)
    q3 = factor_prime(K2, 3)[0]
    d = Ideal.prime(q5) * Ideal.prime(q3, 2)
    lam = ideal_lattice(K2, d)
    for x in range(-30, 31):
        for y in range(-30, 31):
            if (x, y) == (0, 0):
                continue
            want = (
                valuation_at_point(K2, q5, x, y) >= 1
                and valuation_at_point(K2, q3, x, y) >= 2
            )
            assert lam.contains(x, y) == want


def test_ideal_from_point_off_disc_vs_factor_prime(K2, K23, K31):
    """For p not dividing the discriminant, the prime ideal ideal_from_point
    builds directly is the degree-1 prime of factor_prime whose root is x/y."""
    for K in (K2, K23, K31):
        tags = {}
        for x in range(-40, 41):
            for y in range(-40, 41):
                if math.gcd(x, y) != 1:
                    continue
                for q, _ in ideal_from_point(K, x, y).factors:
                    if K.disc % q.p:
                        assert q.root_tag == x * pow(y, -1, q.p) % q.p
                        tags.setdefault(q.p, set()).add(q)
        assert len(tags) > 900
        # one batched root call fills the cache factor_prime reads below
        prime_ideals_up_to(K, max(tags))
        for p, built in tags.items():
            assert built <= set(factor_prime(K, p)), (K, p)


def test_prime_ideals_up_to_fills_the_cache_as_factor_prime():
    """The cache one prime_ideals_up_to call fills on a fresh field equals
    per-prime factor_prime on another fresh field."""
    kinds = set()
    for g in (
        BinaryCubicForm(1, 0, 0, 2),
        BinaryCubicForm(1, -1, 0, 1),
        BinaryCubicForm(1, 0, 1, 1),
        BinaryCubicForm(1, 0, -3, 1),  # cyclic, totally ramified at 3
    ):
        K, fresh = build_field(g), build_field(g)
        prime_ideals_up_to(K, 2000)
        assert set(K._factor_cache) == set(simple_primes(2000)) - K.index_bound
        for p, qs in K._factor_cache.items():
            assert list(qs) == factor_prime(fresh, p), (g, p)
            kinds.add(tuple((q.residue_degree, q.ramification) for q in qs))
    # split, one root + quadratic, inert, and ramified (e = 2 and e = 3)
    assert {((1, 1),) * 3, ((2, 1), (1, 1)), ((3, 1),), ((1, 3),)} <= kinds
    assert any((1, 2) in kind for kind in kinds)
