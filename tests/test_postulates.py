"""Tests for the point-to-ideal sequence frame, the exact coset-index
density, and the three density laws."""

from dataclasses import replace
from fractions import Fraction

import pytest

from chowla import (
    BinaryCubicForm,
    DensityModel,
    build_field,
    build_sequence,
    check_postulates_123,
    parse_coset,
    parse_region,
    prime_ideals_up_to,
)
from chowla.ideal_arith import Ideal, IndexBoundError, PrimeIdeal, norm
from chowla.postulates import A, A_d, ReportRow, g_density, remainder
from chowla.region_lattice import RowForm


@pytest.fixture(scope="module")
def seq_small(K2):
    return build_sequence(K2, parse_region("box:1,3,1,3"))


@pytest.fixture(scope="module")
def seq_medium(K2):
    return build_sequence(K2, parse_region("box:-12,12,-12,12"))


@pytest.fixture(scope="module")
def primes2(K2):
    return {p.norm: p for p in prime_ideals_up_to(K2, 40)}


# ------------------------------------------------------------- sequence


def test_build_sequence_small_box(K2, seq_small):
    seq = seq_small
    # seven primitive points in [1,3]^2, each with a distinct ideal
    assert seq.points == 7
    assert sorted((norm(a), c) for a, c in seq.support.items()) == [
        (3, 1), (10, 1), (17, 1), (29, 1), (43, 1), (55, 1), (62, 1),
    ]
    assert seq.n == 62
    assert seq.D0 == 6 and seq.D1 == 1
    assert seq.quarantine == []
    assert seq.field is K2 and seq.coset is None


def test_counting_functions(seq_small, primes2):
    seq = seq_small
    assert A(seq, 1) == 0
    assert A(seq, 3) == 1
    assert A(seq, 10) == 2
    assert A(seq, 62) == 7
    assert A(seq, 10**6) == 7
    p3 = primes2[3]
    assert A_d(seq, Ideal.prime(p3), 62) == 1
    assert A_d(seq, Ideal.prime(p3), 2) == 0
    assert A_d(seq, Ideal.unit(), 62) == A(seq, 62)


def test_A_on_empty_support_and_vs_scan(seq_medium):
    empty = replace(seq_medium, support={})
    assert [A(empty, t) for t in (0, 1, 10**9)] == [0, 0, 0]
    norms = sorted({norm(a) for a in seq_medium.support})
    ts = [0, 1, Fraction(7, 2), norms[-1] + 1] + [t + dt for t in norms[::7] for dt in (-1, 0, Fraction(1, 2))]
    for t in ts:
        assert A(seq_medium, t) == sum(c for a, c in seq_medium.support.items() if norm(a) <= t), t


@pytest.mark.parametrize("which", ["seq_small", "seq_medium"])
def test_A_d_vs_support_scan(K2, which, request):
    seq = request.getfixturevalue(which)
    norms = sorted(norm(a) for a in seq.support)
    ts = (0, 1, norms[0] - 1, norms[0], norms[len(norms) // 2], seq.n, 10**9)
    in_support = {q for a in seq.support for q, _ in a.factors}
    primes = prime_ideals_up_to(K2, 200)
    outside = next(q for q in prime_ideals_up_to(K2, 2000) if q not in in_support)
    ds = [Ideal.unit(), Ideal.prime(outside)]
    for q in primes:
        e = 1
        while q.norm**e <= 200:
            ds.append(Ideal.prime(q, e))
            e += 1
    small = [q for q in primes if q.norm <= 40]
    ds += [Ideal.prime(q) * Ideal.prime(r) for i, q in enumerate(small) for r in small[i + 1 :]]
    for d in ds:
        for t in ts:
            scan = sum(c for a, c in seq.support.items() if norm(a) <= t and d.divides(a))
            assert A_d(seq, d, t) == scan, (d, t)
    assert all(A_d(seq, Ideal.prime(outside), t) == 0 for t in ts)
    assert any(A_d(seq, d, seq.n) for d in ds if len(d.factors) == 2)


def test_coset_restricts_sequence(K2):
    L = parse_coset("coset:5,0,1,1;0,0")  # x = y mod 5
    seq = build_sequence(K2, parse_region("box:-10,10,-10,10"), L)
    assert seq.D1 == 5
    full = build_sequence(K2, parse_region("box:-10,10,-10,10"))
    assert 0 < seq.points < full.points
    assert all(c > 0 for c in seq.support.values())
    assert seq.points == sum(seq.support.values()) + len(seq.quarantine)


def test_quarantine_overflow_is_an_error():
    K = build_field(BinaryCubicForm(1, 1, -2, 8))  # index-risk prime 2
    assert K.index_bound == {2}
    with pytest.raises(ValueError, match="cannot carry this sequence"):
        build_sequence(K, parse_region("box:-10,10,-10,10"))


# ------------------------------------------------------------- density g


def test_density_anchor_values(K2, primes2):
    m = DensityModel(K2)
    p3, p5, p25 = primes2[3], primes2[5], primes2[25]
    # degree-1 prime off D0 = 6: 1/N^alpha divided by (1 + 1/N)
    assert m.g(Ideal.prime(p5)) == Fraction(1, 6)
    assert m.g(Ideal.prime(p5, 2)) == Fraction(1, 30)
    # degree-2 prime: no point lattice beyond p Z^2, density zero
    assert m.g(Ideal.prime(p25)) == 0
    # ramified degree-1 prime above 3: (1/3 - 1/9) / (1 - 1/9)
    assert m.g(Ideal.prime(p3)) == Fraction(1, 4)
    assert m.g(Ideal.unit()) == 1


def test_density_kills_conjugate_pairs(K2):
    qs = [q for q in prime_ideals_up_to(K2, 31) if q.p == 31]
    assert sorted(q.root_tag for q in qs) == [11, 24, 27]
    m = DensityModel(K2)
    assert m.g(Ideal.prime(qs[0]) * Ideal.prime(qs[1])) == 0
    assert m.g(Ideal.prime(qs[0]) * Ideal.prime(qs[2]) * Ideal.prime(qs[0])) == 0


def test_density_multiplicative_across_primes(K2, primes2):
    m = DensityModel(K2)
    d1 = Ideal.prime(primes2[5])
    d2 = Ideal.prime(primes2[17], 2)
    assert m.g(d1 * d2) == m.g(d1) * m.g(d2) != 0


def test_density_coset_branches(K2, primes2):
    p5 = primes2[5]
    # x = y mod 5 meets the tag-2 lattice only at 5 Z^2: density vanishes
    mz = DensityModel(K2, parse_coset("coset:5,0,1,1;0,0"))
    assert mz.g(Ideal.prime(p5)) == 0
    # x = y + 1 mod 5 misses 5 Z^2 entirely: pure power densities
    mp = DensityModel(K2, parse_coset("coset:5,0,1,1;1,0"))
    assert mp.g(Ideal.prime(p5)) == Fraction(1, 5)
    assert mp.g(Ideal.prime(p5, 2)) == Fraction(1, 25)


def test_g_density_requires_single_prime(K2, primes2):
    with pytest.raises(ValueError, match="prime-power-norm"):
        g_density(K2, None, Ideal.prime(primes2[3]) * Ideal.prime(primes2[5]))
    with pytest.raises(ValueError, match="prime-power-norm"):
        g_density(K2, None, Ideal.unit())


def test_g_density_refuses_index_risk_prime():
    K = build_field(BinaryCubicForm(1, 1, -2, 8))
    q = PrimeIdeal(2, 1, 1, 0)
    with pytest.raises(IndexBoundError, match="index-risk prime 2"):
        g_density(K, None, Ideal.prime(q))


def test_remainder_at_unit_vanishes(K2, seq_small):
    assert remainder(seq_small, DensityModel(K2), Ideal.unit()) == 0


# ------------------------------------------------------------- the laws


_CONFIGS = (
    ("1,0,0,2", None, 376, {}),
    ("1,0,0,2", "coset:5,0,1,1;0,0", 376, {"P(5;f1e1;t2)": "zero"}),
    ("1,-1,0,1", "coset:2,0,1,2;1,0", 350, {}),
)


@pytest.mark.parametrize("form_text,coset_text,n_rows,branches", _CONFIGS)
def test_density_laws_hold(form_text, coset_text, n_rows, branches):
    a, b, c, d = (int(t) for t in form_text.split(","))
    K = build_field(BinaryCubicForm(a, b, c, d))
    L = parse_coset(coset_text) if coset_text else None
    seq = build_sequence(K, parse_region("box:-1,1,-1,1").scale(30), L)
    report = check_postulates_123(seq, DensityModel(K, L), 500)
    assert report.ok
    assert report.failures() == []
    assert len(report.rows) == n_rows
    assert all(r.status == "pass" for r in report.rows)
    assert report.branch_observations == branches
    # primes under D0 are excused from law 1, with the reason recorded
    excused = {p for p, _ in report.skipped}
    assert all(seq.D0 % p == 0 for p in excused)


def test_skipped_primes_are_listed_once():
    """A prime dividing both D0 and D1 is skipped once, not once per prime
    ideal above it: 23 for x^3 - x + 1 (disc -23) on a coset of index 23."""
    K = build_field(BinaryCubicForm(1, 0, -1, 1))
    L = parse_coset("coset:23,0,0,1;1,1")
    seq = build_sequence(K, parse_region("box:-1,1,-1,1").scale(60), L)
    assert seq.D0 % 23 == 0 and seq.D1 == 23
    assert len([q for q in prime_ideals_up_to(K, 200) if q.p == 23]) > 1
    report = check_postulates_123(seq, DensityModel(K, L), 200)
    assert report.skipped == [(23, "divides both D0 and D1")]


def test_index_risk_prime_is_listed_as_skipped():
    """prime_ideals_up_to leaves out the index-risk primes, so the check
    lists them itself: 2 for Dedekind's x^3 - x^2 - 2x - 8."""
    K = build_field(BinaryCubicForm(1, -1, -2, -8))
    assert K.index_bound == {2}
    assert all(q.p != 2 for q in prime_ideals_up_to(K, 60))
    L = parse_coset("coset:2,0,0,2;1,0")
    seq = build_sequence(K, parse_region("box:-1,1,-1,1").scale(20), L)
    report = check_postulates_123(seq, DensityModel(K, L), 60)
    assert report.skipped == [(2, "index-risk prime")]


def test_law2_checks_the_lattices(K2, seq_small, monkeypatch):
    """g is multiplicative by construction, so law 2 must also fail when the
    lattices are wrong: an intersection that drops its first operand's
    congruence fails a law-2 row."""
    assert all(r.status == "pass" for r in check_postulates_123(seq_small, DensityModel(K2), 60).rows)
    monkeypatch.setattr(RowForm, "intersect", lambda self, other: other)
    rows = check_postulates_123(seq_small, DensityModel(K2), 60).rows
    assert any(r.postulate == "2" and r.status == "fail" for r in rows)


def test_postulate_norm_cap(K2, seq_small):
    with pytest.raises(ValueError, match="capped"):
        check_postulates_123(seq_small, DensityModel(K2), 10_001)


# ------------------------------------------------------------- report rows


def test_report_row_csv(K2, seq_small):
    report = check_postulates_123(seq_small, DensityModel(K2), 80)
    row = next(r for r in report.rows if r.params == "law1[P(71;f1e1;t22)^1]")
    assert row.ratio == Fraction(1, 72)  # (1/71) / (1 + 1/71)
    assert row.csv() == "1,law1[P(71;f1e1;t22)^1],0.01388888889,pass"
    assert ReportRow(row.postulate, row.params, row.ratio, "fail").csv().endswith(",0.01388888889,fail")

