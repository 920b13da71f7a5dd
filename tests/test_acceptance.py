"""Acceptance gate: ten end-to-end criteria, one test (and one pass/fail
line under ``pytest -v``) each.  Every test pins an explicit wall-clock
budget and asserts it; timings print with ``-s``."""

import random
import time
from fractions import Fraction

import numpy as np

from chowla import (
    BinaryCubicForm,
    DensityModel,
    ExperimentConfig,
    VaughanParams,
    anti_sieve_split,
    brun_pure_weights,
    build_field,
    build_sequence,
    buchstab_split,
    check_postulates_123,
    compute_D0,
    convergence_table,
    ideal_from_point,
    integer_brun_weights,
    pairing_bound,
    parity_grid,
    parity_range,
    parse_region,
    prime_ideals_up_to,
    sieve_grid,
    verify_groupings,
    verify_identity,
    window_flip,
)
from chowla.ideal_arith import Ideal, norm, tau
from chowla.postulates import remainder
from chowla.verify import run_suite

from helpers import grid_mu_sums, random_ideal, spf_parity_tables, trial_factor

FORM2 = BinaryCubicForm(1, 0, 0, 2)

_CACHE = {}


def _done(k: int, label: str, t0: float, budget: float) -> None:
    dt = time.perf_counter() - t0
    print(f"criterion {k:02d} ({label}): PASS in {dt:.1f}s (budget {budget:.0f}s)")
    assert dt < budget, f"criterion {k} exceeded its {budget:.0f}s budget ({dt:.1f}s)"


# ---------------------------------------------------------------------------


def test_criterion_01_seven_window_identity(K2, K23):
    t0 = time.perf_counter()
    budget = 10.0
    rng = random.Random(11)
    pools = [(K2, prime_ideals_up_to(K2, 80)), (K23, prime_ideals_up_to(K23, 80))]
    max_tau = 0
    for case in range(1000):
        _, primes = pools[case % 2]
        if case == 500:  # one ideal at the divisor-count cap itself
            a = Ideal.from_factors([(q, 3) for q in primes[:6]])
        elif case % 10 == 0:
            a = random_ideal(rng, primes, max_primes=5, max_exp=3)
        else:
            a = random_ideal(rng, primes, max_primes=4, max_exp=2)
        assert tau(a) <= 4096
        max_tau = max(max_tau, tau(a))
        cuts = sorted(Fraction(rng.randint(1, 600), rng.choice((1, 2, 4))) for _ in range(3))
        qs = [q for q, _ in a.factors]
        k = 2 if case == 500 else min(len(qs), rng.randint(0, 2))
        Q = rng.sample(qs, k=k)
        P = VaughanParams.make(*cuts, Q)
        memo = {}

        def h(b):
            if b not in memo:
                memo[b] = rng.randint(-5, 5)
            return memo[b]

        assert verify_identity(a, h, P), (a, cuts)
        assert verify_groupings(a, h, P), (a, cuts)
    assert max_tau == 4096  # the cap was exercised, not just respected
    _done(1, "seven-window identity, 1000 random cases", t0, budget)


def test_criterion_02_buchstab_telescope(K2, K23):
    t0 = time.perf_counter()
    budget = 5.0
    rng = random.Random(22)
    pools = [prime_ideals_up_to(K2, 40), prime_ideals_up_to(K23, 40)]
    for case in range(500):
        primes = pools[case % 2]
        W = brun_pure_weights(primes, rng.randint(20, 300), depth=rng.choice((2, 4, 6)))
        b = random_ideal(rng, primes, max_primes=4, max_exp=2)
        main, tail = buchstab_split(W, b)
        assert main - tail == 1
    _done(2, "main minus tail telescopes to 1, 500 cases", t0, budget)


def test_criterion_03_anti_sieve_identity():
    t0 = time.perf_counter()
    budget = 30.0
    rng = random.Random(33)
    alphas = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4), Fraction(1)]
    for _ in range(100):
        y = rng.choice((2, 3, Fraction(3, 2), Fraction(5, 2)))
        floor = y * y
        W = integer_brun_weights(floor, rng.randint(int(floor) + 2, 300), rng.choice((2, 4)))
        x = rng.randint(100, 10_000)
        F = {
            (rng.randint(1, 30_000), rng.randint(1, 300)): rng.randint(-9, 9)
            for _ in range(rng.randint(1, 50))
        }
        r = anti_sieve_split(F, x, rng.choice(alphas), y, W)
        assert r.identity_ok, (x, y)
        assert r.cov_ok, (x, y)
    _done(3, "anti-sieve split exact on 100 sparse tables", t0, budget)


def test_criterion_04_flip_and_pairing(K2, K23):
    t0 = time.perf_counter()
    budget = 5.0
    rng = random.Random(44)
    pools = [prime_ideals_up_to(K2, 80), prime_ideals_up_to(K23, 80)]
    for case in range(500):
        primes = pools[case % 2]
        e = random_ideal(rng, primes, max_primes=3, max_exp=2, nonunit=True)
        u = Fraction(rng.randint(1, 1000), rng.randint(1, 10))
        assert window_flip(e, u).ok, (e, u)
    for case in range(500):
        primes = pools[case % 2]
        e = random_ideal(rng, primes, max_primes=3, max_exp=2, nonunit=True)
        l = max(q.norm for q, _ in e.factors)
        y = Fraction(rng.randint(1, 2000), rng.randint(1, 8))
        lhs, rhs = pairing_bound(e, y, l)
        assert lhs <= rhs, (e, y, l)
    _done(4, "window flip and pairing bound, 500 cases each", t0, budget)


def test_criterion_05_parity_sieve_vs_oracles():
    t0 = time.perf_counter()
    budget = 60.0
    mu_a, lam_a, omg_a = parity_range(1_000_000)
    mu_b, lam_b, omg_b = spf_parity_tables(1_000_000)
    assert np.array_equal(mu_a, mu_b)
    assert np.array_equal(lam_a, lam_b)
    assert np.array_equal(omg_a, omg_b)
    table = sieve_grid(FORM2, parse_region("box:-1,1,-1,1").scale(50))
    assert len(table) == 101 * 101 - 1  # every point except the origin
    for (x, y), fz in table.items():
        assert fz.complete
        assert fz.rebuild() == fz.value == FORM2(x, y)
        assert sorted(fz.factors) == trial_factor(abs(fz.value))
    _done(5, "sieve vs factor oracles to 1e6 and on the 50-box", t0, budget)


def test_criterion_06_point_ideals_three_fields(K2, K23, K31):
    t0 = time.perf_counter()
    budget = 30.0
    region = parse_region("box:-1,1,-1,1").scale(40)
    for K in (K2, K23, K31):
        D0 = compute_D0(K)
        table = sieve_grid(K.form, region, coprime_only=True)
        assert len(table) > 3000
        for (x, y), fz in table.items():
            a = ideal_from_point(K, x, y, factors=fz.factors)
            assert norm(a) == abs(fz.value)
            for p, e in fz.factors:
                if D0 % p == 0:
                    continue
                above = [(q, m) for q, m in a.factors if q.p == p]
                assert len(above) == 1, (K.form, x, y, p)
                q, m = above[0]
                assert q.residue_degree == 1 and q.ramification == 1
                assert m == e
    _done(6, "ideal norms and degree-1 law on three 40-boxes", t0, budget)


def test_criterion_07_density_laws_at_full_depth(K2):
    t0 = time.perf_counter()
    budget = 60.0
    from chowla import parse_coset

    region = parse_region("box:-1,1,-1,1").scale(30)
    configs = (
        ("1,0,0,2", None),
        ("1,0,0,2", "coset:5,0,1,1;0,0"),
        ("1,-1,0,1", "coset:2,0,1,2;1,0"),
    )
    for form_text, coset_text in configs:
        a, b, c, d = (int(t) for t in form_text.split(","))
        K = build_field(BinaryCubicForm(a, b, c, d))
        L = parse_coset(coset_text) if coset_text else None
        seq = build_sequence(K, region, L)
        report = check_postulates_123(seq, DensityModel(K, L), 10_000)
        assert report.ok, report.failures()[:3]
        assert len(report.rows) > 3000
        if L is None:
            # degree-1 primes off D0 carry the plain law value 1/(p+1)
            law1 = [r for r in report.rows if r.postulate == "1"]
            for p in (5, 11, 17):
                assert any(r.ratio == Fraction(1, p + 1) for r in law1), p
    _done(7, "density laws exact to norm 1e4, three configs", t0, budget)


def test_criterion_08_remainder_bound(K2):
    t0 = time.perf_counter()
    budget = 60.0
    N = 100
    seq = build_sequence(K2, parse_region("box:-1,1,-1,1").scale(N))
    model = DensityModel(K2)
    bound = 8 * (2 * N + 1)
    checked = 0
    worst = Fraction(0)
    for q in prime_ideals_up_to(K2, 1000):
        nm = q.norm
        alpha = 1
        while nm <= 1000:
            d = Ideal.prime(q, alpha)
            r = abs(remainder(seq, model, d))
            worst = max(worst, r)
            assert r <= bound, (d, float(r))
            checked += 1
            alpha += 1
            nm *= q.norm
    assert checked >= 150
    print(f"criterion 08 detail: {checked} prime powers, worst |r| = {float(worst):.1f} <= {bound}")
    _done(8, "remainder bound on the 100-box", t0, budget)


_C9_EXPECTED = [
    "100,40400,-20,-0.0004950495049504951,0.500136890837725,-0.0009898280131291485",
    "300,361200,-118,-0.0003266888150609081,0.8934898422027057,-0.00036563237725851204",
    "1000,4004000,900,0.00022477522477522478,1.3307108067776403,0.0001689136539888222",
    "3000,36012000,2150,5.9702321448406086e-05,1.713218634499775,3.484804580463716e-05",
]


def _c9_config(threads: int) -> ExperimentConfig:
    return ExperimentConfig(
        form=FORM2,
        alpha="mu",
        region=parse_region("box:-1,1,-1,1"),
        N_list=[100, 300, 1000, 3000],
        threads=threads,
    )


def test_criterion_09_convergence_run():
    t0 = time.perf_counter()
    budget = 300.0
    rows = convergence_table(_c9_config(threads=1))
    _CACHE["c9_rows"] = rows
    # exact agreement with an independent trial-division oracle at N <= 300
    for row in rows[:2]:
        assert (row.points, row.total) == grid_mu_sums(FORM2, row.N)
    # the average decays across the schedule and stays far below the envelope
    assert abs(rows[3].average) < abs(rows[0].average)
    for row in rows:
        assert row.ratio is not None and abs(row.ratio) < 10
    assert [r.csv() for r in rows] == _C9_EXPECTED
    _done(9, "mu-average convergence, N up to 3000", t0, budget)


def test_criterion_10_thread_determinism():
    t0 = time.perf_counter()
    budget = 300.0
    rows_1 = _CACHE.get("c9_rows") or convergence_table(_c9_config(threads=1))
    rows_8 = convergence_table(_c9_config(threads=8))
    assert [r.csv() for r in rows_8] == [r.csv() for r in rows_1] == _C9_EXPECTED
    # the threaded grid kernel is bit-identical on every channel
    region = parse_region("box:-1,1,-1,1").scale(50)
    g1 = parity_grid(FORM2, region, threads=1, keep_arrays=True)
    g8 = parity_grid(FORM2, region, threads=8, keep_arrays=True)
    assert (g1.points, g1.mu_sum, g1.lam_sum, g1.omg_sum) == (
        g8.points, g8.mu_sum, g8.lam_sum, g8.omg_sum,
    )
    assert np.array_equal(g1.mu, g8.mu)
    assert np.array_equal(g1.lam, g8.lam)
    assert np.array_equal(g1.omg, g8.omg)
    # the seeded verification suites produce byte-identical reports on rerun
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as d1, tempfile.TemporaryDirectory() as d2:
        assert run_suite("all", out_dir=d1) == 0
        assert run_suite("all", out_dir=d2) == 0
        files1 = sorted(p.name for p in pathlib.Path(d1).iterdir())
        files2 = sorted(p.name for p in pathlib.Path(d2).iterdir())
        assert files1 == files2 and files1
        for name in files1:
            assert (pathlib.Path(d1) / name).read_bytes() == (
                pathlib.Path(d2) / name
            ).read_bytes()
    _done(10, "identical outputs at 1 and 8 threads", t0, budget)
