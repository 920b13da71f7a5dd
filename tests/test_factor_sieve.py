import hashlib
import math
import os
import random
import signal
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from chowla import factor_sieve
from chowla.cli import EXIT_ASSERTION, main
from chowla.cubic_form import BinaryCubicForm, ExactRangeError, is_irreducible
from chowla.factor_sieve import (
    Factorization,
    SieveCorruptionError,
    cofactor_resolve,
    parities,
    parity_grid,
    parity_range,
    sieve_grid,
)
from chowla.region_lattice import ConvexRegion, RowForm, parse_coset, parse_region

from helpers import LatticeCoset, simple_primes, spf_parity_tables, trial_factor

F2 = BinaryCubicForm(1, 0, 0, 2)

# leading coefficients: monic, negative, and divisible by small primes and
# their powers, so that rows p | y are struck wholesale
LEADS = (1, -1, 2, -3, 4, 6, -8, 9, -12, 25, 27, -30)


def test_single_values_known():
    # n: (mu, lambda, omega-sign)
    table = {
        1: (1, 1, 1),
        2: (-1, -1, -1),
        3: (-1, -1, -1),
        4: (0, 1, -1),
        6: (1, 1, 1),
        8: (0, -1, -1),
        12: (0, -1, 1),
        30: (-1, -1, -1),
        36: (0, 1, 1),
        -5: (-1, -1, -1),
        -36: (0, 1, 1),
    }
    for n, want in table.items():
        assert parities(n) == want


def test_zero_rejected():
    with pytest.raises(ValueError):
        parities(0)


def test_parity_range_wants_a_positive_limit():
    with pytest.raises(ValueError, match="limit must be >= 1"):
        parity_range(0)


def test_parity_range_against_spf_oracle():
    limit = 100_000
    got_mu, got_lam, got_omg = parity_range(limit)
    want_mu, want_lam, want_omg = spf_parity_tables(limit)
    assert np.array_equal(got_mu[1:], want_mu[1:])
    assert np.array_equal(got_lam[1:], want_lam[1:])
    assert np.array_equal(got_omg[1:], want_omg[1:])


def test_parity_range_matches_singles():
    got_mu, got_lam, got_omg = parity_range(2000)
    for n in range(1, 2001):
        assert (got_mu[n], got_lam[n], got_omg[n]) == parities(n)


def test_cofactor_resolve_examples():
    assert cofactor_resolve(101, 100) == [(101, 1)]


def test_cofactor_resolve_corruption():
    with pytest.raises(SieveCorruptionError):
        cofactor_resolve(30, 100)  # small primes should have been struck
    with pytest.raises(SieveCorruptionError):
        cofactor_resolve(97, 100)  # a prime the sieve should have struck
    # a square or a semiprime of primes past Z is left only by a shallow sieve
    with pytest.raises(SieveCorruptionError):
        cofactor_resolve(101 * 101, 100)
    with pytest.raises(SieveCorruptionError):
        cofactor_resolve(101 * 103, 100)
    with pytest.raises(SieveCorruptionError):
        cofactor_resolve(101 * 103 * 107, 100)  # three large primes
    with pytest.raises(SieveCorruptionError):
        cofactor_resolve(101 * 101 * 103, 100)
    with pytest.raises(ValueError):
        cofactor_resolve(1, 100)


def test_divide_out_raises_on_a_cell_its_prime_does_not_divide():
    """A struck cofactor of 1 would reach the quotient 0, which 3 divides on
    every pass: the divide-out raises before it divides anything."""
    cof = np.array([1, 9], dtype=np.int64)
    with pytest.raises(SieveCorruptionError):
        factor_sieve._divide_out(cof, np.array([0, 1]), 3)
    with pytest.raises(SieveCorruptionError):
        factor_sieve._divide_out(cof, np.array([1, 0]), 3)
    assert cof.tolist() == [1, 9]
    # 50 // 5 // 7 = 1 would count 7 with the quotient still nonzero
    cof = np.array([50], dtype=np.int64)
    with pytest.raises(SieveCorruptionError):
        factor_sieve._divide_out(cof, np.array([0, 0]), np.array([5, 7]))
    assert cof.tolist() == [50]
    # one prime per index: 4 // 2 // 5 = 0
    cof = np.array([4, 9], dtype=np.int64)
    with pytest.raises(SieveCorruptionError):
        factor_sieve._divide_out(cof, np.array([0, 0, 1]), np.array([2, 5, 3]))
    cof = np.array([8, 45], dtype=np.int64)
    assert factor_sieve._divide_out(cof, np.array([0, 1, 1]), np.array([2, 3, 5])).tolist() == [3, 2, 1]
    assert cof.tolist() == [1, 1]


def test_walk_raises_on_a_basis_that_does_not_span_the_strip(monkeypatch):
    """Lattices reduced for the stored width ceil(width / a) in place of the
    box width leave some columns on neither step, where the walk once looped
    forever (x^3 + 2y^3 on a coset with a = 5).  Both grid paths raise at
    once and `chowla avg` exits 1; an alarm turns a hang into a failure."""
    reduce = factor_sieve._reduced_lattices
    monkeypatch.setattr(factor_sieve, "_reduced_lattices", lambda m, r, width: reduce(m, r, -(-width // 5)))
    coset = "coset:5,0,2,1;0,0"
    S, L = parse_region("box:-1,1,-1,1").scale(30), parse_coset(coset)
    assert L.a == 5

    def hang(signum, frame):
        raise TimeoutError("the lattice walk did not stop")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(20)
    try:
        for sieve in (parity_grid, sieve_grid):
            with pytest.raises(SieveCorruptionError, match="does not span"):
                sieve(F2, S, L)
        argv = ["avg", "--form", "1,0,0,2", "--alpha", "mu", "--region", "box:-1,1,-1,1",
                "--coset", coset, "--N", "30"]
        assert main(argv) == EXIT_ASSERTION
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_grid_matches_trial_division():
    region = ConvexRegion.box(-20, 20, -20, 20)
    for form in (F2, BinaryCubicForm(1, -1, 0, 1)):
        grid = parity_grid(form, region, keep_arrays=True)
        pts = 0
        s_mu = s_lam = s_omg = 0
        for y in range(-20, 21):
            for x in range(-20, 21):
                v = form(x, y)
                iy, ix = y + 20, x + 20
                if (x, y) == (0, 0):
                    assert grid.mu[iy, ix] == 0
                    continue
                pts += 1
                m, l, o = parities(v)
                assert grid.mu[iy, ix] == m
                assert grid.lam[iy, ix] == l
                assert grid.omg[iy, ix] == o
                s_mu += m
                s_lam += l
                s_omg += o
        assert grid.points == pts
        assert (grid.mu_sum, grid.lam_sum, grid.omg_sum) == (s_mu, s_lam, s_omg)


def test_grid_with_coset_and_coprime():
    region = ConvexRegion.box(-18, 18, -18, 18)
    L = LatticeCoset(basis=((5, 1), (0, 1)), offset=(0, 0)).row_form()  # x = y mod 5
    grid = parity_grid(F2, region, L, coprime_only=True, keep_arrays=True)
    pts = 0
    s = 0
    for y in range(-18, 19):
        for x in range(-18, 19):
            ok = (x - y) % 5 == 0 and math.gcd(x, y) == 1
            iy, ix = y + 18, x + 18
            if ok:
                pts += 1
                m = parities(F2(x, y))[0]
                s += m
                assert grid.mu[iy, ix] == m
            else:
                assert grid.mu[iy, ix] == 0
    assert grid.points == pts
    assert grid.mu_sum == s


def test_grid_thread_determinism():
    region = ConvexRegion.box(-60, 60, -60, 60)
    g1 = parity_grid(F2, region, threads=1, keep_arrays=True)
    g4 = parity_grid(F2, region, threads=4, keep_arrays=True)
    assert (g1.points, g1.mu_sum, g1.lam_sum, g1.omg_sum) == (
        g4.points,
        g4.mu_sum,
        g4.lam_sum,
        g4.omg_sum,
    )
    assert np.array_equal(g1.mu, g4.mu)
    assert np.array_equal(g1.lam, g4.lam)
    assert np.array_equal(g1.omg, g4.omg)


def test_grid_many_bands_match_one_band(monkeypatch):
    """A grid split into several bands, threaded or not, equals the one-band grid."""
    f = BinaryCubicForm(6, -5, 3, 7)  # 2 | a and 3 | a: rows p | y struck wholesale
    region = ConvexRegion.box(-30, 30, -25, 35)
    L = LatticeCoset(basis=((3, 1), (0, 1)), offset=(1, 0)).row_form()
    one = parity_grid(f, region, L, coprime_only=True, keep_arrays=True)
    assert len(factor_sieve._bands(one.spec)) == 1
    monkeypatch.setattr(factor_sieve, "_BAND_CELLS", 12 * one.spec.stored_width)
    assert len(factor_sieve._bands(one.spec)) >= 4
    for threads in (1, 3):
        many = parity_grid(f, region, L, coprime_only=True, threads=threads, keep_arrays=True)
        assert many.points == one.points > 0
        assert (many.mu_sum, many.lam_sum, many.omg_sum) == (one.mu_sum, one.lam_sum, one.omg_sum)
        assert np.array_equal(many.mu, one.mu)
        assert np.array_equal(many.lam, one.lam)
        assert np.array_equal(many.omg, one.omg)


def test_bands_keep_sums_only_unless_asked(monkeypatch):
    """Without keep_arrays a banded grid holds no int8 grids, and its points
    and sums equal those of the kept grids."""
    f = BinaryCubicForm(6, -5, 3, 7)
    region = ConvexRegion.disc(Fraction(1, 2), 0, 21)
    L = LatticeCoset(basis=((3, 1), (0, 1)), offset=(1, 0)).row_form()
    spec = factor_sieve._make_spec(f, region, L, True)
    monkeypatch.setattr(factor_sieve, "_BAND_CELLS", 6 * spec.stored_width)
    assert len(factor_sieve._bands(spec)) >= 5
    for threads in (1, 2):
        kept = parity_grid(f, region, L, coprime_only=True, threads=threads, keep_arrays=True)
        sums = parity_grid(f, region, L, coprime_only=True, threads=threads)
        assert sums.points == kept.points == int(np.count_nonzero(kept.omg)) > 0
        assert (sums.mu_sum, sums.lam_sum, sums.omg_sum) == (kept.mu_sum, kept.lam_sum, kept.omg_sum)
        assert (kept.mu_sum, kept.lam_sum) == (int(kept.mu.sum()), int(kept.lam.sum()))
        assert sums.mu is None and sums.lam is None and sums.omg is None


def test_parity_grids_want_regions_inside_the_last():
    """Regions read off one sieve must lie in the last region's grid."""
    inner = ConvexRegion.box(1, 2, 1, 2)
    with pytest.raises(ValueError, match="last region"):
        factor_sieve.parity_grids(F2, [inner.scale(10), inner.scale(20)])
    part = ConvexRegion.disc(30, 31, 7)
    shared = factor_sieve.parity_grids(F2, [part, inner.scale(20)])[0]
    alone = parity_grid(F2, part)
    assert (shared.points, shared.mu_sum, shared.lam_sum, shared.omg_sum) == (
        alone.points, alone.mu_sum, alone.lam_sum, alone.omg_sum)


def test_grid_guards_exact_edges():
    """The 2^62 value guard and the 230M cell cap, each at its edge; nothing is sieved."""
    # 4 * H * (m + 1)^3 = 4 * 2^30 * 1024^3 = 2^62 at half-width m = 1023
    f = BinaryCubicForm(2**30, 0, 0, 3)
    assert factor_sieve._make_spec(f, ConvexRegion.box(-1022, 1022, -1022, 1022), None, False)
    with pytest.raises(ExactRangeError):
        parity_grid(f, ConvexRegion.box(-1023, 1023, -1023, 1023))
    # 10000 * 23000 cells is the cap exactly; one more row is past it
    assert factor_sieve._make_spec(F2, ConvexRegion.box(0, 9999, 0, 22999), None, False).cells == 230_000_000
    with pytest.raises(ExactRangeError):
        parity_grid(F2, ConvexRegion.box(0, 9999, 0, 23000))


class _Sieved(Exception):
    """Raised in place of the root table: the caps were passed."""


def _no_sieve(monkeypatch):
    def refuse(f, primes):
        raise _Sieved

    monkeypatch.setattr(factor_sieve, "_root_table", refuse)


def test_grid_paths_strike_the_same_primes(monkeypatch):
    """Both grid paths take their primes from one table, at the same depth."""
    seen = []
    root_table = factor_sieve._root_table

    def record(f, primes):
        seen.append(primes)
        return root_table(f, primes)

    monkeypatch.setattr(factor_sieve, "_root_table", record)
    S = ConvexRegion.box(-30, 30, -30, 30)
    parity_grid(F2, S)
    sieve_grid(F2, S)
    assert len(seen) == 2
    assert np.array_equal(seen[0], seen[1])


def test_factor_table_cap_exact_edge(monkeypatch):
    """sieve_grid admits 2100 * 2000 = 4.2M cells; one more row is past the cap."""
    _no_sieve(monkeypatch)
    with pytest.raises(_Sieved):
        sieve_grid(F2, ConvexRegion.box(0, 2099, 0, 1999))
    with pytest.raises(ExactRangeError, match="factor table"):
        sieve_grid(F2, ConvexRegion.box(0, 2099, 0, 2000))


def test_kept_array_cap_exact_edge(monkeypatch):
    """keep_arrays admits 6000 * 5600 = 33.6M cells; one more row is past the cap."""
    _no_sieve(monkeypatch)
    with pytest.raises(_Sieved):
        parity_grid(F2, ConvexRegion.box(0, 5999, 0, 5599), keep_arrays=True)
    with pytest.raises(ExactRangeError, match="per-point arrays"):
        parity_grid(F2, ConvexRegion.box(0, 5999, 0, 5600), keep_arrays=True)


def test_keep_arrays_on_empty_region(monkeypatch):
    _no_sieve(monkeypatch)
    grid = parity_grid(F2, ConvexRegion.box(Fraction(1, 4), Fraction(3, 4), 0, 5), keep_arrays=True)
    assert (grid.points, grid.mu_sum, grid.lam_sum, grid.omg_sum) == (0, 0, 0, 0)


def test_sieve_grid_on_empty_region(monkeypatch):
    _no_sieve(monkeypatch)
    assert sieve_grid(F2, ConvexRegion.box(Fraction(1, 4), Fraction(3, 4), 0, 5)) == {}


def test_sum_channels():
    region = ConvexRegion.box(-9, 9, -9, 9)
    grid = parity_grid(F2, region)
    assert grid.sum_for("mu") == grid.mu_sum
    assert grid.sum_for("lambda") == grid.lam_sum
    assert grid.sum_for("omega") == grid.omg_sum
    with pytest.raises(ValueError):
        grid.sum_for("sigma")
    assert grid.mu is None and grid.lam is None and grid.omg is None  # sums only


def test_sieve_grid_factorizations():
    region = ConvexRegion.box(-15, 15, -15, 15)
    table = sieve_grid(F2, region)
    assert (0, 0) not in table
    assert len(table) == 31 * 31 - 1
    for (x, y), fz in table.items():
        assert isinstance(fz, Factorization)
        assert fz.rebuild() == F2(x, y) == fz.value
        assert sorted(fz.factors) == trial_factor(F2(x, y))


def test_sieve_grid_coprime_only():
    region = ConvexRegion.box(-12, 12, -12, 12)
    table = sieve_grid(F2, region, coprime_only=True)
    want = {
        (x, y)
        for x in range(-12, 13)
        for y in range(-12, 13)
        if math.gcd(x, y) == 1
    }
    assert set(table) == want


def test_grid_rejects_bad_forms():
    region = ConvexRegion.box(-5, 5, -5, 5)
    with pytest.raises(ValueError):
        parity_grid(BinaryCubicForm(2, 0, 0, 4), region)  # content 2
    with pytest.raises(ValueError):
        parity_grid(BinaryCubicForm(1, 0, 0, -8), region)  # reducible
    with pytest.raises(ExactRangeError):
        parity_grid(F2, ConvexRegion.box(-1, 1, -1, 1).scale(10**6))



# sha256 of each grid's mu, lambda and omega-sign arrays and of its factor
# table: the sieve's outputs must not change with how its roots are found
GRID_SHA256 = (
    # a box
    (BinaryCubicForm(1, 0, 0, 2), ConvexRegion.box(-70, 70, -70, 70), None, False,
     "c653db6e9989096401f1bdb60e3eca53726ec23fc44bfd159313639ad79f94e6"),
    # a non-monic box, on a coset and coprime points only
    (BinaryCubicForm(3, -1, 2, -5), ConvexRegion.box(-80, 80, -80, 80),
     LatticeCoset(basis=((3, 0), (1, 1)), offset=(1, 2)).row_form(), True,
     "a5e993ffe5f3edae59ee17eca24b8704a9d8ce3d66793450d24474004c8e3b2b"),
    # a strip 7 wide with 2 * 7 * 1009 | a
    (BinaryCubicForm(2 * 7 * 1009, 1, -3, 2), ConvexRegion.box(-3, 3, -150, 150), None, False,
     "114812759034dcda968caa85c71d81aa2085bc41f2a20de882d258b3639d02ae"),
    # a column one wide: every prime is walked
    (BinaryCubicForm(1, 0, 0, 2), ConvexRegion.box(5, 5, -1500, 1500), None, False,
     "15c34ce664d1d47c0d5e65057011f8242610e8d47477c7f2dc5996c351ee1924"),
    # a wide strip
    (BinaryCubicForm(1, 2, -1, 111), ConvexRegion.box(-500, 500, -2, 2), None, False,
     "91948f032d2e620e93c503596b5e85996d52e23ef28b207824f5e9fc4463b622"),
)


@pytest.mark.parametrize("case", range(len(GRID_SHA256)))
def test_grid_outputs_pinned(case):
    f, S, L, coprime, want = GRID_SHA256[case]
    grid = parity_grid(f, S, L, coprime_only=coprime, keep_arrays=True)
    h = hashlib.sha256()
    for arr in (grid.mu, grid.lam, grid.omg):
        h.update(arr.tobytes())
    table = sieve_grid(f, S, L, coprime_only=coprime)
    h.update("".join(f"{x} {y} {fz.sign} {fz.factors}\n" for (x, y), fz in sorted(table.items())).encode())
    assert h.hexdigest() == want

def _random_form(rng: random.Random, lead: int) -> BinaryCubicForm:
    """Irreducible content-1 form, coefficients in [-30, 30], given x^3 term."""
    while True:
        f = BinaryCubicForm(lead, *(rng.randint(-30, 30) for _ in range(3)))
        if math.gcd(*f.coeffs) == 1 and is_irreducible(f):
            return f


def _random_region(rng: random.Random, kind: str) -> ConvexRegion:
    """A region with at least one integer point, inside [-16, 16]^2."""
    cx, cy = rng.randint(-4, 4), rng.randint(-4, 4)
    if kind == "box":
        return ConvexRegion.box(
            cx - Fraction(rng.randint(2, 48), 4),
            cx + Fraction(rng.randint(2, 48), 4),
            cy - Fraction(rng.randint(2, 48), 4),
            cy + Fraction(rng.randint(2, 48), 4),
        )
    if kind == "disc":
        return ConvexRegion.disc(
            cx + Fraction(rng.randint(0, 3), 4),
            cy + Fraction(rng.randint(0, 3), 4),
            Fraction(rng.randint(4, 44), 4),
        )
    if kind == "triangle":
        while True:
            pts = [(rng.randint(-14, 14), rng.randint(-14, 14)) for _ in range(3)]
            (px, py), (qx, qy), (rx, ry) = pts
            if (qx - px) * (ry - py) - (qy - py) * (rx - px):
                return ConvexRegion.polygon(pts)
    # a kite with integer vertices on the two axes through (cx, cy)
    e, n, w, s = (rng.randint(2, 12) for _ in range(4))
    return ConvexRegion.polygon([(cx + e, cy), (cx, cy + n), (cx - w, cy), (cx, cy - s)])


def _random_coset(rng: random.Random) -> LatticeCoset:
    while True:
        rows = tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2))
        if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]:
            return LatticeCoset(basis=rows, offset=(rng.randint(-5, 5), rng.randint(-5, 5)))


def _oracle_channels(n: int) -> tuple[int, int, int]:
    fs = trial_factor(n)
    k, big = len(fs), sum(e for _, e in fs)
    return (0 if big > k else (-1) ** k), (-1) ** big, (-1) ** k


def _differential(f, S, L, coprime, where, threads=(1, 3)):
    """Both grid paths against trial division over [-17, 17]^2, with coset
    membership from the basis-matrix oracle; the int8 grids, the sums and
    the factor table, which lists its points y first, then x."""
    admitted = {}
    for y in range(-17, 18):
        for x in range(-17, 18):
            if L is not None and not L.contains(x, y):
                continue
            if (x, y) == (0, 0) or not S.contains(x, y):
                continue
            if coprime and math.gcd(x, y) != 1:
                continue
            admitted[(x, y)] = f(x, y)
    rf = L.row_form() if L is not None else None

    for t in threads:
        grid = parity_grid(f, S, rf, coprime_only=coprime, threads=t, keep_arrays=True)
        spec = grid.spec
        want = np.zeros((3, spec.height, spec.width), dtype=np.int8)
        for (x, y), v in admitted.items():
            assert spec.xmin <= x <= spec.xmax and spec.ymin <= y <= spec.ymax, where
            want[:, y - spec.ymin, x - spec.xmin] = _oracle_channels(v)
        assert grid.points == len(admitted), where
        assert np.array_equal(grid.mu, want[0]), where
        assert np.array_equal(grid.lam, want[1]), where
        assert np.array_equal(grid.omg, want[2]), where
        sums = want.sum(axis=(1, 2), dtype=np.int64).tolist()
        assert [grid.mu_sum, grid.lam_sum, grid.omg_sum] == sums, where

    table = sieve_grid(f, S, rf, coprime_only=coprime)
    assert list(table) == sorted(admitted, key=lambda pt: (pt[1], pt[0])), where
    for pt, v in admitted.items():
        assert table[pt].value == v, where
        assert list(table[pt].factors) == trial_factor(v), where


def test_grid_paths_vs_trial_division_random():
    """Seeded differential check of the strike engine over random inputs."""
    rng = random.Random(2005)
    kinds = ("box", "disc", "triangle", "kite")
    for case in range(96):
        f = _random_form(rng, LEADS[case % len(LEADS)])
        S = _random_region(rng, kinds[case % len(kinds)])
        L = _random_coset(rng) if case % 3 else None
        coprime = case % 2 == 1
        _differential(f, S, L, coprime, f"case {case}: {f.coeffs} {S} {L} coprime={coprime}")


def _wide_coset(rng: random.Random) -> LatticeCoset:
    """Basis entries in [-40, 40], so the index reaches 3200: the coset's
    steps reach past the grid width and past the smallest walked primes."""
    while True:
        rows = tuple(tuple(rng.randint(-40, 40) for _ in range(2)) for _ in range(2))
        if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]:
            return LatticeCoset(basis=rows, offset=(rng.randint(-50, 50), rng.randint(-50, 50)))


def test_grid_paths_on_wide_cosets():
    """The coset layout against trial division and the coset oracle, on
    cosets whose rows hold few points, one or none."""
    rng = random.Random(1554)
    kinds = ("box", "disc", "triangle", "kite")
    for case in range(300):
        f = _random_form(rng, LEADS[case % len(LEADS)])
        S = _random_region(rng, kinds[case % len(kinds)])
        L = _wide_coset(rng)
        coprime = case % 2 == 1
        where = f"case {case}: {f.coeffs} {S} {L} coprime={coprime}"
        _differential(f, S, L, coprime, where, threads=(1, 3) if case % 10 == 0 else (1,))


# ------------------------------------------------------------- lattice walk


def _walked(pairs, xmin: int, width: int, y0: int, y1: int) -> list[tuple[int, int]]:
    """(flat band index, p) of every hit of the walk, in walk order."""
    p = np.array([q for q, _ in pairs], dtype=np.int64)
    r = np.array([r for _, r in pairs], dtype=np.int64)
    lat = factor_sieve._reduced_lattices(p, r, width)
    start = (r * y0 - xmin) % p  # the pair's column in row y0
    hits = []
    for idx, q in factor_sieve._lattice_hits(lat, p, start, width, y1 - y0 + 1, y0, 1, width, 1):
        hits += zip(idx.tolist(), q.tolist())
    return hits


def _row_scan(pairs, xmin: int, width: int, y0: int, y1: int) -> list[tuple[int, int]]:
    """The same hits from the definition: x = r*y (mod p) in each row p does not divide."""
    hits = []
    for p, r in pairs:
        for y in range(y0, y1 + 1):
            if y % p:
                first = xmin + (r * y - xmin) % p
                hits += (((y - y0) * width + x - xmin, p) for x in range(first, xmin + width, p))
    return hits


def test_lattice_walk_vs_row_scan():
    """Each (p, r) lattice with p >= width, walked through a random strip
    and run of rows, hits exactly the cells of the row-by-row definition,
    each once.  Roots near p/phi force the longest Euclid runs; primes far
    past rows * width meet the band at most once or not at all."""
    rng = random.Random(1993)
    phi = (1 + math.sqrt(5)) / 2
    moderate = simple_primes(5000)
    huge = [1_000_003, 999_999_937, 2_147_483_647]
    for case in range(80):
        width = rng.choice([1, 2, 3, 7, rng.randint(4, 60), rng.randint(60, 400)])
        xmin = rng.randint(-500, 500)
        y0 = rng.randint(-600, 600)
        y1 = y0 + rng.randint(0, 200)
        near = [q for q in moderate if width <= q < 3 * width + 10][:6]
        primes = sorted(set(near + rng.sample([q for q in moderate if q >= width], 6) + huge))
        pairs = sorted({
            (p, r % p)
            for p in primes
            for r in (0, 1, p - 1, round(p / phi), round(p / phi**2), rng.randrange(p))
        })
        got = _walked(pairs, xmin, width, y0, y1)
        want = _row_scan(pairs, xmin, width, y0, y1)
        where = f"case {case}: width {width}, xmin {xmin}, rows {y0}..{y1}"
        assert len(got) == len(set(got)), where
        assert sorted(got) == sorted(want), where
        assert all(0 <= i < width * (y1 - y0 + 1) for i, _ in got), where


def _check_grid(f, S, L=None, coprime=False):
    """parity_grid arrays and sieve_grid factors against trial division."""
    rf = L.row_form() if L is not None else None
    grid = parity_grid(f, S, rf, coprime_only=coprime, keep_arrays=True)
    spec = grid.spec
    table = sieve_grid(f, S, rf, coprime_only=coprime)
    points = 0
    for y in range(spec.ymin, spec.ymax + 1):
        for x in range(spec.xmin, spec.xmax + 1):
            at = (y - spec.ymin, x - spec.xmin)
            admitted = (x, y) != (0, 0) and S.contains(x, y)
            admitted &= L is None or L.contains(x, y)
            admitted &= not coprime or math.gcd(x, y) == 1
            got = (grid.mu[at], grid.lam[at], grid.omg[at])
            if not admitted:
                assert got == (0, 0, 0) and (x, y) not in table, (x, y)
                continue
            points += 1
            v = f(x, y)
            assert got == _oracle_channels(v), (f.coeffs, x, y, v)
            assert list(table[(x, y)].factors) == trial_factor(v), (f.coeffs, x, y, v)
    assert grid.points == points == len(table)
    return grid


# (form, region): walked primes with r = 0, p = width, strips away from
# x = 0, and tall grids where p >= width divides rows y != 0
WALK_EDGES = (
    (F2, parse_region("box:1,2,1,2").scale(30)),  # x, y in [30, 60]: p = 31 = width
    (BinaryCubicForm(1, 2, -1, 111), parse_region("box:1,2,1,2").scale(30)),  # 37 | d: r = 0
    (BinaryCubicForm(1, 2, -1, 111), ConvexRegion.box(-40, -10, -25, 70)),
    (BinaryCubicForm(3, -1, 2, -5), ConvexRegion.box(-3, 3, -60, 60)),  # width 7, tall
    (BinaryCubicForm(1, 0, 0, 2), ConvexRegion.box(5, 5, -80, 80)),  # width 1: every p walked
)


@pytest.mark.parametrize("case", range(len(WALK_EDGES)))
def test_walked_primes_vs_trial_division(case, monkeypatch):
    f, S = WALK_EDGES[case]
    one = _check_grid(f, S)
    spec = one.spec
    # bands of 5 rows: most hold neither y = 0 nor the first row of the walk
    monkeypatch.setattr(factor_sieve, "_BAND_CELLS", 5 * spec.width)
    assert len(factor_sieve._bands(spec)) > 5
    many = _check_grid(f, S)
    assert np.array_equal(many.mu, one.mu) and np.array_equal(many.lam, one.lam)
    assert np.array_equal(many.omg, one.omg)


def test_prime_dividing_lead_and_row_exact_edge(monkeypatch):
    """p | a and p | y: f(x, y) = a*x^3 (mod p), so the whole row is struck.

    a = 2 * 7 * 1009 on a strip 7 wide and rows -51..51: 1009 strikes the
    row y = 0 whole, 7 = width the rows y = +-7, +-14, ... and 2 every even
    row.  All three are struck row by row, though 7 and 1009 are at or past
    the width: no walked prime divides f's lead.  The half-width 51 puts
    1009 under the square root of the value bound, so the factor table
    strikes it too."""
    f = BinaryCubicForm(2 * 7 * 1009, 1, -3, 2)
    assert is_irreducible(f)
    S = ConvexRegion.box(-3, 3, -51, 51)
    spec = factor_sieve._make_spec(f, S, None, False)
    assert math.isqrt(factor_sieve._value_bound(spec)) > 1009 and spec.stored_width == 7
    table = factor_sieve._strike_table(spec)
    assert {2, 7, 1009} <= {p for p, *_ in table.small}
    assert not {7, 1009} & set(table.primes.tolist()) and table.primes.size
    _check_grid(f, S)
    monkeypatch.setattr(factor_sieve, "_BAND_CELLS", 4 * 7)
    _check_grid(f, S)
    _check_grid(f, S, LatticeCoset(basis=((2, 0), (1, 1)), offset=(1, 0)), coprime=True)


# ------------------------------------------------------------- coset layout


def _layout(f, S, basis, offset):
    """The coset and the grid spec of (f, S) cut to it."""
    L = LatticeCoset(basis=basis, offset=offset)
    return L, factor_sieve._make_spec(f, S, L.row_form(), False)


def test_coset_rows_two_apart_and_sheared():
    """c > 1 and b != 0: every other row is stored, and its first column
    moves from row to row."""
    L, spec = _layout(BinaryCubicForm(3, -1, 2, -5), ConvexRegion.box(-40, 45, -35, 38), ((3, 1), (0, 2)), (1, 1))
    rf = spec.lattice
    assert rf.c == 2 and rf.b != 0 and spec.period == 3
    _check_grid(spec.form, spec.region, L)
    _check_grid(spec.form, spec.region, L, coprime=True)


def test_primes_dividing_the_coset_step():
    """a = 3 * 41 on a box 401 wide: the stored width is 4, so 3 | a is
    struck row by row below it and 41 | a past it; each strikes a row whole
    or not at all."""
    L, spec = _layout(BinaryCubicForm(2, 3, -1, 7), ConvexRegion.box(-200, 200, -30, 30), ((123, 5), (0, 1)), (7, 0))
    assert spec.lattice.a == 123 and spec.stored_width == 4
    assert 41 <= math.isqrt(factor_sieve._value_bound(spec))
    _check_grid(spec.form, spec.region, L)
    _check_grid(spec.form, spec.region, L, coprime=True)


def test_prime_of_the_row_modulus_past_the_width():
    """c = 37 on a box 21 wide: 37 | c is struck row by row, though it is
    past the stored width, and strikes every stored row (y0 = 0) or none.
    Both against trial division and the coset oracle, coprime only and
    not, for a = 1 and a = 2."""
    f = BinaryCubicForm(3, -1, 2, -5)
    S = ConvexRegion.box(-10, 10, -150, 150)
    for basis in (((1, 0), (0, 37)), ((2, 1), (0, 37))):
        for offset in ((0, 0), (1, 0), (3, 5)):
            L, spec = _layout(f, S, basis, offset)
            assert spec.lattice.c == 37 and spec.stored_width <= 21
            table = factor_sieve._strike_table(spec)
            assert 37 in {p for p, *_ in table.small} and 37 not in table.primes.tolist()
            assert table.primes.size  # some primes are walked
            for coprime in (False, True):
                _check_grid(f, S, L, coprime)


# (form, region, coset, half): the a = 3 disc coset of avg-row, a = 50 on
# a disc off centre, a box 16 times taller than wide, and a symmetric box
# on a symmetric coset, which takes the half path; each has primes between
# the stored width and the half-width
WALKED_PAST_THE_HALF_WIDTH = (
    (BinaryCubicForm(3, -1, 2, -5), parse_region("disc:0,0,1").scale(60), parse_coset("coset:3,0,1,1;-3,4"), False),
    (F2, parse_region("disc:1/2,0,1").scale(300), parse_coset("coset:50,0,1,1;0,0"), False),
    (BinaryCubicForm(6, -5, 3, 7), parse_region("box:0,1,-8,8").scale(10), None, False),
    (BinaryCubicForm(6, -5, 3, 7), ConvexRegion.box(-40, 40, -40, 40),
     LatticeCoset(basis=((4, 2), (0, 2)), offset=(1, 1)).row_form(), True),
)


@pytest.mark.parametrize("case", range(len(WALKED_PAST_THE_HALF_WIDTH)))
def test_walked_primes_lie_past_the_half_width(case, monkeypatch):
    """Every walked prime is past the half-width, at least the stored width
    and coprime to f's lead, a and c: past the half-width it divides no y
    but 0 and no gcd(x, y) but the origin's, so the walk needs no rows
    p | y.  The table is read on the spec that is sieved, the half grid's
    on the half path."""
    f, S, L, half = WALKED_PAST_THE_HALF_WIDTH[case]
    assert factor_sieve._symmetric([S], L) == half
    sieved = []
    strike_table = factor_sieve._strike_table
    monkeypatch.setattr(factor_sieve, "_strike_table", lambda spec: sieved.append(spec) or strike_table(spec))
    parity_grid(f, S, L, coprime_only=True)
    (spec,) = sieved
    assert (spec.ymin == 0) == half
    assert spec.stored_width < spec.half_width
    primes = strike_table(spec).primes
    assert primes.size > 0
    assert np.all(primes > spec.half_width) and np.all(primes >= spec.stored_width)
    steps = f.a * spec.lattice.a * spec.lattice.c
    assert all(math.gcd(steps, p) == 1 for p in primes.tolist())


def test_walk_split_imports_no_masked_arrays():
    """The strike table splits the pairs by the primes' own split, not by
    set membership, whose sort path past numpy's table limit imports
    numpy.ma.  A box of 160,801 cells at depth 672,333, in a fresh
    interpreter."""
    code = (
        "import sys\n"
        "from chowla.cubic_form import BinaryCubicForm\n"
        "from chowla.factor_sieve import parity_grid\n"
        "from chowla.region_lattice import parse_region\n"
        "g = parity_grid(BinaryCubicForm(14126, 1, -3, 2), parse_region('box:-1,1,-1,1').scale(200))\n"
        "print(g.spec.cells, g.points, g.mu_sum, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(factor_sieve.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["160801", "160800", "164", "False"]


def test_congruent_cells_past_the_int64_products():
    """A prime struck row by row because it divides f's lead or c may lie
    near the depth, below 2^31, in rows |y| up to 2^20: t - x_y, here t =
    r*y, is reduced mod p before it is multiplied by a^-1, where the
    unreduced product passes 2^63.  A grid inside the value guard gets
    there only at a depth past 10^7, whose root table alone takes seconds,
    so the rows are built here; each row's r puts a hit at a chosen
    column, and the cells are checked against x = t (mod p) on Python
    ints."""
    p, a = 2_147_483_629, 3  # the largest prime below 2^31
    ainv = pow(a, -1, p)
    rng = random.Random(31)
    y = np.array([2**20 - k for k in range(12)], dtype=np.int64)
    xs = np.array([rng.randint(-40, 0) for _ in y], dtype=np.int64)
    width = 9
    base = np.arange(y.size, dtype=np.int64) * width
    rows = factor_sieve._Band(y, xs, np.full(y.size, width, dtype=np.int64), base, width, -1)
    cols = [rng.randrange(width + 3) for _ in y]  # a column past the row is no hit
    r = [(int(x) + a * i) * pow(int(v), -1, p) % p for x, v, i in zip(xs, y, cols)]
    t = np.array(r, dtype=np.int64) * y
    assert max((int(v) - int(x)) * ainv for v, x in zip(t, xs)) >= 1 << 63
    want = [k * width + i for k in range(y.size) for i in range(width) if (int(xs[k]) + a * i - int(t[k])) % p == 0]
    assert want == [k * width + i for k, i in enumerate(cols) if i < width]
    assert factor_sieve._congruent_cells(rows, t, p, ainv).tolist() == want


def test_stored_width_one_with_empty_rows():
    """A column one wide cut to odd x + y: one stored column, and every
    other row holds no coset point."""
    L, spec = _layout(F2, ConvexRegion.box(5, 5, -80, 80), ((2, 1), (0, 1)), (0, 0))
    band = factor_sieve._bands(spec)[0]
    assert spec.stored_width == 1 and (band.ns == 0).any() and (band.ns == 1).any()
    _check_grid(F2, spec.region, L)


def test_coset_step_wider_than_the_box():
    """a = 50 on a box 21 wide: a row holds one coset point or none, and the
    rows run through 50 classes of first columns."""
    L, spec = _layout(BinaryCubicForm(1, 2, -1, 111), ConvexRegion.box(-10, 10, -60, 60), ((50, 7), (0, 1)), (3, 0))
    assert spec.lattice.a > spec.width and spec.period == 50
    _check_grid(spec.form, spec.region, L)
    _check_grid(spec.form, spec.region, L, coprime=True)


def test_coset_bands_start_in_every_row_class(monkeypatch):
    """Bands of 5 stored rows start in every class of rows mod 3, at 1 and 3
    threads, and equal the one-band grid and trial division."""
    f = BinaryCubicForm(6, -5, 3, 7)
    L, spec = _layout(f, ConvexRegion.box(-30, 30, -25, 35), ((3, 1), (0, 2)), (1, 0))
    one = _check_grid(f, spec.region, L, coprime=True)
    monkeypatch.setattr(factor_sieve, "_BAND_CELLS", 5 * spec.stored_width)
    bands = factor_sieve._bands(spec)
    assert len(bands) >= 6 and spec.period == 3
    for threads in (1, 3):
        many = parity_grid(f, spec.region, spec.coset, coprime_only=True, threads=threads, keep_arrays=True)
        assert (many.points, many.mu_sum, many.lam_sum, many.omg_sum) == (
            one.points, one.mu_sum, one.lam_sum, one.omg_sum)
        assert np.array_equal(many.mu, one.mu) and np.array_equal(many.lam, one.lam)
        assert np.array_equal(many.omg, one.omg)


def test_coset_schedule_through_parity_grids():
    """A schedule read off one sieve of a sheared coset equals each region
    sieved alone, and the brute-force count and sums."""
    f = BinaryCubicForm(3, -1, 2, -5)
    L = LatticeCoset(basis=((3, 1), (0, 2)), offset=(1, 1))
    regions = [ConvexRegion.disc(Fraction(1, 2), 0, 1).scale(N) for N in (4, 9, 17)]
    grids = factor_sieve.parity_grids(f, regions, L.row_form(), coprime_only=True, threads=2)
    for S, grid in zip(regions, grids):
        alone = parity_grid(f, S, L.row_form(), coprime_only=True)
        want = [0, 0, 0, 0]
        for y in range(-17, 18):
            for x in range(-9, 27):  # the disc of center (N/2, 0) and radius N = 17
                if (x, y) != (0, 0) and S.contains(x, y) and L.contains(x, y) and math.gcd(x, y) == 1:
                    want = [w + c for w, c in zip(want, (1, *_oracle_channels(f(x, y))))]
        got = [grid.points, grid.mu_sum, grid.lam_sum, grid.omg_sum]
        assert got == [alone.points, alone.mu_sum, alone.lam_sum, alone.omg_sum] == want


def test_coset_step_past_the_int64_products():
    """a = 2^31 - 1: the walked lattices have moduli a*p past 2^31, whose
    first-hit search multiplies past int64 and runs on Python ints."""
    L, spec = _layout(F2, ConvexRegion.box(-40, 40, -40, 40), ((2**31 - 1, 1), (0, 1)), (3, 0))
    assert spec.lattice.a * 37 >= factor_sieve._EXACT_FACTOR
    grid = _check_grid(F2, spec.region, L)
    assert grid.points == 78  # x = y + 3 for y = -40 .. 37
    big = RowForm.span([(2**61, 0), (1, 1)])
    with pytest.raises(ExactRangeError, match="coset step"):
        parity_grid(F2, spec.region, big)


def test_walked_hit_its_prime_does_not_divide_raises(monkeypatch):
    """A walked step that hits a cell its prime does not divide raises
    before anything is divided: a division alone would count it while the
    quotient stays nonzero."""
    walk, sieve_band = factor_sieve._walk, factor_sieve._sieve_band
    cofs = []

    def wrong(spec, table, band):
        yield from walk(spec, table, band)
        # every cofactor left is 1 or one prime past the depth
        yield np.array([0]), np.array([int(table.primes[-1])])

    def record(spec, table, band, cof, visit):
        cofs.append(cof)
        return sieve_band(spec, table, band, cof, visit)

    monkeypatch.setattr(factor_sieve, "_walk", wrong)
    monkeypatch.setattr(factor_sieve, "_sieve_band", record)
    with pytest.raises(SieveCorruptionError, match="a struck prime does not divide its cell"):
        parity_grid(F2, ConvexRegion.box(-9, 9, -9, 9))
    assert cofs[-1][0] == 1  # f(-9, -9) = -3^7, struck to 1 and not divided again


def test_shifted_root_below_the_width_raises(monkeypatch):
    """A root of a prime struck row by row, moved off the zero locus: its
    line meets cells the prime does not divide, and both paths raise.  t^3 +
    2 has the one root 2 mod 5 (cubing is a bijection mod 5); 3 is none."""
    root_table = factor_sieve._root_table

    def shifted(f, primes):
        pair_p, pair_r = root_table(f, primes)
        k = int(np.searchsorted(pair_p, 5))
        assert pair_p[k] == 5 != pair_p[k + 1] and pair_r[k] == 2
        pair_r = pair_r.copy()
        pair_r[k] = 3
        return pair_p, pair_r

    S = ConvexRegion.box(-9, 9, -9, 9)
    assert factor_sieve._make_spec(F2, S, None, False).stored_width > 5
    monkeypatch.setattr(factor_sieve, "_root_table", shifted)
    for run in (parity_grid, sieve_grid):
        with pytest.raises(SieveCorruptionError, match="a struck prime does not divide its cell"):
            run(F2, S)


def test_wrong_lead_for_a_row_struck_prime_raises(monkeypatch):
    """A prime taken to divide f's lead strikes its rows p | y whole, where
    f = x^3 (mod p) is not 0 off p | x: its row-struck sets raise on both
    paths, before the walk."""
    strike_table = factor_sieve._strike_table

    def flipped(spec):
        table = strike_table(spec)
        small = list(table.small)
        k = [p for p, *_ in small].index(17)
        p, roots, p_div_lead, ainv = small[k]
        assert not p_div_lead
        small[k] = (p, roots, True, ainv)
        return replace(table, small=small)

    def refuse(spec, table, band):
        raise AssertionError("walked before the row-struck sets raised")
        yield

    S = ConvexRegion.box(-9, 9, -60, 60)  # rows y = 0, +-17, +-34, +-51
    assert factor_sieve._make_spec(F2, S, None, False).stored_width > 17
    monkeypatch.setattr(factor_sieve, "_strike_table", flipped)
    monkeypatch.setattr(factor_sieve, "_walk", refuse)
    for run in (parity_grid, sieve_grid):
        with pytest.raises(SieveCorruptionError, match="a struck prime does not divide its cell"):
            run(F2, S)


# (form, region, coset): a box off centre, a coset through the origin, a
# form with 2, 3 | a, whose rows p | y are struck whole, and a symmetric
# box, which takes the half path
THROUGH_ORIGIN = (
    (F2, ConvexRegion.box(-7, 12, -9, 15), None),
    (BinaryCubicForm(3, -1, 2, -5), ConvexRegion.box(-20, 17, -15, 21), RowForm.span([(3, 1), (0, 2)])),
    (BinaryCubicForm(6, -5, 3, 7), ConvexRegion.box(-10, 13, -8, 11), None),
    (BinaryCubicForm(6, -5, 3, 7), ConvexRegion.box(-12, 12, -12, 12), None),
)


@pytest.mark.parametrize("case", range(len(THROUGH_ORIGIN)))
def test_no_strike_set_holds_the_origin(case, monkeypatch):
    """f(0, 0) = 0 lies on every row p | y; no strike set holds it, on
    either path, though row 0 is struck."""
    f, S, L = THROUGH_ORIGIN[case]
    assert S.contains(0, 0) and (L is None or L.contains(0, 0))
    assert factor_sieve._symmetric([S], L) == (case == 3)
    strike_sets = factor_sieve._strike_sets
    row_0 = []

    def check(spec, table, band, mask):
        for idx, p in strike_sets(spec, table, band, mask):
            row, col = np.divmod(idx, band.width)
            x, y = band.xs[row] + spec.lattice.a * col, band.y[row]
            assert not np.any((x == 0) & (y == 0)), p
            row_0.append(np.count_nonzero(y == 0))
            yield idx, p

    monkeypatch.setattr(factor_sieve, "_strike_sets", check)
    for run in (parity_grid, sieve_grid):
        row_0.clear()
        run(f, S, L)
        assert sum(row_0) > 0


# ------------------------------------------------------------- central symmetry


def _negated(S: ConvexRegion) -> ConvexRegion:
    """-S from S's data; scale refuses t < 0."""
    if S.kind == "box":
        x0, x1, y0, y1 = S.data
        return ConvexRegion.box(-x1, -x0, -y1, -y0)
    if S.kind == "disc":
        cx, cy, r = S.data
        return ConvexRegion.disc(-cx, -cy, r)
    return ConvexRegion.polygon([(-x, -y) for x, y in S.data])


def _sieved_specs(monkeypatch) -> list:
    """Record the spec of every grid parity_grids sieves: ymin = 0 on the
    half path of a grid with rows below 0."""
    seen = []
    bands = factor_sieve._bands

    def record(spec):
        seen.append(spec)
        return bands(spec)

    monkeypatch.setattr(factor_sieve, "_bands", record)
    return seen


def _sums(grid) -> tuple[int, int, int, int]:
    return grid.points, grid.mu_sum, grid.lam_sum, grid.omg_sum


# (form, region, coset, coprime, half): a box, a disc off centre and a
# triangle; a non-monic form with 2 | a and 3 | a; a symmetric box on an
# asymmetric coset, which takes the whole path, and on a symmetric one
REFLECTED = (
    (F2, ConvexRegion.box(-33, 47, -29, 38), None, False, False),
    (BinaryCubicForm(6, -5, 3, 7), ConvexRegion.disc(Fraction(7, 2), -5, 31),
     LatticeCoset(basis=((3, 1), (0, 2)), offset=(1, 1)), True, False),
    (BinaryCubicForm(3, -1, 2, -5), ConvexRegion.polygon([(-30, -20), (41, -3), (-6, 37)]),
     LatticeCoset(basis=((2, 0), (1, 1)), offset=(1, 0)), False, False),
    (BinaryCubicForm(6, -5, 3, 7), ConvexRegion.box(-40, 40, -40, 40),
     LatticeCoset(basis=((3, 1), (0, 1)), offset=(1, 0)), True, False),
    (BinaryCubicForm(6, -5, 3, 7), ConvexRegion.box(-40, 40, -40, 40),
     LatticeCoset(basis=((4, 2), (0, 2)), offset=(1, 1)), False, True),
)


@pytest.mark.parametrize("case", range(len(REFLECTED)))
def test_reflection_identity(case, monkeypatch):
    """The points and sums over (S, L) equal those over (-S, -L), on bands
    of a few rows with walked primes, at 1 and 3 threads, and equal the
    one-band sums.  An asymmetric coset takes the whole path."""
    f, S, L, coprime, half = REFLECTED[case]
    negL = None if L is None else LatticeCoset(basis=L.basis, offset=tuple(-v for v in L.offset))
    rf, neg_rf = (None if C is None else C.row_form() for C in (L, negL))
    assert factor_sieve._symmetric([S], rf) == half
    one = _sums(parity_grid(f, S, rf, coprime_only=coprime))
    assert one[0] > 0
    spec = factor_sieve._make_spec(f, S, rf, coprime)
    assert factor_sieve._strike_table(spec).primes.size  # some primes are walked
    monkeypatch.setattr(factor_sieve, "_BAND_CELLS", 6 * spec.stored_width)
    seen = _sieved_specs(monkeypatch)
    for threads in (1, 3):
        for region, coset in ((S, rf), (_negated(S), neg_rf)):
            assert _sums(parity_grid(f, region, coset, coprime_only=coprime, threads=threads)) == one
            assert len(factor_sieve._bands(seen[-1])) >= 4
            assert (seen[-1].ymin == 0) == half


def _symmetric_region(rng: random.Random, kind: str) -> ConvexRegion:
    """A region closed under negation with an integer point off the origin,
    inside [-16, 16]^2."""
    if kind == "box":
        X, Y = Fraction(rng.randint(2, 64), 4), Fraction(rng.randint(0, 64), 4)
        return ConvexRegion.box(-X, X, -Y, Y)
    if kind == "disc":
        return ConvexRegion.disc(0, 0, Fraction(rng.randint(4, 64), 4))
    while True:
        # u, v, w, -u, -v, -w: a hexagon when in convex position, else retry
        u, v, w = ((rng.randint(-16, 16), rng.randint(-16, 16)) for _ in range(3))
        try:
            return ConvexRegion.polygon([u, v, w, (-u[0], -u[1]), (-v[0], -v[1]), (-w[0], -w[1])])
        except ValueError:
            continue


def _coset_of_class(rng: random.Random, symmetric: bool) -> RowForm:
    """A RowForm with c, a <= 4 and b, x0, y0 drawn so that -L = L or not."""
    while True:
        c, a = rng.randint(1, 4), rng.randint(1, 4)
        b = rng.randrange(a)
        pick = [RowForm(c, y0, a, b, x0) for y0 in range(c) for x0 in range(a)]
        pick = [L for L in pick if L.contains(-L.x0, -L.y0) == symmetric]
        if pick:
            return rng.choice(pick)


def test_half_grid_matches_whole_grid_random(monkeypatch):
    """The half path against the whole path, forced on the same spec, on
    random symmetric regions and cosets: sums and kept grids.  Asymmetric
    cosets on the same regions must take the whole path."""
    rng = random.Random(501177)
    kinds = ("box", "disc", "hexagon")
    seen = _sieved_specs(monkeypatch)
    reached = set()
    for case in range(72):
        f = _random_form(rng, LEADS[case % len(LEADS)])
        S = _symmetric_region(rng, kinds[case % len(kinds)])
        symmetric = case % 4 != 3
        L = _coset_of_class(rng, symmetric) if case % 4 else None
        coprime = case % 2 == 1
        where = f"case {case}: {f.coeffs} {S} {L} coprime={coprime}"
        spec = factor_sieve._make_spec(f, S, L, coprime)
        if spec is None:
            continue
        monkeypatch.setattr(factor_sieve, "_BAND_CELLS", rng.choice((8_000_000, 3 * spec.stored_width)))
        got = parity_grid(f, S, L, coprime_only=coprime, threads=1 + case % 3 // 2, keep_arrays=True)
        assert (seen[-1].ymin == 0 < spec.ymax) == (symmetric and spec.ymax > 0), where
        assert got.spec == spec, where
        sums, kept = factor_sieve._sieve_parity(spec, [S], 1, True, False)
        assert list(_sums(got)) == sums[0].tolist(), where
        for a, b in zip((got.mu, got.lam, got.omg), kept):
            assert np.array_equal(a, b), where
        if symmetric and L is not None:
            reached |= {("c > 1", L.c > 1), ("b != 0", L.b != 0), ("row 0", L.y0 == 0)}
    assert {("c > 1", True), ("b != 0", True), ("row 0", False), ("row 0", True)} <= reached


# (form, unit region holding the origin, N): the unit box, and a disc off
# centre, which takes the whole path
SCALED = (
    (F2, ConvexRegion.box(-1, 1, -1, 1), 48),
    (BinaryCubicForm(6, -5, 3, 7), ConvexRegion.disc(Fraction(1, 3), Fraction(-1, 4), 1), 45),
)


@pytest.mark.parametrize("case", range(len(SCALED)))
def test_gcd_scaling_identity(case, monkeypatch):
    """f(g*x, g*y) = g^3*f(x, y): over N*S, mu sums over coprime points
    alone, the lambda sum is sum_g lambda(g)*C_lam(N/g) and the point count
    sum_g C_pts(N/g), with C the coprime sums over (N/g)*S, all read off one
    coprime-only parity_grids call on bands of a few rows."""
    f, S, N = SCALED[case]
    spec = factor_sieve._make_spec(f, S.scale(N), None, False)
    assert factor_sieve._strike_table(spec).primes.size
    monkeypatch.setattr(factor_sieve, "_BAND_CELLS", 8 * spec.stored_width)
    assert len(factor_sieve._bands(spec)) >= 4
    every = parity_grid(f, S.scale(N), threads=1 + case)
    # (N/g)*S holds at most the origin once g passes the half-width
    gs = range(spec.half_width, 0, -1)
    C = factor_sieve.parity_grids(f, [S.scale(Fraction(N, g)) for g in gs], coprime_only=True)
    assert every.mu_sum == C[-1].mu_sum
    assert every.lam_sum == sum(parities(g)[1] * c.lam_sum for g, c in zip(gs, C))
    assert every.points == sum(c.points for c in C)
