import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from chowla.cubic_form import BinaryCubicForm
from chowla.factor_sieve import parity_grid
from chowla.region_lattice import (
    ConvexRegion,
    RowForm,
    parse_coset,
    parse_region,
)
from helpers import LatticeCoset

F2 = BinaryCubicForm(1, 0, 0, 2)  # vanishes at the origin only


def _random_coset(rng, span=5, shift=6) -> LatticeCoset:
    while True:
        rows = (
            (rng.randint(-span, span), rng.randint(-span, span)),
            (rng.randint(-span, span), rng.randint(-span, span)),
        )
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        if det:
            return LatticeCoset(
                basis=rows, offset=(rng.randint(-shift, shift), rng.randint(-shift, shift))
            )


def test_row_form_from_basis_membership():
    rng = random.Random(5)
    for _ in range(120):
        L = _random_coset(rng)
        rf = L.row_form()
        assert rf.index == L.index
        # spanned points and only those
        ox, oy = L.offset
        (u1, u2), (v1, v2) = L.columns()
        for _ in range(25):
            s, t = rng.randint(-4, 4), rng.randint(-4, 4)
            x, y = ox + s * u1 + t * v1, oy + s * u2 + t * v2
            assert rf.contains(x, y)
            assert L.contains(x, y)
        for _ in range(25):
            x, y = rng.randint(-40, 40), rng.randint(-40, 40)
            assert rf.contains(x, y) == L.contains(x, y)


def _span_residues(gens, D: int) -> set:
    """The subgroup of (Z/D)^2 the generators span, by closure."""
    sub = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x, y = frontier.pop()
        for gx, gy in gens:
            pt = ((x + gx) % D, (y + gy) % D)
            if pt not in sub:
                sub.add(pt)
                frontier.append(pt)
    return sub


def test_row_form_span_against_enumeration():
    """RowForm.span of 2 to 5 generators (zero y-components, repeats,
    negative entries) against membership read off the subgroup they span
    modulo D, the gcd of their 2x2 minors, which is the index of the span."""
    rng = random.Random(41)
    checked = 0
    while checked < 150:
        gens = [(rng.randint(-6, 6), rng.choice((0, 0, rng.randint(-6, 6))))
                for _ in range(rng.randint(2, 5))]
        if rng.random() < 0.3:
            gens[-1] = gens[0]  # a repeat
            rng.shuffle(gens)
        D = 0
        for (ux, uy), (vx, vy) in itertools.combinations(gens, 2):
            D = math.gcd(D, ux * vy - uy * vx)
        if D == 0:
            with pytest.raises(ValueError, match="coset basis is singular"):
                RowForm.span(gens)
            continue
        offset = (rng.randint(-9, 9), rng.randint(-9, 9))
        rf = RowForm.span(gens, offset)
        sub = _span_residues(gens, D)
        assert rf.index == D and len(sub) * D == D * D
        for y in range(-D, D):
            for x in range(-D, D):
                want = ((x - offset[0]) % D, (y - offset[1]) % D) in sub
                assert rf.contains(x, y) == want, (gens, offset, x, y)
        checked += 1


def test_row_form_span_rejects_rank_deficient_lists():
    for gens in ([], [(0, 0)], [(3, 0), (-5, 0), (3, 0)], [(0, 2), (0, -4)],
                 [(2, 4), (-1, -2), (3, 6), (0, 0)], [(1, -3), (1, -3)]):
        with pytest.raises(ValueError, match="coset basis is singular"):
            RowForm.span(gens, (1, 1))


def test_row_form_index_counts_residues():
    rng = random.Random(17)
    for _ in range(60):
        L = _random_coset(rng)
        rf = L.row_form()
        period_y = rf.c
        period_x = rf.a
        hits = sum(
            rf.contains(x, y) for y in range(period_y) for x in range(period_x)
        )
        # exactly one x-hit per admissible row in one fundamental box
        assert hits * rf.index == period_x * period_y


def test_row_solution_matches_contains():
    rng = random.Random(23)
    for _ in range(80):
        L = _random_coset(rng)
        rf = L.row_form()
        for y in range(-12, 13):
            sol = rf.row_solution(y)
            for x in range(-20, 21):
                inside = rf.contains(x, y)
                if sol is None:
                    assert not inside
                else:
                    res, mod = sol
                    assert inside == ((x - res) % mod == 0)


def test_row_form_intersection():
    rng = random.Random(31)
    for _ in range(150):
        L1 = _random_coset(rng, span=3, shift=4)
        L2 = _random_coset(rng, span=3, shift=4)
        r1, r2 = L1.row_form(), L2.row_form()
        inter = r1.intersect(r2)
        # window covering a full fundamental domain of both lattices
        wy = math.lcm(r1.c, r2.c)
        wx = math.lcm(r1.a, r2.a)
        for y in range(wy):
            for x in range(wx):
                both = r1.contains(x, y) and r2.contains(x, y)
                if inter is None:
                    assert not both
                else:
                    assert both == inter.contains(x, y)
        if inter is not None:
            # the canonical anchor must genuinely lie in both cosets
            assert r1.contains(inter.x0, inter.y0)
            assert r2.contains(inter.x0, inter.y0)


def test_box_region():
    S = ConvexRegion.box(-2, 3, -1, 2)
    for x in range(-5, 6):
        for y in range(-5, 6):
            assert S.contains(x, y) == (-2 <= x <= 3 and -1 <= y <= 2)
    assert S.y_range() == (-1, 2)
    assert S.x_range() == (-2, 3)
    with pytest.raises(ValueError):
        ConvexRegion.box(1, 0, 0, 1)


def test_disc_region_exact_rows():
    S = ConvexRegion.disc(Fraction(1, 2), 0, Fraction(7, 2))
    for y in range(-5, 6):
        ext = S.row_extent(y)
        want = [
            x
            for x in range(-6, 8)
            if (Fraction(x) - Fraction(1, 2)) ** 2 + y * y <= Fraction(49, 4)
        ]
        if ext is None:
            assert want == []
        else:
            lo, hi = ext
            assert want == list(range(lo, hi + 1))
    with pytest.raises(ValueError):
        ConvexRegion.disc(0, 0, 0)


def test_polygon_region():
    # a box written as a polygon must trace the same point set
    B = ConvexRegion.box(-3, 2, -2, 4)
    P = ConvexRegion.polygon([(-3, -2), (2, -2), (2, 4), (-3, 4)])
    for x in range(-5, 6):
        for y in range(-5, 7):
            assert B.contains(x, y) == P.contains(x, y)
        # whole rows agree too
    for y in range(-5, 7):
        assert B.row_extent(y) == P.row_extent(y)
    # clockwise input is normalized, not rejected
    Q = ConvexRegion.polygon([(-3, -2), (-3, 4), (2, 4), (2, -2)])
    for y in range(-5, 7):
        assert Q.row_extent(y) == P.row_extent(y)
    with pytest.raises(ValueError):
        ConvexRegion.polygon([(0, 0), (1, 1), (2, 2)])  # collinear
    with pytest.raises(ValueError):
        ConvexRegion.polygon([(0, 0), (1, 0)])


def test_triangle_rows_match_brute():
    T = ConvexRegion.polygon([(0, 0), (7, 1), (2, 6)])
    for y in range(-2, 8):
        ext = T.row_extent(y)
        want = [x for x in range(-3, 11) if T.contains(x, y)]
        if ext is None:
            assert want == []
        else:
            lo, hi = ext
            assert want == list(range(lo, hi + 1))


_ODD_REGIONS = (
    ConvexRegion.box(Fraction(-7, 3), Fraction(5, 2), Fraction(-1, 2), Fraction(11, 4)),
    ConvexRegion.box(Fraction(1, 3), Fraction(2, 3), -2, 3),  # no integer column
    ConvexRegion.disc(Fraction(1, 3), Fraction(-3, 4), Fraction(17, 6)),
    ConvexRegion.disc(Fraction(-5, 2), 1, Fraction(1, 3)),  # no integer point
    ConvexRegion.polygon([(Fraction(-9, 2), -1), (Fraction(7, 3), Fraction(-5, 2)), (1, Fraction(13, 4))]),
)


@pytest.mark.parametrize("S", _ODD_REGIONS)
def test_ranges_and_rows_vs_contains(S):
    """x_range, y_range and row_extent against scans through contains, on
    fractional corners, centres and radii.  A column x is in range when
    some (x, k/12) lies in S; 12 is a common denominator of every datum, so
    the scan meets each extreme point."""
    fine = [Fraction(k, 12) for k in range(-96, 97)]
    cols = [x for x in range(-8, 9) if any(S.contains(x, v) for v in fine)]
    rows = [y for y in range(-8, 9) if any(S.contains(u, y) for u in fine)]
    for got, want in ((S.x_range(), cols), (S.y_range(), rows)):
        if want:
            assert got == (want[0], want[-1])
        else:
            assert got[0] > got[1]
    for y in range(-8, 9):
        row = [x for x in range(-8, 9) if S.contains(x, y)]
        ext = S.row_extent(y)
        assert row == ([] if ext is None else list(range(ext[0], ext[1] + 1)))


def test_scale_membership():
    S = ConvexRegion.polygon([(-1, -1), (1, 0), (0, 1)])
    N = 9
    big = S.scale(N)
    for x in range(-12, 13):
        for y in range(-12, 13):
            assert big.contains(x, y) == S.contains(Fraction(x, N), Fraction(y, N))
    with pytest.raises(ValueError):
        S.scale(0)


@pytest.mark.parametrize("S", [S for S in _ODD_REGIONS if S.kind != "poly"])
def test_scale_box_and_disc_membership(S):
    N = 9
    big = S.scale(N)
    assert big.kind == S.kind
    for x in range(-45, 46):
        for y in range(-45, 46):
            assert big.contains(x, y) == S.contains(Fraction(x, N), Fraction(y, N))


def test_grid_points_vs_brute():
    """The sieve's region & coset mask admits exactly the brute-force points."""
    rng = random.Random(41)
    regions = [
        ConvexRegion.box(-7, 5, -4, 6),
        ConvexRegion.disc(0, 1, Fraction(13, 2)),
        ConvexRegion.polygon([(-5, -3), (6, -2), (4, 5), (-6, 4)]),
    ]
    for S in regions:
        for L in (None, _random_coset(rng), _random_coset(rng)):
            brute = 0
            for x in range(-15, 16):
                for y in range(-15, 16):
                    if (x, y) == (0, 0):
                        continue
                    if S.contains(x, y) and (L is None or L.contains(x, y)):
                        brute += 1
            assert parity_grid(F2, S, L.row_form() if L is not None else None).points == brute


def _admitted(grid) -> set[tuple[int, int]]:
    """Points the grid counted: lambda is +-1 there and 0 everywhere else."""
    ys, xs = np.nonzero(grid.lam)
    return {(int(x) + grid.spec.xmin, int(y) + grid.spec.ymin) for x, y in zip(xs, ys)}


def test_grid_coprime_points():
    S = ConvexRegion.box(-6, 6, -6, 6)
    grid = parity_grid(F2, S, coprime_only=True, keep_arrays=True)
    got = _admitted(grid)
    want = {
        (x, y)
        for x in range(-6, 7)
        for y in range(-6, 7)
        if math.gcd(x, y) == 1
    }
    assert got == want and grid.points == len(want)
    assert (0, 0) not in got
    assert (0, 1) in got and (-1, 0) in got
    L = LatticeCoset(basis=((2, 0), (0, 1)), offset=(1, 0)).row_form()  # odd x
    grid_l = parity_grid(F2, S, L, coprime_only=True, keep_arrays=True)
    assert _admitted(grid_l) == {p for p in want if p[0] % 2 == 1}


def test_parse_region_round_trip():
    S = parse_region("box:-1,1,-1,1")
    assert S.kind == "box" and S.data == (-1, 1, -1, 1)
    D = parse_region("disc:0,0,5/2")
    assert D.kind == "disc" and D.data[2] == Fraction(5, 2)
    P = parse_region("poly:0,0;4,0;0,4")
    assert P.kind == "poly"
    with pytest.raises(ValueError):
        parse_region("box:1,2,3")
    with pytest.raises(ValueError, match="disc wants three numbers"):
        parse_region("disc:0,0")
    with pytest.raises(ValueError, match="bad polygon vertex"):
        parse_region("poly:0,0;4;0,4")
    with pytest.raises(ValueError):
        parse_region("blob:1,2,3,4")


def test_parse_coset():
    L = parse_coset("coset:5,0,1,1;0,0")
    assert L.index == 5
    assert L.contains(3, 3) and not L.contains(3, 1)  # x = y mod 5
    L2 = parse_coset("coset:2,0,1,2;1,0")
    assert L2.index == 4
    assert parse_coset("coset:5,0,1,1") == L  # no offset: the lattice itself
    with pytest.raises(ValueError):
        parse_coset("coset:1,2,3;0,0")
    with pytest.raises(ValueError, match="coset basis is singular"):
        parse_coset("coset:2,4,1,2;0,0")
    with pytest.raises(ValueError):
        parse_coset("box:-1,1,-1,1")
