"""GL2(Z)-equivalence of the grid sieve: for g in GL2(Z), Q -> g*Q is a
bijection of Z^2 that keeps gcd(x, y), so (points, sum mu, sum lambda,
sum (-1)^omega) over (f, S, L) equal those over (f o g, g^-1 S, g^-1 L).

Every value moves to another cell of another layout, so the check reaches
grids too big for trial division: several bands, walked primes, both
the half path of a centrally symmetric grid and the whole path.
"""

import pytest

from chowla import factor_sieve
from chowla.cubic_form import BinaryCubicForm
from chowla.factor_sieve import parity_grid
from chowla.region_lattice import ConvexRegion, RowForm

from helpers import gl2_coset, gl2_form, gl2_inverse, gl2_polygon

F = BinaryCubicForm(6, -5, 3, 7)  # non-monic

# the box [0, 90] x [-45, 45] as a polygon: not centrally symmetric, so
# the whole grid is sieved; the hexagon is, so only its rows y >= 0 are
SQUARE = ConvexRegion.polygon([(0, -45), (90, -45), (90, 45), (0, 45)])
HEXAGON = ConvexRegion.polygon([(-45, -30), (15, -45), (60, -15), (45, 30), (-15, 45), (-60, 15)])

COSET = RowForm.span([(3, 0), (1, 2)], (1, 0))  # a = 3, c = 2; -L != L
LATTICE = RowForm.span([(3, 0), (1, 2)])  # the same lattice through 0: -L = L

# (region, coset, coprime only, half path)
CASES = (
    (SQUARE, None, False, False),
    (SQUARE, None, True, False),
    (SQUARE, COSET, False, False),
    (SQUARE, COSET, True, False),
    (HEXAGON, None, False, True),
    (HEXAGON, LATTICE, True, True),
)

GAMMAS = {
    "det 1": ((2, 1), (1, 1)),
    "shear": ((1, 3), (0, 1)),
    "swap, det -1": ((0, 1), (1, 0)),
    "det -1": ((1, 0), (-2, -1)),
    # f o g has lead f(2, -1) = 67, past the stored width (16 columns) of
    # the image grids on cosets
    "lead 67": ((2, 1), (-1, 0)),
}


STRIKE_TABLE = factor_sieve._strike_table


def _sums(grid) -> tuple[int, int, int, int]:
    return grid.points, grid.mu_sum, grid.lam_sum, grid.omg_sum


def _banded_sums(monkeypatch, f, S, L, coprime, threads, half):
    """parity_grid's sums on about five bands, with whether it sieved the
    half grid and the strike table it sieved with."""
    spec = factor_sieve._make_spec(f, S, L, coprime)
    seen = []

    def record(sieved):
        seen.append((sieved, STRIKE_TABLE(sieved)))
        return seen[-1][1]

    monkeypatch.setattr(factor_sieve, "_strike_table", record)
    rows = -(-spec.stored_rows // (10 if half else 5))
    monkeypatch.setattr(factor_sieve, "_BAND_CELLS", rows * spec.stored_width)
    sums = _sums(parity_grid(f, S, L, coprime_only=coprime, threads=threads))
    ((sieved, table),) = seen
    return sums, sieved != spec, len(factor_sieve._bands(sieved)), table


@pytest.mark.parametrize("name", GAMMAS)
def test_sums_are_gl2_invariant(name, monkeypatch):
    g = GAMMAS[name]
    gi = gl2_inverse(g)
    fg = gl2_form(F, g)
    for case, (S, L, coprime, half) in enumerate(CASES):
        where = f"{name} case {case}"
        threads = 1 + 2 * (case % 2)
        got = []
        for f, region, coset in ((F, S, L), (fg, gl2_polygon(gi, S), None if L is None else gl2_coset(gi, L))):
            sums, halved, bands, table = _banded_sums(monkeypatch, f, region, coset, coprime, threads, half)
            assert halved == half, where
            assert bands >= 4, where
            assert table.primes.size, where
            got.append(sums)
        assert got[0] == got[1], where
        assert got[0][0] > 300, where
    if name == "lead 67":
        spec = factor_sieve._make_spec(fg, gl2_polygon(gi, SQUARE), gl2_coset(gi, COSET), False)
        assert fg.a == 67 and spec.stored_width < 67
        small = {p: lead for p, _, lead, _ in factor_sieve._strike_table(spec).small}
        assert small[67] is True


def test_gl2_helpers():
    """f o g agrees with f at g*Q, and g^-1 carries polygons and cosets
    point by point."""
    for g in GAMMAS.values():
        gi = gl2_inverse(g)
        fg = gl2_form(F, g)
        for x in range(-4, 5):
            for y in range(-4, 5):
                gx, gy = g[0][0] * x + g[0][1] * y, g[1][0] * x + g[1][1] * y
                assert fg(x, y) == F(gx, gy)
                assert gl2_coset(gi, COSET).contains(x, y) == COSET.contains(gx, gy)
                assert gl2_polygon(gi, SQUARE).contains(x, y) == SQUARE.contains(gx, gy)
