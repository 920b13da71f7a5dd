"""Multiplicative parity data for form values over integer grids.

Two production paths share one striking engine, which strikes every prime
up to sqrt(max value), so a leftover cofactor is 1 or a single prime:

* parity path: per-point mu, Liouville lambda, and omega-parity of |f(x, y)|
  over a whole grid, fully vectorized, with no per-point primality test;
* table path: complete factorizations per point, the struck primes with
  their exponents plus the leftover prime, checked against the value.

A grid is stored in the coordinates of its lattice coset, in Hermite form
{y = y0 (mod c), x = x0 + b*(y - y0)/c (mod a)}: only the rows
y = y0 (mod c) are kept, and row y keeps the columns x = x_y + a*i, x_y its
first coset column in the box.  So a coset of index a*c is evaluated,
struck and reduced on 1/(a*c) of the box; no coset is a = c = 1, the box
itself.  A column past the box gets no value.

Striking works line by line: for p not dividing y, the zero locus of f mod p
is a union of lines x = r*y with f(r, 1) = 0 mod p, which in a stored row is
i = a^-1*(r*y - x_y) (mod p), or the whole row or none when p | a; rows
p | y, where f = lead*x^3 (mod p), are struck whole when p | lead and at
p | x otherwise.  Primes below the stored width, and those dividing f's
lead, a or c, strike row by row.  Any other prime meets each row at most
once: its rows p | y strike one column each, and its lines are walked: the
coset points of a line x = r*y (mod p) form the lattice x = X + B*t
(mod a*p) over the stored rows t, and each goes from hit to hit through
the box's columns along a reduced basis, all (p, r) pairs of a band in
step.  These three families are disjoint and come out of one stream that
leaves out the origin, where f(0, 0) = 0, into one divide-out that checks
each set before it divides: a wrong root, lead or walk raises
SieveCorruptionError.  The stream builds the cells p | gcd(x, y) of every
prime up to the half-width, so it clears a coprime-only mask with no pass
of its own.

A cubic form is odd, f(-x, -y) = -f(x, y), so a parity-path grid closed
under negation, every region and the coset alike (an exact test on their
data), holds each value twice off row 0.  Only its rows y >= 0 are then
sieved: the reduction weighs row 0 once and every other row twice, and
kept int8 grids get their rows y < 0 by point reflection.  The table path
always sieves the whole grid.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .cubic_form import BinaryCubicForm, ExactRangeError, content, is_irreducible
from .polymod import _lane_pow, roots_mod_primes
from .primes import factor_int, is_prime, primes_up_to
from .region_lattice import WHOLE_PLANE, ConvexRegion, RowForm

_INT64_GUARD = 1 << 62
_EXACT_FACTOR = 1 << 31  # int64 holds any product of two smaller numbers
_TABLE_CELL_CAP = 4_200_000
_GRID_CELL_CAP = 230_000_000
_BAND_CELLS = 8_000_000


class SieveCorruptionError(RuntimeError):
    """Internal consistency of a sieve run failed; results are not trustworthy."""


# ---------------------------------------------------------------- single values


def parities(n: int) -> tuple[int, int, int]:
    """(mu, lambda, omega-sign) of |n| from one factorization; n = 0 is rejected."""
    if n == 0:
        raise ValueError("parity functions are undefined at 0")
    fs = factor_int(abs(n))
    distinct = len(fs)
    with_mult = sum(e for _, e in fs)
    return (0 if with_mult > distinct else (-1) ** distinct, (-1) ** with_mult, (-1) ** distinct)


def parity_range(limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu, lambda, omega-sign) int8 arrays for 1..limit; index 0 is 0.

    Sieve path for consecutive integers: divide out every prime up to
    sqrt(limit) with exact valuations, then the surviving cofactor is either
    1 or one extra prime to first power.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    cof = np.arange(limit + 1, dtype=np.int64)
    counts = _ParityCounts(limit + 1)
    for p in primes_up_to(math.isqrt(limit)):
        p = int(p)
        idx = np.arange(p, limit + 1, p, dtype=np.int64)
        counts.add(idx, p, _divide_out(cof, idx, p))
    mu_arr, lam_arr, omg_arr = counts.channels(cof)
    mu_arr[0] = lam_arr[0] = omg_arr[0] = 0
    return mu_arr, lam_arr, omg_arr


# ---------------------------------------------------------------- striking


def _divide_out(cof: np.ndarray, idx: np.ndarray, p) -> np.ndarray:
    """Divide p out of cof[idx] completely, once p is checked to divide
    every cof[idx]; else SieveCorruptionError, with cof left as it was.

    p is one prime, or one prime per index.  An index may repeat for
    distinct primes, never for one: ``ufunc.at`` divides such a cell once
    per entry, and every quotient stays at least 1, so the loop ends.
    Returns the exponent of p at each index (uint8: cofactors are < 2^62,
    so no exponent passes 61).
    """
    if np.count_nonzero(cof[idx] % p):
        raise SieveCorruptionError("a struck prime does not divide its cell")
    np.floor_divide.at(cof, idx, p)
    exps = np.ones(idx.size, dtype=np.uint8)
    deeper = np.nonzero(cof[idx] % p == 0)[0]
    while deeper.size:
        exps[deeper] += 1
        q = p if np.ndim(p) == 0 else p[deeper]
        # idx[deeper] is gathered twice rather than held: holding it raised
        # the peak memory of the p = 2 strike
        np.floor_divide.at(cof, idx[deeper], q)
        deeper = deeper[cof[idx[deeper]] % q == 0]
    return exps


class _ParityCounts:
    """omega and Omega per cofactor slot, fed strike by strike."""

    def __init__(self, size: int):
        self.small_omega = np.zeros(size, dtype=np.uint8)
        self.big_omega = np.zeros(size, dtype=np.uint8)

    def add(self, idx: np.ndarray, p, exps: np.ndarray) -> None:
        # ufunc.at counts a repeated cell once per entry; uint8 operands
        # keep it on numpy's fast path
        np.add.at(self.small_omega, idx, np.uint8(1))
        np.add.at(self.big_omega, idx, exps)

    def channels(self, cof: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mu, lambda, omega-sign) int8 arrays, counting a leftover cofactor
        > 1 as one more prime to the first power.  Every exponent is 1,
        and mu nonzero, exactly when Omega = omega."""
        rest = cof > 1
        odd_omega = ((self.small_omega + rest) & 1).astype(np.int8)
        mu_arr = np.where(self.big_omega == self.small_omega, 1 - 2 * odd_omega, 0).astype(np.int8)
        lam_arr = (1 - 2 * ((self.big_omega + rest) & 1)).astype(np.int8)
        omg_arr = (1 - 2 * odd_omega).astype(np.int8)
        return mu_arr, lam_arr, omg_arr


# ---------------------------------------------------------------- factorization


@dataclass(frozen=True)
class Factorization:
    value: int
    sign: int
    factors: tuple[tuple[int, int], ...]
    complete: bool = True

    def rebuild(self) -> int:
        acc = 1
        for p, e in self.factors:
            acc *= p**e
        return acc * self.sign


def cofactor_resolve(m: int, Z: int) -> list[tuple[int, int]]:
    """Factor a cofactor whose prime factors all exceed Z, with m < (Z + 1)^2.

    Such a cofactor is one prime past Z.  Anything else, a square or a
    semiprime included, means the caller's sieve stage was wrong, which is
    an error.
    """
    if m <= 1:
        raise ValueError("cofactor must exceed 1")
    if m <= Z or not is_prime(m):
        raise SieveCorruptionError(f"cofactor {m} is not one prime past {Z}")
    return [(m, 1)]


# ---------------------------------------------------------------- grid plumbing


@dataclass(frozen=True)
class GridSpec:
    """Bounding box and masks source (form, region, coset, coprime flag) for one sieve run.

    The grid is stored in coset coordinates: stored row j is the row
    y = y_first + c*j of the coset RowForm(c, y0, a, b, x0), and its column
    i is x = x_j + a*i, for x_j the row's first coset column at or past
    xmin.  Stored rows are stored_width = ceil(width / a) columns wide; a
    column past xmax holds no value.  Without a coset, a = c = 1 and the
    stored grid is the box.
    """

    form: BinaryCubicForm
    region: ConvexRegion
    coset: Optional[RowForm]
    coprime_only: bool
    xmin: int
    xmax: int
    ymin: int
    ymax: int

    @property
    def width(self) -> int:
        return self.xmax - self.xmin + 1

    @property
    def height(self) -> int:
        return self.ymax - self.ymin + 1

    @property
    def cells(self) -> int:
        return self.width * self.height

    @property
    def half_width(self) -> int:
        """Smallest m with the box inside [-m, m]^2."""
        return max(abs(self.xmin), abs(self.xmax), abs(self.ymin), abs(self.ymax))

    @property
    def lattice(self) -> RowForm:
        return self.coset or WHOLE_PLANE

    @property
    def y_first(self) -> int:
        return self.ymin + (self.lattice.y0 - self.ymin) % self.lattice.c

    @property
    def stored_rows(self) -> int:
        return max(0, (self.ymax - self.y_first) // self.lattice.c + 1)

    @property
    def stored_width(self) -> int:
        return -(-self.width // self.lattice.a)

    @property
    def period(self) -> int:
        """a / gcd(a, b): stored rows j and j + period start at one column."""
        return self.lattice.a // math.gcd(self.lattice.a, self.lattice.b)


def _make_spec(f, S, L, coprime_only) -> Optional[GridSpec]:
    if content(f) != 1:
        raise ValueError("grid sieve wants a content-1 form; divide the content out")
    if not is_irreducible(f):
        raise ValueError("grid sieve wants an irreducible form")
    ylo, yhi = S.y_range()
    xlo, xhi = S.x_range()
    if ylo > yhi or xlo > xhi:
        return None
    spec = GridSpec(f, S, L, coprime_only, xlo, xhi, ylo, yhi)
    m = spec.half_width
    if 4 * f.height() * (m + 1) ** 3 >= _INT64_GUARD:
        raise ExactRangeError(f"grid values may exceed the exact 64-bit sieve range (half-width {m})")
    if spec.cells > _GRID_CELL_CAP:
        raise ExactRangeError(f"grid of {spec.cells} cells is past the supported size")
    return spec


def _value_bound(spec: GridSpec) -> int:
    return 4 * spec.form.height() * max(spec.half_width, 1) ** 3


def _root_table(f: BinaryCubicForm, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One (p, r) row per root r of f(t, 1) mod p: int64 arrays in prime order."""
    return roots_mod_primes(f.dehomogenized(), primes)


@dataclass(frozen=True)
class _Band:
    """A run of stored rows: row k lies at y[k], and its column i at
    x = xs[k] + a*i for i < ns[k]; the columns from ns[k] on lie past xmax.
    Flat index k*width + i; base[k] = k*width.  origin is the flat index
    of (0, 0), or -1 when the band does not hold it."""

    y: np.ndarray
    xs: np.ndarray
    ns: np.ndarray
    base: np.ndarray
    width: int
    origin: int

    @property
    def rows(self) -> int:
        return self.y.size

    def select(self, keep: np.ndarray) -> "_Band":
        """The rows keep picks (a mask or indices), with their flat bases."""
        return _Band(self.y[keep], self.xs[keep], self.ns[keep], self.base[keep], self.width, self.origin)

    def off_origin(self, idx: np.ndarray) -> np.ndarray:
        """The flat indices idx without the origin's."""
        return idx if self.origin < 0 else idx[idx != self.origin]


def _band(spec: GridSpec, j0: int, j1: int) -> _Band:
    """The stored rows j0 .. j1 of the grid."""
    L = spec.lattice
    y = spec.y_first + L.c * np.arange(j0, j1 + 1, dtype=np.int64)
    # x_y repeats every period rows; Python ints keep x0 + b*t exact
    first = [spec.xmin + (L.x0 + L.b * ((v - L.y0) // L.c) - spec.xmin) % L.a
             for v in y[: spec.period].tolist()]
    xs = np.resize(np.array(first, dtype=np.int64), y.size)
    ns = np.maximum((spec.xmax - xs) // L.a + 1, 0)
    width = spec.stored_width
    # row y = 0 holds the origin when x = 0 is one of its coset columns
    k = np.nonzero((y == 0) & (xs <= 0) & (xs % L.a == 0))[0].tolist() if spec.xmax >= 0 else []
    origin = k[0] * width - int(xs[k[0]]) // L.a if k else -1
    return _Band(y, xs, ns, np.arange(y.size, dtype=np.int64) * width, width, origin)


@dataclass(frozen=True)
class _Lattices:
    """The lattices {x = r*t (mod m)} of pairs (m, r), m >= width.

    Each is given by a basis u = (alpha, beta), v = (gamma, delta) with
    -width < alpha <= 0 <= gamma, gamma - alpha >= width and beta > 0, as
    in Franke and Kleinjung ("Continued fractions and lattice sieving",
    2005).  In a strip of width columns the next lattice point after column
    i is then reached by u + v when width - gamma <= i < -alpha, else by u
    alone (i >= -alpha) or by v alone (i < width - gamma).  A vertical
    basis, alpha = 0 with gamma = width, always steps by u.
    """

    m: np.ndarray
    r: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray


def _reduced_lattices(m: np.ndarray, r: np.ndarray, width: int) -> _Lattices:
    """Reduce the basis (-m, 0), (r, 1) of every pair by continued fractions.

    Every column of a lattice lies in one class mod g = gcd(r, m); when
    g >= width, r = 0 or a strip one column wide among them, the strip
    holds one of its columns at most, met every m/g rows: the basis stays
    vertical.  Otherwise, while both |alpha| and gamma reach the width, each
    is taken fully modulo the other in turn.  Once one is below the width,
    the other is cut just below it, which leaves gamma - alpha >= width.
    O(log m) rounds, every round over all pairs still running.
    """
    g = np.gcd(r, m)
    alpha = np.zeros(m.size, dtype=np.int64)
    beta = m // g
    gamma = np.full(m.size, width, dtype=np.int64)
    delta = np.ones(m.size, dtype=np.int64)
    ids = np.nonzero(g < width)[0]
    a0, b0 = -m[ids], np.zeros(ids.size, dtype=np.int64)
    a1, b1 = r[ids], np.ones(ids.size, dtype=np.int64)

    def settle(done, a0, b0, a1, b1):
        at = ids[done]
        alpha[at], beta[at], gamma[at], delta[at] = a0, b0, a1, b1

    while ids.size:
        done = a1 < width
        k = (-width - a0[done]) // a1[done] + 1
        settle(done, a0[done] + k * a1[done], b0[done] + k * b1[done], a1[done], b1[done])
        go = ~done
        ids, a0, b0, a1, b1 = ids[go], a0[go], b0[go], a1[go], b1[go]
        k = -a0 // a1
        a0 += k * a1
        b0 += k * b1
        done = a0 > -width
        k = (a1[done] - width) // -a0[done] + 1
        settle(done, a0[done], b0[done], a1[done] + k * a0[done], b1[done] + k * b0[done])
        go = ~done
        ids, a0, b0, a1, b1 = ids[go], a0[go], b0[go], a1[go], b1[go]
        k = a1 // -a0
        a1 += k * a0
        b1 += k * b0
    return _Lattices(m, r, alpha, beta, gamma, delta)


def _first_hits(a: np.ndarray, m: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Least t >= 0 with lo <= a*t mod m <= hi, for 0 < lo <= hi < m, gcd(a, m) = 1.

    Either t = ceil(lo / a) already works, or [lo, hi] holds no multiple of
    a, and t = ceil((lo + m*s) / a) for the least s >= 0 with
    a - hi % a <= (m % a)*s mod a <= a - lo % a: Euclid's recursion, run
    down for all entries at once and then unwound.
    """
    if a.size and int(m.max()) >= _EXACT_FACTOR:
        # m*t below reaches m^2: Python ints keep it exact
        a, m, lo, hi = (v.astype(object) for v in (a, m, lo, hi))
    t = np.empty(a.size, dtype=m.dtype)
    ids = np.arange(a.size)
    levels = []
    while ids.size:
        x = -(-lo // a)
        done = a * x <= hi
        t[ids[done]] = x[done]
        go = ~done
        ids, a, m, lo, hi = ids[go], a[go], m[go], lo[go], hi[go]
        levels.append((ids, a, m, lo))
        a, m, lo, hi = m % a, a, a - hi % a, a - lo % a
    for ids, a, m, lo in reversed(levels):
        t[ids] = -(-(lo + m * t[ids]) // a)
    return t.astype(np.int64)


def _lattice_hits(lat: _Lattices, p: np.ndarray, start: np.ndarray, width: int, rows: int,
                  y0: int, dy: int, stride: int, a: int):
    """Walk every lattice {x = start + r*t (mod m)}, lat reduced for width,
    through the columns x = 0 .. width - 1 and the rows t = 0 .. rows - 1,
    all lanes in step; row t lies at y = y0 + dy*t, and p is each lane's
    prime.

    Yields, step by step, the flat indices t*stride + x // a of the hits in
    rows p does not divide y, and the prime of each.  A lane meets a row at
    most once, so a step repeats a cell only across distinct primes.  A
    basis with gamma - alpha < width leaves some column on neither step, so
    it raises SieveCorruptionError instead of walking forever.
    """
    m, r = lat.m, lat.r
    t = np.zeros(m.size, dtype=np.int64)
    far = np.nonzero(start >= width)[0]
    # every point of a lane is start (mod g); count the columns in units of g
    g = np.gcd(r[far], m[far])
    rest = start[far] % g
    cols = (width - 1 - rest) // g + 1
    t[far[cols <= 0]] = rows  # no column of the strip is start (mod g)
    far, g, rest, cols = far[cols > 0], g[cols > 0], rest[cols > 0], cols[cols > 0]
    mg, c = m[far] // g, (start[far] - rest) // g
    t[far] = _first_hits(r[far] // g, mg, mg - c, mg - c + cols - 1)
    on = np.nonzero(t < rows)[0]
    p, t = p[on], t[on]
    exact = object if m.size and int(m.max()) >= _EXACT_FACTOR else np.int64
    x = ((start[on] + r[on].astype(exact) * t) % m[on]).astype(np.int64)
    alpha, beta, gamma, delta = lat.alpha[on], lat.beta[on], lat.gamma[on], lat.delta[on]
    by_u, by_v = width - gamma, -alpha
    if (by_v < by_u).any():
        raise SieveCorruptionError(f"a lattice basis does not span the strip of width {width}")
    while p.size:
        off = (y0 + dy * t) % p != 0  # rows p | y belong to the other two families
        yield (t * stride + (x // a if a > 1 else x))[off], p[off]
        u = x >= by_u
        v = x < by_v
        x += alpha * u + gamma * v
        t += beta * u + delta * v
        live = t < rows
        if not live.all():
            p, x, t = p[live], x[live], t[live]
            alpha, beta, gamma, delta = alpha[live], beta[live], gamma[live], delta[live]
            by_u, by_v = by_u[live], by_v[live]


def _line_hits(offs: np.ndarray, row_base: np.ndarray, widths: np.ndarray, p: int) -> np.ndarray:
    """Flat indices of the columns i = offs[k] (mod p), i < widths[k], of
    each selected row k; p = 1 takes the whole row."""
    counts = (widths - offs + p - 1) // p
    kmax = int(counts.max()) if counts.size else 0
    lattice = offs[:, None] + p * np.arange(kmax, dtype=np.int64)[None, :]
    keep = lattice < widths[:, None]
    lattice += row_base[:, None]
    return lattice[keep]


def _whole_rows(rows: _Band) -> np.ndarray:
    """Flat indices of every cell of the rows."""
    return _line_hits(np.zeros(rows.rows, dtype=np.int64), rows.base, rows.ns, 1)


def _congruent_cells(rows: _Band, t, p: int, ainv: Optional[int]) -> np.ndarray:
    """Flat indices of the cells x = t (mod p) of the rows, t one per row or
    one for all.  ainv is a^-1 mod p, which puts them every p columns from
    i = ainv*(t - xs) (mod p), t - xs reduced first so that the product
    stays below p^2 < 2^62; when p | a (ainv None) a row holds all of its
    cells or none."""
    if ainv is None:
        return _whole_rows(rows.select((t - rows.xs) % p == 0))
    return _line_hits((t - rows.xs) % p * ainv % p, rows.base, rows.ns, p)


def _cleared(mask: Optional[np.ndarray], idx: np.ndarray) -> np.ndarray:
    """idx, with mask (if any) cleared at it."""
    if mask is not None:
        mask[idx] = False
    return idx


def _divisor_rows(table: "_StrikeTable", band: _Band, mask: Optional[np.ndarray]):
    """Flat band indices, and the prime of each, of the cells in rows p | y
    for the walked primes p, which divide neither f's lead nor a: the one
    column p | x if the row holds it.  These are the cells p | gcd(x, y),
    and mask, if given, is cleared at them."""
    p = table.primes
    # band row k lies at y = y[0] + c*k: p | y every p rows from k = -y[0]/c (mod p)
    first = (-band.y[0]) % p * table.cinv % p
    count = np.maximum((band.rows - 1 - first) // p + 1, 0)
    which = np.repeat(np.arange(p.size), count)
    q = p[which]
    k = first[which] + q * (np.arange(which.size) - np.repeat(np.cumsum(count) - count, count))
    rows = band.select(k)
    col = (-rows.xs) % q * table.ainv[which] % q
    idx = rows.base + col
    keep = (col < rows.ns) & (idx != band.origin)  # f(0, 0) = 0 lies in every row p | y
    return _cleared(mask, idx[keep]), q[keep]


def _walk(spec: GridSpec, table: "_StrikeTable", band: _Band):
    """The walked primes' hits in the band.

    Stored row t of the band lies at y = y[0] + c*t, and its coset columns
    are x = xs[t] (mod a); with x = r*y (mod p) that is x = X + B*t
    (mod a*p), the lattice of (a*p, B) the table reduced for the box width,
    from X = xs[0] + a*(a^-1*(r*y[0] - xs[0]) mod p) in row 0.  A hit at
    box column x lies in stored column (x - xmin) // a."""
    p = table.lattices.m // spec.lattice.a  # each pair's prime
    y0, xs = int(band.y[0]), int(band.xs[0])
    start = xs - spec.xmin + spec.lattice.a * ((table.roots * (y0 % p) - xs) % p * table.root_ainv % p)
    yield from _lattice_hits(
        table.lattices, p, start, spec.width, band.rows, y0, spec.lattice.c, band.width, spec.lattice.a
    )


@dataclass(frozen=True)
class _StrikeTable:
    """Every prime up to depth, the isqrt of the grid's value bound; a
    leftover cofactor is then 1 or one prime.

    small: (p, roots, p | f's lead, a^-1 mod p or None when p | a) per
    prime struck row by row: those below the stored width, and those
    dividing f's lead, the coset's a or its c;
    primes, ainv, cinv: the other primes, walked, with a^-1 and c^-1 mod
    each;
    roots, root_ainv, lattices: their (p, r) pairs, r a root, with a^-1 mod
    p, and the lattices coset & {x = r*y (mod p)} they take from stored row
    to stored row.
    """

    depth: int
    small: list
    primes: np.ndarray
    ainv: np.ndarray
    cinv: np.ndarray
    roots: np.ndarray
    root_ainv: np.ndarray
    lattices: _Lattices


def _inverses(x: int, primes: np.ndarray) -> np.ndarray:
    """x^-1 mod each prime, none of which divides x."""
    if x == 1 or not primes.size:
        return np.ones_like(primes)
    return _lane_pow(np.full_like(primes, x), primes - 2, primes)


def _strike_table(spec: GridSpec) -> _StrikeTable:
    depth = math.isqrt(_value_bound(spec))
    primes = primes_up_to(depth)
    pair_p, pair_r = _root_table(spec.form, primes)
    L, width, lead = spec.lattice, spec.stored_width, spec.form.a
    by_row = (primes < width) | (lead % primes == 0) | (L.a % primes == 0) | (L.c % primes == 0)
    small = []
    for p in primes[by_row].tolist():
        lo, hi = np.searchsorted(pair_p, [p, p + 1])
        small.append((p, pair_r[lo:hi].tolist(), lead % p == 0, pow(L.a, -1, p) if L.a % p else None))
    large = primes[~by_row]
    if large.size and L.a * int(large[-1]) >= _INT64_GUARD:
        raise ExactRangeError(f"coset step {L.a} is past the exact 64-bit lattice walk")
    ainv = _inverses(L.a, large)
    walked = np.isin(pair_p, large)
    p, r = pair_p[walked], pair_r[walked]
    r_ainv = ainv[np.searchsorted(large, p)]
    # the step in x from stored row to stored row: b (mod a), r*c (mod p)
    step = L.b + L.a * ((r * (L.c % p) - L.b) % p * r_ainv % p)
    lattices = _reduced_lattices(L.a * p, step, spec.width)
    return _StrikeTable(depth, small, large, ainv, _inverses(L.c, large), r, r_ainv, lattices)


def _strike_sets(spec: GridSpec, table: _StrikeTable, band: _Band, mask: Optional[np.ndarray]):
    """Every (idx, p) the band is struck with, p one prime or one per
    index: each row-struck prime's root lines and rows p | y, then the
    walked primes' rows p | y and their lines.  The sets are disjoint and
    leave out the origin, f(0, 0) = 0.  mask, if given, is cleared at the
    cells p | gcd(x, y): the cells p | x of the rows p | y.  No name here
    holds a set while the caller divides it, so no two sets are alive at once."""
    for p, roots, p_div_lead, ainv in table.small:
        off = band.y % p != 0  # rows with p not dividing y
        if roots:
            rows = band.select(off)
            for r in roots:
                yield _congruent_cells(rows, r * rows.y, p, ainv), p
        rows = band.select(~off)
        if rows.rows and p_div_lead:
            if mask is not None:  # f = 0 (mod p) on the whole row, p | gcd(x, y) at p | x
                mask[_congruent_cells(rows, 0, p, ainv)] = False
            yield band.off_origin(_whole_rows(rows)), p
        elif rows.rows:
            yield _cleared(mask, band.off_origin(_congruent_cells(rows, 0, p, ainv))), p
    yield _divisor_rows(table, band, mask)
    yield from _walk(spec, table, band)


def _row_extents(spec: GridSpec, regions, band: _Band) -> tuple[np.ndarray, np.ndarray]:
    """Stored columns lo..hi that each region holds in each band row, as
    two (regions, rows) arrays; a row a region misses has hi = lo - 1.

    Every region must lie in the grid's bounding box.
    """
    xlo = np.tile(band.xs, (len(regions), 1))
    xhi = xlo - 1
    for k, S in enumerate(regions):
        ylo, yhi = S.y_range()
        for i in np.nonzero((band.y >= ylo) & (band.y <= yhi))[0].tolist():
            ext = S.row_extent(int(band.y[i]))
            if ext is not None:
                xlo[k, i], xhi[k, i] = ext
    a = spec.lattice.a
    return -((band.xs - xlo) // a), (xhi - band.xs) // a


def _inside(lo: np.ndarray, hi: np.ndarray, width: int) -> np.ndarray:
    """The (rows, width) mask of the columns lo..hi of each row."""
    cols = np.arange(width, dtype=np.int64)
    return (cols >= lo[:, None]) & (cols <= hi[:, None])


def _band_values(spec: GridSpec, band: _Band) -> np.ndarray:
    """f at the band's cells, class by class of its rows mod spec.period,
    which share their columns; the cells past xmax are left 0 and never
    evaluated, since the value guard covers the box only.  Each class is
    evaluated in place by Horner, ((a*x + b*y)*x + c*y^2)*x + d*y^3, every
    partial value inside the guard's 4*H*m^3."""
    a, b, c, d = spec.form.coeffs
    V = np.zeros((band.rows, band.width), dtype=np.int64)
    for k0 in range(min(spec.period, band.rows)):
        rows, n = slice(k0, None, spec.period), int(band.ns[k0])
        X = band.xs[k0] + spec.lattice.a * np.arange(n, dtype=np.int64)
        Y = band.y[rows, None]
        v = V[rows, :n]
        np.multiply(Y, b, out=v)
        v += a * X
        v *= X
        v += c * Y**2
        v *= X
        v += d * Y**3
    return V


def _sieve_band(spec: GridSpec, table: _StrikeTable, band: _Band, cof: np.ndarray, visit) -> np.ndarray:
    """Divide every table prime out of cof, the caller's flat |f| of the
    band, calling visit(idx, p, exps) for each set of _strike_sets once
    _divide_out has checked it.  Zero values (the origin, the one zero of
    an irreducible form, and the cells past xmax) get cofactor 1, so a
    strike there raises.  Returns the mask of the cells to count: the
    nonzero values, coprime ones only if the spec says so, which the strike
    clears as it goes; the region is left to the reductions."""
    mask = cof != 0
    np.maximum(cof, 1, out=cof)
    for idx, p in _strike_sets(spec, table, band, mask if spec.coprime_only else None):
        visit(idx, p, _divide_out(cof, idx, p))
    return mask


def _sieve_band_parity(spec: GridSpec, table: _StrikeTable, band: _Band, regions, keep: bool, half: bool):
    """Sieve one band and reduce it per region.

    Returns a (regions, 4) int64 array of (points, mu_sum, lam_sum,
    omg_sum), and the last region's masked mu/lam/omg band grids if keep,
    else None.  A prefix sum along each stored row of each channel makes
    every region cost two reads per band row, not one per cell.  On the
    half of a symmetric grid (half) a row y > 0 also stands for its
    reflection, row -y, and weighs twice; row 0 weighs once.
    """
    counts = _ParityCounts(band.rows * band.width)
    cof = _band_values(spec, band).ravel()
    mask = _sieve_band(spec, table, band, np.abs(cof, out=cof), counts.add)
    shape = (band.rows, band.width)
    mask, *channels = (ch.reshape(shape) for ch in (mask, *counts.channels(cof)))
    del cof, counts  # the reduction's prefix sums take their place
    lo, hi = _row_extents(spec, regions, band)
    rows = np.arange(band.rows)
    prefix = np.zeros((band.rows, band.width + 1), dtype=np.int32)
    sums = np.empty((len(regions), 4), dtype=np.int64)
    weight = 2 - (band.y == 0) if half else 1
    for k, ch in enumerate((mask, *channels)):
        np.cumsum(ch * mask, axis=1, dtype=np.int32, out=prefix[:, 1:])
        sums[:, k] = ((prefix[rows, hi + 1] - prefix[rows, lo]) * weight).sum(axis=1)
    if not keep:
        return sums, None
    mask &= _inside(lo[-1], hi[-1], band.width)
    return sums, [np.where(mask, ch, np.int8(0)) for ch in channels]


def _scatter(spec: GridSpec, band: _Band, grid: np.ndarray, box: np.ndarray) -> None:
    """Write a band's (rows, stored width) grid into the (height, width)
    box array, row by row: stored row k is box row y[k] from column xs[k]
    on, every a-th column."""
    a = spec.lattice.a
    for k, (y, x, n) in enumerate(zip(band.y.tolist(), band.xs.tolist(), band.ns.tolist())):
        box[y - spec.ymin, x - spec.xmin :: a][:n] = grid[k, :n]


def _bands(spec: GridSpec) -> list[_Band]:
    """Bands of stored rows of near-equal height, each at most _BAND_CELLS
    stored cells or one row.

    The count comes from the cell budget alone, not from the thread count:
    each band repeats the per-prime loop, so extra bands cost more than
    threads win back.
    """
    rows = spec.stored_rows
    rows_per = max(1, min(rows, _BAND_CELLS // spec.stored_width))
    n_bands = -(-rows // rows_per)
    rows_per = -(-rows // n_bands) if n_bands else 1
    return [_band(spec, j, min(j + rows_per, rows) - 1) for j in range(0, rows, rows_per)]


@dataclass
class ParityGrid:
    """Per-point parity channels over the bounding box; 0 marks excluded points."""

    spec: GridSpec
    points: int
    mu_sum: int
    lam_sum: int
    omg_sum: int
    mu: Optional[np.ndarray] = None
    lam: Optional[np.ndarray] = None
    omg: Optional[np.ndarray] = None

    def sum_for(self, alpha: str) -> int:
        sums = {"mu": self.mu_sum, "lambda": self.lam_sum, "omega": self.omg_sum}
        if alpha not in sums:
            raise ValueError(f"unknown parity channel {alpha!r}")
        return sums[alpha]


def parity_grid(
    f: BinaryCubicForm,
    S: ConvexRegion,
    L: Optional[RowForm] = None,
    coprime_only: bool = False,
    threads: int = 1,
    keep_arrays: bool = False,
) -> ParityGrid:
    """Sieve the whole grid; returns counts, sums, optionally the int8 grids."""
    return parity_grids(f, [S], L, coprime_only, threads, keep_arrays)[0]


def parity_grids(
    f: BinaryCubicForm,
    regions: Sequence[ConvexRegion],
    L: Optional[RowForm] = None,
    coprime_only: bool = False,
    threads: int = 1,
    keep_arrays: bool = False,
) -> list[ParityGrid]:
    """One ParityGrid per region, all read off one sieve of the last
    region's grid; keep_arrays keeps the last region's int8 grids.

    Every region must lie in the last one's bounding box, as N*S does in
    N_max*S for a convex S holding the origin.  Each region passes the
    grid guards in turn before anything is sieved.  Deterministic for any
    thread count: every per-point quantity is integer arithmetic.

    f has odd degree, so f(-x, -y) = -f(x, y) and the three channels agree
    at (x, y) and (-x, -y), as do gcd(x, y) and membership of a coset L
    with -L = L.  When every region is closed under negation and so is L
    (an exact test, ``_symmetric``), only the rows y >= 0 are sieved: row
    0 weighs once in the sums and every other row twice, and keep_arrays
    fills the rows y < 0 by point reflection of the rows y > 0.  The
    value guard and the cell caps are decided on the whole grid, and each
    ParityGrid carries its whole grid's spec.
    """
    specs = [_make_spec(f, S, L, coprime_only) for S in regions]
    spec = specs[-1]
    if any(s is not None and not (spec is not None and spec.xmin <= s.xmin and s.xmax <= spec.xmax
                                  and spec.ymin <= s.ymin and s.ymax <= spec.ymax) for s in specs):
        raise ValueError("every region must lie in the last region's grid")
    if spec is None:
        return [ParityGrid(None, 0, 0, 0, 0) for _ in regions]
    if keep_arrays and spec.cells > _TABLE_CELL_CAP * 8:
        raise ExactRangeError("grid too large to retain per-point arrays")
    totals, kept = _sieve_parity(spec, regions, threads, keep_arrays, _symmetric(regions, L))
    grids = [ParityGrid(s, *map(int, t)) for s, t in zip(specs, totals)]
    if keep_arrays:
        grids[-1].mu, grids[-1].lam, grids[-1].omg = kept
    return grids


def _symmetric(regions: Sequence[ConvexRegion], L: Optional[RowForm]) -> bool:
    """Whether every region and the coset L are closed under (x, y) ->
    (-x, -y); L is when it holds the negation of its point (x0, y0)."""
    return all(S.symmetric() for S in regions) and (L is None or L.contains(-L.x0, -L.y0))


def _sieve_parity(spec: GridSpec, regions, threads: int, keep: bool, half: bool):
    """The (regions, 4) sums of the grid of spec, and the last region's
    (mu, lam, omg) box arrays if keep, else None.

    half sieves only the rows y >= 0 of a grid _symmetric admits, and
    fills the rows y < 0 of the box arrays by point reflection."""
    sieved = replace(spec, ymin=0) if half else spec
    table = _strike_table(sieved)
    bands = _bands(sieved)

    def work(band):
        return _sieve_band_parity(sieved, table, band, regions, keep, half)

    if threads > 1 and len(bands) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, bands))
    else:
        results = [work(band) for band in bands]
    totals = sum((r[0] for r in results), np.zeros((len(regions), 4), dtype=np.int64))
    if not keep:
        return totals, None
    boxes = [np.zeros((spec.height, spec.width), dtype=np.int8) for _ in range(3)]
    for band, (_, kept) in zip(bands, results):
        for box, grid in zip(boxes, kept):
            _scatter(spec, band, grid, box)
    if half:
        # box row i holds y = i + ymin and column j x = j + xmin, with
        # ymin = -ymax and xmin = -xmax: (-x, -y) sits at the opposite cell
        for box in boxes:
            box[: spec.ymax] = box[::-1, ::-1][: spec.ymax]
    return totals, boxes


# ---------------------------------------------------------------- table path


def sieve_grid(
    f: BinaryCubicForm,
    S: ConvexRegion,
    L: Optional[RowForm] = None,
    coprime_only: bool = False,
) -> dict[tuple[int, int], Factorization]:
    """Complete factorization of f(x, y) at every admitted grid point, in
    row-major order: y, then x.

    Every prime up to the square root of the value bound is struck, as on
    the parity path, so each leftover cofactor is one prime or 1.  The
    factor product is checked against the value, so a wrong table cannot
    escape quietly.
    """
    spec = _make_spec(f, S, L, coprime_only)
    if spec is None:
        return {}
    if spec.cells > _TABLE_CELL_CAP:
        raise ExactRangeError(f"factor table of {spec.cells} cells is past the supported size")
    if not spec.stored_rows:
        return {}
    table = _strike_table(spec)
    band = _band(spec, 0, spec.stored_rows - 1)
    stripes: list[tuple[np.ndarray, object, np.ndarray]] = []
    V = _band_values(spec, band).ravel()
    cof = np.abs(V)  # V stays: every Factorization is checked against it
    mask = _sieve_band(spec, table, band, cof, lambda idx, p, exps: stripes.append((idx, p, exps)))
    lo, hi = _row_extents(spec, [S], band)
    mask &= _inside(lo[0], hi[0], band.width).ravel()
    factors: dict[int, list[tuple[int, int]]] = {}
    for idx, p, vals in stripes:
        for i, q, v in zip(idx.tolist(), np.broadcast_to(p, idx.shape).tolist(), vals.tolist()):
            if mask[i]:
                factors.setdefault(i, []).append((q, v))
    xs, ys, a = band.xs.tolist(), band.y.tolist(), spec.lattice.a
    out: dict[tuple[int, int], Factorization] = {}
    for i in np.nonzero(mask)[0].tolist():
        value = int(V[i])
        rem = int(cof[i])
        fs = factors.get(i, [])
        if rem > 1:
            fs = fs + cofactor_resolve(rem, table.depth)
        fs.sort()
        fz = Factorization(
            value=value,
            sign=-1 if value < 0 else 1,
            factors=tuple(fs),
        )
        if fz.rebuild() != value:
            raise SieveCorruptionError(f"factor table mismatch at flat index {i}")
        row, col = divmod(i, band.width)
        out[(xs[row] + a * col, ys[row])] = fz
    return out
