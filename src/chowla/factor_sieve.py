"""Multiplicative parity data for form values over integer grids.

Two production paths share one striking engine, which strikes every prime
up to sqrt(max value), so a leftover cofactor is 1 or a single prime:

* parity path: per-point mu, Liouville lambda, and omega-parity of |f(x, y)|
  over a whole grid, fully vectorized, with no per-point primality test;
* table path: complete factorizations per point, the struck primes with
  their exponents plus the leftover prime, checked against the value.

Striking works line by line: for p not dividing y, the zero locus of f mod p
is a union of lines x = r*y with f(r, 1) = 0 mod p; rows p | y are covered
wholesale when p divides the leading coefficient and through the (p|x, p|y)
sublattice otherwise.  The three strike families are disjoint by construction.
Primes below the grid width strike their lines row by row.  A prime at or
past the width meets each row at most once, so its lines are walked instead:
every lattice {x = r*y mod p} goes from hit to hit along a reduced basis, all
(p, r) pairs of a band in step.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cubic_form import BinaryCubicForm, ExactRangeError, content, is_irreducible
from .polymod import roots_mod_primes
from .primes import factor_int, is_prime, primes_up_to
from .region_lattice import ConvexRegion, RowForm

_INT64_GUARD = 1 << 62
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
    """Divide p out of cof[idx] completely; p must divide every cof[idx].

    p is one prime, or one prime per index.  An index may repeat for
    distinct primes: ``ufunc.at`` divides such a cell once per entry.
    Returns the exponent of p at each index (uint8: cofactors are < 2^62).
    """
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
    """omega, Omega and squarefreeness per cofactor slot, fed strike by strike."""

    def __init__(self, size: int):
        self.small_omega = np.zeros(size, dtype=np.uint8)
        self.big_omega = np.zeros(size, dtype=np.uint8)
        self.squarefree = np.ones(size, dtype=bool)

    def add(self, idx: np.ndarray, p, exps: np.ndarray) -> None:
        # ufunc.at counts a repeated cell once per entry; uint8 operands
        # keep it on numpy's fast path
        np.add.at(self.small_omega, idx, np.uint8(1))
        np.add.at(self.big_omega, idx, exps)
        self.squarefree[idx[exps > 1]] = False

    def channels(self, cof: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mu, lambda, omega-sign) int8 arrays, counting a leftover cofactor
        > 1 as one more prime to the first power."""
        rest = cof > 1
        odd_omega = ((self.small_omega + rest) & 1).astype(np.int8)
        mu_arr = np.where(self.squarefree, 1 - 2 * odd_omega, 0).astype(np.int8)
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
    """Bounding box and masks source (form, region, coset, coprime flag) for one sieve run."""

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
class _Lattices:
    """The lattices {x = r*y (mod p)} of pairs (p, r) with p >= width.

    Each is given by a basis u = (alpha, beta), v = (gamma, delta) with
    -width < alpha <= 0 <= gamma, gamma - alpha >= width and beta > 0, as
    in Franke and Kleinjung ("Continued fractions and lattice sieving",
    2005).  In a strip of width columns the next lattice point after column
    i is then reached by u + v when width - gamma <= i < -alpha, else by u
    alone (i >= -alpha) or by v alone (i < width - gamma).  A vertical
    basis, alpha = 0 with gamma = width, always steps by u.
    """

    p: np.ndarray
    r: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray


def _reduced_lattices(p: np.ndarray, r: np.ndarray, width: int) -> _Lattices:
    """Reduce the basis (-p, 0), (r, 1) of every pair by continued fractions.

    While both |alpha| and gamma reach the width, each is taken fully modulo
    the other in turn.  Once one is below the width, the other is cut just
    below it, which leaves gamma - alpha >= width.  O(log p) rounds, every
    round over all pairs still running.
    """
    n = p.size
    alpha = np.zeros(n, dtype=np.int64)
    beta = np.ones(n, dtype=np.int64)
    gamma = np.full(n, width, dtype=np.int64)
    delta = np.ones(n, dtype=np.int64)
    if width == 1:
        # one column: the lattice meets it every p rows (every row if r = 0)
        beta[r != 0] = p[r != 0]
        return _Lattices(p, r, alpha, beta, gamma, delta)
    # r = 0 keeps the vertical basis u = (0, 1)
    ids = np.nonzero(r)[0]
    a0, b0 = -p[ids], np.zeros(ids.size, dtype=np.int64)
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
    return _Lattices(p, r, alpha, beta, gamma, delta)


def _first_hits(a: np.ndarray, m: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Least t >= 0 with lo <= a*t mod m <= hi, for 0 < lo <= hi < m, gcd(a, m) = 1.

    Either t = ceil(lo / a) already works, or [lo, hi] holds no multiple of
    a, and t = ceil((lo + m*s) / a) for the least s >= 0 with
    a - hi % a <= (m % a)*s mod a <= a - lo % a: Euclid's recursion, run
    down for all entries at once and then unwound.
    """
    t = np.empty(a.size, dtype=np.int64)
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
    return t


def _lattice_hits(lat: _Lattices, xmin: int, width: int, y0: int, y1: int):
    """Walk every lattice through the columns xmin .. xmin + width - 1 and the
    rows y0 .. y1, all pairs in step.

    Yields, step by step, the flat indices (y - y0) * width + (x - xmin) of
    the points x = r*y (mod p) with p not dividing y, and the prime of each.
    A pair meets a row at most once, so a step repeats a cell only across
    distinct primes.
    """
    p, r = lat.p, lat.r
    # the pair's lattice point in row y0 lies c columns into the strip
    c = (r * y0 - xmin) % p
    t = np.zeros(p.size, dtype=np.int64)
    late = c >= width
    t[late & (r == 0)] = y1 - y0 + 1  # a vertical lattice misses the strip
    far = np.nonzero(late & (r != 0))[0]
    t[far] = _first_hits(r[far], p[far], p[far] - c[far], p[far] - c[far] + width - 1)
    on = np.nonzero(t <= y1 - y0)[0]
    p, t = p[on], t[on]
    i = (c[on] + r[on] * t) % p
    y = y0 + t
    alpha, beta, gamma, delta = lat.alpha[on], lat.beta[on], lat.gamma[on], lat.delta[on]
    by_u, by_v = width - gamma, -alpha
    while p.size:
        off = y % p != 0  # rows p | y belong to the other two families
        yield ((y - y0) * width + i)[off], p[off]
        u = i >= by_u
        v = i < by_v
        i += alpha * u + gamma * v
        y += beta * u + delta * v
        live = y <= y1
        if not live.all():
            p, i, y = p[live], i[live], y[live]
            alpha, beta, gamma, delta = alpha[live], beta[live], gamma[live], delta[live]
            by_u, by_v = by_u[live], by_v[live]


def _divisor_rows(spec: GridSpec, primes: np.ndarray, lead: np.ndarray, y0: int, y1: int):
    """Flat band indices, and the prime of each, of the cells in rows p | y for
    primes p >= width: the whole row when p | a, else the one column p | x
    if the strip holds it."""
    width = spec.width
    first_col = -(-spec.xmin // primes) * primes
    keep = lead | (first_col <= spec.xmax)
    first = -(-y0 // primes)
    count = np.where(keep, np.maximum(y1 // primes - first + 1, 0), 0)
    which = np.repeat(np.arange(primes.size), count)
    step = np.arange(which.size) - np.repeat(np.cumsum(count) - count, count)
    q = primes[which]
    rows = (first[which] + step) * q - y0
    whole = lead[which]
    cols = np.arange(width, dtype=np.int64)
    idx = np.concatenate([
        (rows[whole][:, None] * width + cols[None, :]).ravel(),
        rows[~whole] * width + (first_col[which][~whole] - spec.xmin),
    ])
    return idx, np.concatenate([np.repeat(q[whole], width), q[~whole]])


@dataclass(frozen=True)
class _StrikeTable:
    """Every prime up to depth, the isqrt of the grid's value bound, split at
    the grid width; a leftover cofactor is then 1 or one prime.

    small: (p, roots, p | a) per prime p < width, struck row by row;
    primes, lead: the primes p >= width and whether p | a;
    lattices: their (p, r) pairs, walked.
    """

    depth: int
    small: list
    primes: np.ndarray
    lead: np.ndarray
    lattices: _Lattices


def _strike_table(spec: GridSpec) -> _StrikeTable:
    depth = math.isqrt(_value_bound(spec))
    primes = primes_up_to(depth)
    pair_p, pair_r = _root_table(spec.form, primes)
    width = spec.width
    a = spec.form.a
    small = []
    for p in primes[primes < width].tolist():
        lo, hi = np.searchsorted(pair_p, [p, p + 1])
        small.append((p, pair_r[lo:hi].tolist(), a % p == 0))
    large = primes[primes >= width].astype(np.int64)
    cut = np.searchsorted(pair_p, width)
    return _StrikeTable(
        depth, small, large, a % large == 0, _reduced_lattices(pair_p[cut:], pair_r[cut:], width)
    )


def _line_hits(offs: np.ndarray, row_base: np.ndarray, width: int, p: int) -> np.ndarray:
    """Flat indices of x = offs[i] (mod p) within each selected row."""
    counts = (width - offs + p - 1) // p
    kmax = int(counts.max()) if counts.size else 0
    lattice = offs[:, None] + p * np.arange(kmax, dtype=np.int64)[None, :]
    return (row_base[:, None] + lattice)[lattice < width]


def _strike_sets(spec: GridSpec, entry, ys: np.ndarray, row_base: np.ndarray):
    """Disjoint flat-index families covering p | f(x, y) in this band, for
    one prime p below the width; yielded one at a time, so that no two are
    held at once."""
    p, roots, p_div_lead = entry
    width = spec.width
    off_rows = ys % p != 0  # rows with p not dividing y
    if roots:
        rb = row_base[off_rows]
        yr = ys[off_rows]
        for r in roots:
            offs = (r * yr - spec.xmin) % p
            yield _line_hits(offs, rb, width, p)
    div_rows = row_base[~off_rows]
    if div_rows.size:
        if p_div_lead:
            yield (div_rows[:, None] + np.arange(width, dtype=np.int64)[None, :]).ravel()
        else:
            offs = np.full(div_rows.size, (-spec.xmin) % p, dtype=np.int64)
            yield _line_hits(offs, div_rows, width, p)


def _band_mask(spec: GridSpec, ys: np.ndarray) -> np.ndarray:
    """Coset & coprimality mask for the band rows, over the grid's full width.

    The region is left to the reductions, and the origin to the callers,
    which drop every zero of f; for an irreducible form that is the origin.
    """
    width = spec.width
    if spec.coset is None:
        mask = np.ones((ys.size, width), dtype=bool)
    else:
        mask = np.zeros((ys.size, width), dtype=bool)
        for i, y in enumerate(ys.tolist()):
            sol = spec.coset.row_solution(y)
            if sol is not None:
                res, mod = sol
                mask[i, (res - spec.xmin) % mod :: mod] = True
    if spec.coprime_only:
        mask &= _coprime_mask(spec, ys)
    return mask


def _row_extents(spec: GridSpec, regions, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns lo..hi of the grid that each region holds in each band row,
    as two (regions, rows) arrays; a row a region misses has hi = lo - 1.

    Every region must lie in the grid's bounding box.
    """
    lo = np.zeros((len(regions), ys.size), dtype=np.int64)
    hi = np.full((len(regions), ys.size), -1, dtype=np.int64)
    for k, S in enumerate(regions):
        ylo, yhi = S.y_range()
        for i in np.nonzero((ys >= ylo) & (ys <= yhi))[0].tolist():
            ext = S.row_extent(int(ys[i]))
            if ext is not None:
                lo[k, i], hi[k, i] = ext[0] - spec.xmin, ext[1] - spec.xmin
    return lo, hi


def _inside(lo: np.ndarray, hi: np.ndarray, width: int) -> np.ndarray:
    """The (rows, width) mask of the columns lo..hi of each row."""
    cols = np.arange(width, dtype=np.int64)
    return (cols >= lo[:, None]) & (cols <= hi[:, None])


def _coprime_mask(spec: GridSpec, ys: np.ndarray) -> np.ndarray:
    """gcd(x, y) = 1 mask by striking shared prime divisors; exact."""
    width = spec.width
    mask = np.ones((ys.size, width), dtype=bool)
    for p in primes_up_to(spec.half_width):
        p = int(p)
        rows = np.nonzero(ys % p == 0)[0]
        if not rows.size:
            continue
        cols = np.arange((-spec.xmin) % p, width, p, dtype=np.int64)
        if cols.size:
            mask[rows[:, None], cols[None, :]] = False
    return mask


def _band_values(spec: GridSpec, ys: np.ndarray) -> np.ndarray:
    a, b, c, d = spec.form.coeffs
    X = np.arange(spec.xmin, spec.xmax + 1, dtype=np.int64)
    Y = ys[:, None]
    V = (a * X**3)[None, :] + (b * X**2)[None, :] * Y + (c * X)[None, :] * Y**2 + d * Y**3
    return V


def _strike_band(spec: GridSpec, table: _StrikeTable, ys: np.ndarray, cof: np.ndarray, visit) -> None:
    """Divide every table prime out of the band's cofactors.

    Calls visit(idx, p, exps) for each strike set, cut to the flat indices
    p really divides, with the exponent of p at each.  p is one prime, or
    one prime per index where the primes past the width strike together.
    A callback rather than a generator, so no strike set outlives its own
    visit.
    """
    row_base = np.arange(ys.size, dtype=np.int64) * spec.width
    for entry in table.small:
        p = entry[0]
        for idx in _strike_sets(spec, entry, ys, row_base):
            idx = idx[cof[idx] % p == 0]
            if idx.size:
                visit(idx, p, _divide_out(cof, idx, p))
    y0, y1 = int(ys[0]), int(ys[-1])
    idx, q = _divisor_rows(spec, table.primes, table.lead, y0, y1)
    on = cof[idx] % q == 0  # drops the origin, whose value is 0
    if on.any():
        visit(idx[on], q[on], _divide_out(cof, idx[on], q[on]))
    for idx, q in _lattice_hits(table.lattices, spec.xmin, spec.width, y0, y1):
        if idx.size:
            visit(idx, q, _divide_out(cof, idx, q))


def _sieve_band(spec: GridSpec, table: _StrikeTable, ys: np.ndarray, visit):
    """Strike every table prime out of the band's values, calling visit as
    _strike_band does.

    Returns the flat values, their leftover cofactors and the _band_mask;
    zero values get cofactor 1 and are left out of the mask.
    """
    V = _band_values(spec, ys).ravel()
    zero = V == 0
    cof = np.abs(V)
    cof[zero] = 1
    _strike_band(spec, table, ys, cof, visit)
    return V, cof, _band_mask(spec, ys).ravel() & ~zero


def _sieve_band_parity(spec: GridSpec, table: _StrikeTable, ys: np.ndarray, regions, keep: bool):
    """Sieve one band and reduce it per region.

    Returns a (regions, 4) int64 array of (points, mu_sum, lam_sum,
    omg_sum), and the last region's masked mu/lam/omg grids if keep, else
    None.  A prefix sum along x of each channel makes every region cost two
    reads per band row, not one per cell.
    """
    counts = _ParityCounts(ys.size * spec.width)
    cof, mask = _sieve_band(spec, table, ys, counts.add)[1:]
    shape = (ys.size, spec.width)
    mask, *channels = (ch.reshape(shape) for ch in (mask, *counts.channels(cof)))
    del cof, counts  # the reduction's prefix sums take their place
    lo, hi = _row_extents(spec, regions, ys)
    rows = np.arange(ys.size)
    prefix = np.zeros((ys.size, spec.width + 1), dtype=np.int32)
    sums = np.empty((len(regions), 4), dtype=np.int64)
    for k, ch in enumerate((mask, *channels)):
        np.cumsum(ch * mask, axis=1, dtype=np.int32, out=prefix[:, 1:])
        sums[:, k] = (prefix[rows, hi + 1] - prefix[rows, lo]).sum(axis=1)
    if not keep:
        return sums, None
    mask &= _inside(lo[-1], hi[-1], spec.width)
    return sums, [np.where(mask, ch, np.int8(0)) for ch in channels]


def _bands(spec: GridSpec):
    """Row bands of near-equal height, each at most _BAND_CELLS cells or
    one row.

    The count comes from the cell budget alone, not from the thread count:
    each band repeats the per-prime loop, so extra bands cost more than
    threads win back.
    """
    rows_per = max(1, min(spec.height, _BAND_CELLS // max(spec.width, 1)))
    n_bands = (spec.height + rows_per - 1) // rows_per
    rows_per = (spec.height + n_bands - 1) // n_bands
    out = []
    y = spec.ymin
    while y <= spec.ymax:
        out.append(np.arange(y, min(y + rows_per - 1, spec.ymax) + 1, dtype=np.int64))
        y += rows_per
    return out


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
    table = _strike_table(spec)
    bands = _bands(spec)

    def work(ys):
        return _sieve_band_parity(spec, table, ys, regions, keep_arrays)

    if threads > 1 and len(bands) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, bands))
    else:
        results = [work(ys) for ys in bands]
    totals = sum(r[0] for r in results)
    grids = [ParityGrid(s, *map(int, t)) for s, t in zip(specs, totals)]
    if keep_arrays:
        last = grids[-1]
        last.mu, last.lam, last.omg = (np.vstack(a) for a in zip(*(r[1] for r in results)))
    return grids


# ---------------------------------------------------------------- table path


def sieve_grid(
    f: BinaryCubicForm,
    S: ConvexRegion,
    L: Optional[RowForm] = None,
    coprime_only: bool = False,
) -> dict[tuple[int, int], Factorization]:
    """Complete factorization of f(x, y) at every admitted grid point.

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
    table = _strike_table(spec)
    ys = np.arange(spec.ymin, spec.ymax + 1, dtype=np.int64)
    width = spec.width
    stripes: list[tuple[np.ndarray, object, np.ndarray]] = []
    V, cof, mask = _sieve_band(spec, table, ys, lambda idx, p, exps: stripes.append((idx, p, exps)))
    lo, hi = _row_extents(spec, [S], ys)
    mask &= _inside(lo[0], hi[0], width).ravel()
    factors: dict[int, list[tuple[int, int]]] = {}
    for idx, p, vals in stripes:
        for i, q, v in zip(idx.tolist(), np.broadcast_to(p, idx.shape).tolist(), vals.tolist()):
            if mask[i]:
                factors.setdefault(i, []).append((q, v))
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
        x = spec.xmin + i % width
        y = spec.ymin + i // width
        out[(x, y)] = fz
    return out
