"""Multiplicative parity data for form values over integer grids.

Two production paths share one striking engine:

* parity path: per-point mu, Liouville lambda, and omega-parity of |f(x, y)|
  over a whole grid, fully vectorized, primes up to sqrt(max value) so the
  leftover cofactor is 1 or a single prime and no per-point primality test
  is ever needed;
* table path: complete factorizations per point, primes up to the cube root
  of the max value plus exact cofactor resolution (prime, prime square, or
  semiprime split deterministically).

Striking works line by line: for p not dividing y, the zero locus of f mod p
is a union of lines x = r*y with f(r, 1) = 0 mod p; rows p | y are covered
wholesale when p divides the leading coefficient and through the (p|x, p|y)
sublattice otherwise.  The three strike families are disjoint by construction.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cubic_form import BinaryCubicForm, ExactRangeError, content, is_irreducible
from .polymod import roots_mod_p
from .primes import brent_rho, factor_int, is_prime, primes_up_to
from .region_lattice import ConvexRegion, LatticeCoset

_INT64_GUARD = 1 << 62
_TABLE_CELL_CAP = 4_200_000
_GRID_CELL_CAP = 230_000_000
_BAND_CELLS = 8_000_000


class SieveCorruptionError(RuntimeError):
    """Internal consistency of a sieve run failed; results are not trustworthy."""


# ---------------------------------------------------------------- single values


def mu(n: int) -> int:
    """Mobius function of |n|; n = 0 is rejected."""
    n = _abs_nonzero(n)
    if n == 1:
        return 1
    fs = factor_int(n)
    if any(e > 1 for _, e in fs):
        return 0
    return -1 if len(fs) % 2 else 1


def liouville(n: int) -> int:
    """(-1)^(number of prime factors with multiplicity) of |n|."""
    n = _abs_nonzero(n)
    total = sum(e for _, e in factor_int(n)) if n > 1 else 0
    return -1 if total % 2 else 1


def omega_sign(n: int) -> int:
    """(-1)^(number of distinct prime factors) of |n|."""
    n = _abs_nonzero(n)
    k = len(factor_int(n)) if n > 1 else 0
    return -1 if k % 2 else 1


def _abs_nonzero(n: int) -> int:
    if n == 0:
        raise ValueError("parity functions are undefined at 0")
    return abs(n)


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


def _divide_out(cof: np.ndarray, idx: np.ndarray, p: int) -> np.ndarray:
    """Divide p out of cof[idx] completely; p must divide every cof[idx].

    Returns the exponent of p at each index (uint8: cofactors are < 2^62).
    """
    cof[idx] //= p
    exps = np.ones(idx.size, dtype=np.uint8)
    deeper = np.nonzero(cof[idx] % p == 0)[0]
    while deeper.size:
        exps[deeper] += 1
        # idx[deeper] is gathered twice rather than held: holding it raised
        # the peak memory of the p = 2 strike
        cof[idx[deeper]] //= p
        deeper = deeper[cof[idx[deeper]] % p == 0]
    return exps


class _ParityCounts:
    """omega, Omega and squarefreeness per cofactor slot, fed strike by strike."""

    def __init__(self, size: int):
        self.small_omega = np.zeros(size, dtype=np.uint8)
        self.big_omega = np.zeros(size, dtype=np.uint8)
        self.squarefree = np.ones(size, dtype=bool)

    def add(self, idx: np.ndarray, p: int, exps: np.ndarray) -> None:
        self.small_omega[idx] += 1
        self.big_omega[idx] += exps
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
    """Factor a cofactor whose prime factors all exceed Z, with m < Z^3.

    Outcomes: prime, square of a prime, or a semiprime split by a rho step.
    Anything else means the caller's sieve stage was wrong, which is an error.
    """
    if m <= 1:
        raise ValueError("cofactor must exceed 1")
    if is_prime(m):
        if m <= Z:
            raise SieveCorruptionError(f"cofactor {m} should have been sieved (Z={Z})")
        return [(m, 1)]
    s = math.isqrt(m)
    if s * s == m:
        if not is_prime(s) or s <= Z:
            raise SieveCorruptionError(f"square cofactor {m} with non-prime root")
        return [(s, 2)]
    d = brent_rho(m)
    p, q = sorted((d, m // d))
    if p * q != m or not is_prime(p) or not is_prime(q) or p <= Z or q <= Z:
        raise SieveCorruptionError(f"cofactor {m} is not a clean semiprime past {Z}")
    return [(p, 1), (q, 1)]


# ---------------------------------------------------------------- grid plumbing


@dataclass(frozen=True)
class GridSpec:
    """Bounding box, masks source, and root table for one sieve run."""

    form: BinaryCubicForm
    region: ConvexRegion
    coset: Optional[LatticeCoset]
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


def _root_table(f: BinaryCubicForm, primes: np.ndarray):
    """Per prime: sorted roots of f(t, 1) mod p, and whether p | leading coeff."""
    a = f.a
    poly = f.dehomogenized()
    table = []
    for p in primes:
        p = int(p)
        roots = roots_mod_p(poly, p)
        table.append((p, roots, a % p == 0))
    return table


def _line_hits(offs: np.ndarray, row_base: np.ndarray, width: int, p: int) -> np.ndarray:
    """Flat indices of x = offs[i] (mod p) within each selected row."""
    if p >= width:
        sel = offs < width
        return row_base[sel] + offs[sel]
    counts = (width - offs + p - 1) // p
    kmax = int(counts.max()) if counts.size else 0
    lattice = offs[:, None] + p * np.arange(kmax, dtype=np.int64)[None, :]
    return (row_base[:, None] + lattice)[lattice < width]


def _strike_sets(spec: GridSpec, entry, ys: np.ndarray, row_base: np.ndarray):
    """Disjoint flat-index families covering p | f(x, y) in this band."""
    p, roots, p_div_lead = entry
    width = spec.width
    off_rows = ys % p != 0  # rows with p not dividing y
    sets = []
    if roots:
        rb = row_base[off_rows]
        yr = ys[off_rows]
        for r in roots:
            offs = (r * yr - spec.xmin) % p
            sets.append(_line_hits(offs, rb, width, p))
    div_rows = row_base[~off_rows]
    if div_rows.size:
        if p_div_lead:
            sets.append((div_rows[:, None] + np.arange(width, dtype=np.int64)[None, :]).ravel())
        else:
            offs = np.full(div_rows.size, (-spec.xmin) % p, dtype=np.int64)
            sets.append(_line_hits(offs, div_rows, width, p))
    return sets


def _band_mask(spec: GridSpec, ys: np.ndarray) -> np.ndarray:
    """Region & coset & coprimality mask for the band rows.

    The origin is left to the callers, which drop every zero of f; for an
    irreducible form that is the origin alone.
    """
    width = spec.width
    mask = np.zeros((ys.size, width), dtype=bool)
    rf = spec.coset.row_form() if spec.coset is not None else None
    for i, y in enumerate(ys):
        ext = spec.region.row_extent(int(y))
        if ext is None:
            continue
        xlo, xhi = ext
        xlo = max(xlo, spec.xmin)
        xhi = min(xhi, spec.xmax)
        if xlo > xhi:
            continue
        if rf is None:
            mask[i, xlo - spec.xmin : xhi - spec.xmin + 1] = True
        else:
            sol = rf.row_solution(int(y))
            if sol is None:
                continue
            res, mod = sol
            first = xlo + (res - xlo) % mod
            if first <= xhi:
                mask[i, first - spec.xmin : xhi - spec.xmin + 1 : mod] = True
    if spec.coprime_only:
        mask &= _coprime_mask(spec, ys)
    return mask


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


def _strike_band(spec: GridSpec, table, ys: np.ndarray, cof: np.ndarray, visit) -> None:
    """Divide every table prime out of the band's cofactors.

    Calls visit(idx, p, exps) for each strike set, cut to the flat indices
    p really divides, with the exponent of p at each.  A callback rather than
    a generator, so no strike set outlives its own visit.
    """
    row_base = np.arange(ys.size, dtype=np.int64) * spec.width
    for entry in table:
        p = entry[0]
        for idx in _strike_sets(spec, entry, ys, row_base):
            idx = idx[cof[idx] % p == 0]
            if idx.size:
                visit(idx, p, _divide_out(cof, idx, p))


def _sieve_band_parity(spec: GridSpec, table, ys: np.ndarray):
    """Return (points, mu_sum, lam_sum, omg_sum, mu/lam/omg int8 arrays)."""
    V = _band_values(spec, ys)
    sign_zero = V.ravel() == 0
    cof = np.abs(V).ravel()
    cof[sign_zero] = 1
    counts = _ParityCounts(cof.size)
    _strike_band(spec, table, ys, cof, counts.add)
    mu_flat, lam_flat, omg_flat = counts.channels(cof)
    mask = _band_mask(spec, ys).ravel()
    mask &= ~sign_zero
    points = int(mask.sum())
    sums = (
        int(mu_flat[mask].sum(dtype=np.int64)),
        int(lam_flat[mask].sum(dtype=np.int64)),
        int(omg_flat[mask].sum(dtype=np.int64)),
    )
    shape = (ys.size, spec.width)
    mu_flat[~mask] = 0
    lam_flat[~mask] = 0
    omg_flat[~mask] = 0
    return points, sums, mu_flat.reshape(shape), lam_flat.reshape(shape), omg_flat.reshape(shape)


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
    L: Optional[LatticeCoset] = None,
    coprime_only: bool = False,
    threads: int = 1,
    keep_arrays: bool = False,
) -> ParityGrid:
    """Sieve the whole grid; returns counts, sums, optionally the int8 grids.

    Deterministic for any thread count: bands are reduced in row order and
    every per-point quantity is integer arithmetic.
    """
    spec = _make_spec(f, S, L, coprime_only)
    if spec is None:
        return ParityGrid(None, 0, 0, 0, 0)
    if keep_arrays and spec.cells > _TABLE_CELL_CAP * 8:
        raise ExactRangeError("grid too large to retain per-point arrays")
    bound = _value_bound(spec)
    table = _root_table(f, primes_up_to(math.isqrt(bound)))
    bands = _bands(spec)

    def work(ys):
        return _sieve_band_parity(spec, table, ys)

    if threads > 1 and len(bands) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, bands))
    else:
        results = [work(ys) for ys in bands]
    points = sum(r[0] for r in results)
    mu_sum = sum(r[1][0] for r in results)
    lam_sum = sum(r[1][1] for r in results)
    omg_sum = sum(r[1][2] for r in results)
    grid = ParityGrid(spec, points, mu_sum, lam_sum, omg_sum)
    if keep_arrays:
        grid.mu = np.vstack([r[2] for r in results])
        grid.lam = np.vstack([r[3] for r in results])
        grid.omg = np.vstack([r[4] for r in results])
    return grid


# ---------------------------------------------------------------- table path


def sieve_grid(
    f: BinaryCubicForm,
    S: ConvexRegion,
    L: Optional[LatticeCoset] = None,
    coprime_only: bool = False,
) -> dict[tuple[int, int], Factorization]:
    """Complete factorization of f(x, y) at every admitted grid point.

    Primes up to the cube root of the value bound are struck along root
    lines; each leftover cofactor is resolved exactly.  The factor product
    is checked against the value, so a wrong table cannot escape quietly.
    """
    spec = _make_spec(f, S, L, coprime_only)
    if spec is None:
        return {}
    if spec.cells > _TABLE_CELL_CAP:
        raise ExactRangeError(f"factor table of {spec.cells} cells is past the supported size")
    bound = _value_bound(spec)
    Z = _icbrt_up(bound)
    table = _root_table(f, primes_up_to(Z))
    ys = np.arange(spec.ymin, spec.ymax + 1, dtype=np.int64)
    width = spec.width
    V = _band_values(spec, ys).ravel()
    cof = np.abs(V)
    zero = cof == 0
    cof[zero] = 1
    stripes: list[tuple[np.ndarray, int, np.ndarray]] = []
    _strike_band(spec, table, ys, cof, lambda idx, p, exps: stripes.append((idx, p, exps)))
    mask = _band_mask(spec, ys).ravel() & ~zero
    factors: dict[int, list[tuple[int, int]]] = {}
    for idx, p, vals in stripes:
        for i, v in zip(idx.tolist(), vals.tolist()):
            if mask[i]:
                factors.setdefault(i, []).append((p, v))
    out: dict[tuple[int, int], Factorization] = {}
    flat_sel = np.nonzero(mask)[0]
    vflat = V
    for i in flat_sel.tolist():
        value = int(vflat[i])
        rem = int(cof[i])
        fs = factors.get(i, [])
        if rem > 1:
            fs = fs + cofactor_resolve(rem, Z)
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


def _icbrt_up(n: int) -> int:
    s = round(n ** (1.0 / 3.0))
    while s**3 < n:
        s += 1
    while s > 1 and (s - 1) ** 3 >= n:
        s -= 1
    return s
