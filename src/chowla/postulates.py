"""Point-count sequences over ideals, their lattice density model, and the
postulate battery: exact checks of the density laws (1-3).

The density g of a prime-power-norm ideal compares reciprocal lattice-coset
indices: restrict the ambient coset to the points the ideal divides, measure
the loss against the same restriction intersected with p*Z^2, and normalize
by the unrestricted version of the same difference.  All of it is exact
rational arithmetic on coset indices; an empty restriction has density 0.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Optional

from .factor_sieve import sieve_grid
from .ideal_arith import (
    CubicField,
    Ideal,
    IndexBoundError,
    compute_D0,
    ideal_from_point,
    ideal_lattice,
    norm,
    prime_ideals_up_to,
)
from .region_lattice import WHOLE_PLANE, ConvexRegion, RowForm

_QUARANTINE_FRACTION = 0.01
_POSTULATE_NORM_CAP = 10_000


# ---------------------------------------------------------------- sequence


@dataclass
class SequenceAF:
    """Counts of primitive points per ideal, with the frame data the
    postulates quantify over."""

    support: dict  # Ideal -> positive int
    n: int  # max encountered |form value|
    D0: int
    D1: int
    field: CubicField
    region: ConvexRegion
    coset: Optional[RowForm]
    points: int  # primitive points with nonzero value, quarantined included
    quarantine: list  # points whose value meets an index-risk prime

    @cached_property
    def _norm_counts(self) -> tuple[list, list]:
        """The support's norms in order, and the count of points up to each."""
        pairs = sorted((norm(a), c) for a, c in self.support.items())
        return [nm for nm, _ in pairs], list(accumulate(c for _, c in pairs))

    @cached_property
    def _by_prime(self) -> dict:
        """PrimeIdeal -> the support ideals it divides."""
        index: dict = {}
        for a in self.support:
            for q, _ in a.factors:
                index.setdefault(q, []).append(a)
        return index


def build_sequence(
    K: CubicField,
    S: ConvexRegion,
    L: Optional[RowForm] = None,
) -> SequenceAF:
    """Map every primitive point of the region (and coset) to its ideal.

    Values factored by the grid sieve; points whose value touches an
    index-risk prime go to a quarantine list instead of the support, and
    more than 1% of them is an error (the field model cannot carry the
    sequence)."""
    table = sieve_grid(K.form, S, L, coprime_only=True)
    support: dict[Ideal, int] = {}
    quarantine = []
    nmax = 0
    for (x, y), fz in table.items():
        nmax = max(nmax, abs(fz.value))
        if any(p in K.index_bound for p, _ in fz.factors):
            quarantine.append((x, y))
            continue
        a = ideal_from_point(K, x, y, factors=fz.factors)
        support[a] = support.get(a, 0) + 1
    points = len(table)
    if quarantine and len(quarantine) > _QUARANTINE_FRACTION * points:
        raise ValueError(
            f"{len(quarantine)} of {points} points hit index-risk primes; "
            "the field model cannot carry this sequence"
        )
    D1 = L.index if L is not None else 1
    return SequenceAF(
        support, nmax, compute_D0(K), D1, K, S, L, points, quarantine
    )


def A(seq: SequenceAF, t) -> int:
    """Count of points whose ideal has norm at most t."""
    norms, counts = seq._norm_counts
    i = bisect_right(norms, t)
    return counts[i - 1] if i else 0


def A_d(seq: SequenceAF, d: Ideal, t) -> int:
    """Count of points whose ideal is divisible by d, with norm at most t."""
    if d.is_unit:
        return A(seq, t)
    # every multiple of d is listed under d's first prime
    candidates = seq._by_prime.get(d.factors[0][0], ())
    return sum(
        seq.support[a] for a in candidates if norm(a) <= t and d.divides(a)
    )


# ------------------------------------------------------------- density g


@dataclass
class DensityModel:
    """Exact multiplicative density on ideals, from lattice-coset indices."""

    field: CubicField
    coset: Optional[RowForm] = None
    _cache: dict = field(default_factory=dict)

    def g(self, d: Ideal) -> Fraction:
        """Density of d: the direct ratio per rational prime underneath,
        multiplied across primes (coprime-norm multiplicativity is the
        definition of the extension)."""
        parts: dict[int, list] = {}
        for q, e in d.factors:
            parts.setdefault(q.p, []).append((q, e))
        out = Fraction(1)
        for p, pairs in sorted(parts.items()):
            out *= self._prime_part(p, tuple(pairs))
        return out

    def _prime_part(self, p: int, pairs) -> Fraction:
        got = self._cache.get(pairs)
        if got is None:
            got = g_density(self.field, self.coset, Ideal.from_factors(pairs))
            self._cache[pairs] = got
        return got


def _inv_index(rf: Optional[RowForm]) -> Fraction:
    """Reciprocal index of a lattice coset, with the empty set giving 0."""
    if rf is None:
        return Fraction(0)
    return Fraction(1, rf.index)


def g_density(K: CubicField, L: Optional[RowForm], d: Ideal) -> Fraction:
    """Density of a prime-power-norm ideal from exact coset indices.

    With R the ambient coset, R_d its restriction to points d divides, and
    p the rational prime under d, the value is
    (1/[Z^2:R_d] - 1/[Z^2:pZ^2 meet R_d]) / (1/[Z^2:R] - 1/[Z^2:pZ^2 meet R]),
    empty intersections contributing 0.
    """
    ps = {q.p for q, _ in d.factors}
    if len(ps) != 1:
        raise ValueError("direct density needs a prime-power-norm ideal")
    (p,) = ps
    if p in K.index_bound:
        raise IndexBoundError(f"unsupported: density at index-risk prime {p}")
    base = L if L is not None else WHOLE_PLANE
    p_row = RowForm(p, 0, p, 0, 0)
    lam = ideal_lattice(K, d)
    restricted = base.intersect(lam)
    denom = _inv_index(base) - _inv_index(base.intersect(p_row))
    if denom == 0:
        raise ValueError("ambient coset lies inside p*Z^2; density undefined")
    numer = _inv_index(restricted)
    if restricted is not None:
        numer -= _inv_index(restricted.intersect(p_row))
    return numer / denom


def remainder(seq: SequenceAF, model: DensityModel, d: Ideal) -> Fraction:
    """Exact residue of the density approximation at d."""
    return Fraction(A_d(seq, d, seq.n)) - model.g(d) * Fraction(A(seq, seq.n))


# ------------------------------------------------------------- reports


@dataclass(frozen=True)
class ReportRow:
    postulate: str
    params: str
    ratio: Fraction
    status: str  # "pass" | "fail"

    def csv(self) -> str:
        return f"{self.postulate},{self.params},{float(self.ratio):.10g},{self.status}"


@dataclass
class PostulateReport:
    rows: list
    branch_observations: dict  # prime ideal repr -> "zero" | "power"
    skipped: list  # (p, reason)

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.rows)

    def failures(self) -> list:
        return [r for r in self.rows if r.status == "fail"]


def check_postulates_123(
    seq: SequenceAF, model: DensityModel, B: int
) -> PostulateReport:
    """Exhaustive exact checks of the three density laws up to norm B.

    Law 1 fixes g on prime powers (three cases by how the prime meets
    D0 and D1; the D1 case admits two branches and the observed one is
    recorded).  Law 2 is multiplicativity across coprime norms: g, a
    product over rational primes, has it by construction, so each row also
    asks the lattices for the index identity
    [Z^2:L(d1*d2)] = [Z^2:L(d1)] * [Z^2:L(d2)].  Law 3 kills
    any ideal containing two distinct primes over one rational prime.
    """
    if B > _POSTULATE_NORM_CAP:
        raise ValueError(f"prime norm bound capped at {_POSTULATE_NORM_CAP}")
    K = seq.field
    D0, D1 = seq.D0, seq.D1
    rows: list[ReportRow] = []
    branches: dict[str, str] = {}
    # prime_ideals_up_to leaves these primes out
    skipped: list = [(p, "index-risk prime") for p in sorted(K.index_bound) if p <= B]
    primes = prime_ideals_up_to(K, B)
    silent: set[int] = set()
    for q in primes:
        p = q.p
        nq = q.norm
        if D0 % p == 0:
            if p not in silent:
                silent.add(p)
                reason = "divides both D0 and D1" if D1 % p == 0 else "divides D0; law 1 silent"
                skipped.append((p, reason))
            continue
        for alpha in (1, 2):
            d = Ideal.prime(q, alpha)
            val = model.g(d)
            name = f"law1[{q!r}^{alpha}]"
            if q.residue_degree >= 2:
                rows.append(ReportRow("1", name, val, "pass" if val == 0 else "fail"))
            elif D1 % p:
                want = Fraction(1, nq**alpha) / (1 + Fraction(1, nq))
                rows.append(
                    ReportRow("1", name, val, "pass" if val == want else "fail")
                )
            else:
                if val == 0:
                    got = "zero"
                elif val == Fraction(1, nq**alpha):
                    got = "power"
                else:
                    got = "neither"
                prev = branches.get(repr(q))
                okb = got in ("zero", "power") and prev in (None, got)
                branches[repr(q)] = got
                rows.append(ReportRow("1", name, val, "pass" if okb else "fail"))
    # law 2 with its exact index identity, on a bounded sample of coprime pairs
    sample = [q for q in primes if q.norm <= min(B, 60)][:10]
    for i, q1 in enumerate(sample):
        for q2 in sample[i + 1 :]:
            if q1.p == q2.p:
                continue
            for a1, a2 in ((1, 1), (2, 1)):
                d1, d2 = Ideal.prime(q1, a1), Ideal.prime(q2, a2)
                lhs = model.g(d1 * d2)
                rhs = model.g(d1) * model.g(d2)
                i12, i1, i2 = (ideal_lattice(K, d).index for d in (d1 * d2, d1, d2))
                rows.append(
                    ReportRow(
                        "2",
                        f"law2[{q1!r}^{a1},{q2!r}^{a2}]",
                        lhs,
                        "pass" if lhs == rhs and i12 == i1 * i2 else "fail",
                    )
                )
    # law 3: distinct primes over one rational prime annihilate g
    by_p: dict[int, list] = {}
    for q in primes:
        by_p.setdefault(q.p, []).append(q)
    for p, qs in sorted(by_p.items()):
        if D0 % p == 0:
            continue
        for i, q1 in enumerate(qs):
            for q2 in qs[i + 1 :]:
                for extra in (Ideal.unit(), Ideal.prime(q1, 1)):
                    d = Ideal.prime(q1) * Ideal.prime(q2) * extra
                    val = model.g(d)
                    rows.append(
                        ReportRow(
                            "3",
                            f"law3[{q1!r},{q2!r}]x{extra!r}",
                            val,
                            "pass" if val == 0 else "fail",
                        )
                    )
    return PostulateReport(rows, branches, skipped)
