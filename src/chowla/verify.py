"""Self-verification suites behind the `chowla verify` command.

Three suites, each a batch of exact checks over seeded-random inputs plus a
few pinned examples, reporting one CSV line per check:

* ``identities`` — the seven-window divisor identity, its two coarser
  groupings, the complement-map flip of Mobius window sums, and the
  divisor-pairing bound.
* ``postulates`` — the three density laws for cubic-form value sequences
  on three (form, coset) configurations, with the full per-ideal report
  written alongside.
* ``sieve`` — grid parity sieve against direct trial division,
  Mobius-integrity of the Brun weight tables, the even-truncation upper
  bound, the Buchstab telescope, and the divisor-window exchange.

Exact assertion failures make the suite exit nonzero and serialize the
first counterexample; measured-only quantities are reported but never
affect the exit status.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .cubic_form import BinaryCubicForm, parse_form
from .experiments import write_table
from .factor_sieve import parities, parity_grid
from .ideal_arith import (
    CubicField,
    Ideal,
    build_field,
    mu_ideal,
    norm,
    prime_ideals_up_to,
)
from .postulates import DensityModel, build_sequence, check_postulates_123
from .region_lattice import parse_coset, parse_region
from .sieve_weights import (
    anti_sieve_split,
    brun_pure_weights,
    buchstab_split,
    integer_brun_weights,
    sieve_value,
)
from .vaughan import (
    VaughanParams,
    pairing_bound,
    verify_groupings,
    verify_identity,
    window_flip,
)

__all__ = ["SUITES", "CheckResult", "run_suite"]

# the suites run by "all", in order
_PARTS = ("identities", "postulates", "sieve")
SUITES = _PARTS + ("all",)

_SEED = 20260822

REPORT_HEADER = "check,cases,failures,status,detail"


@dataclass
class CheckResult:
    name: str
    cases: int = 0
    failures: int = 0
    detail: str = ""

    def record(self, ok: bool, detail: Callable[[], str]) -> None:
        """Count one case; keep the detail of the first failure."""
        self.cases += 1
        if not ok:
            self.failures += 1
            if not self.detail:
                self.detail = detail()

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def csv(self) -> str:
        status = "pass" if self.ok else "fail"
        detail = self.detail.replace(",", ";").replace("\n", " ")
        return f"{self.name},{self.cases},{self.failures},{status},{detail}"


# ------------------------------------------------------------- helpers


def _field_pool() -> list[tuple[CubicField, list]]:
    pools = []
    for coeffs in ((1, 0, 0, 2), (1, -1, 0, 1)):
        K = build_field(BinaryCubicForm(*coeffs))
        pools.append((K, sorted(prime_ideals_up_to(K, 80))))
    return pools


def _random_ideal(rng: random.Random, primes: list, max_primes: int = 4) -> Ideal:
    k = rng.randint(0, min(max_primes, len(primes)))
    chosen = rng.sample(primes, k)
    return Ideal.from_factors((q, rng.randint(1, 3)) for q in chosen)


def _random_params(rng: random.Random, q_pool) -> VaughanParams:
    cuts = sorted(rng.randint(1, 600) for _ in range(3))
    den = rng.randint(1, 7)
    y, u, w = (Fraction(c, den) for c in cuts)
    Q = rng.sample(q_pool, rng.randint(0, min(2, len(q_pool))))
    return VaughanParams.make(y, u, w, Q)


def _memo_h(rng: random.Random) -> Callable[[Ideal], int]:
    memo: dict[Ideal, int] = {}

    def h(d: Ideal) -> int:
        if d not in memo:
            memo[d] = rng.randint(-5, 5)
        return memo[d]

    return h


# ------------------------------------------------------------- suites


def suite_identities(rng: random.Random) -> list[CheckResult]:
    pools = _field_pool()
    ident = CheckResult("seven_window_identity")
    grp = CheckResult("window_groupings")
    for _ in range(300):
        K, primes = pools[rng.randrange(len(pools))]
        a = _random_ideal(rng, primes)
        P = _random_params(rng, [q for q, _ in a.factors])
        h = _memo_h(rng)
        ident.record(
            verify_identity(a, h, P),
            lambda: f"a={a!r} params=({P.y};{P.u};{P.w}) Q={sorted(P.Q)!r}",
        )
        grp.record(verify_groupings(a, h, P), lambda: f"a={a!r} params=({P.y};{P.u};{P.w})")

    flip = CheckResult("mobius_window_flip")
    pair = CheckResult("divisor_pairing_bound")
    for _ in range(200):
        K, primes = pools[rng.randrange(len(pools))]
        e = _random_ideal(rng, primes)
        while e.is_unit:
            e = _random_ideal(rng, primes)
        u = Fraction(rng.randint(1, 500), rng.randint(1, 5))
        flip.record(window_flip(e, u).ok, lambda: f"e={e!r} u={u}")
        l = max(q.norm for q, _ in e.factors)
        y = Fraction(rng.randint(1, 400), rng.randint(1, 3))
        lhs, rhs = pairing_bound(e, y, l)
        pair.record(lhs <= rhs, lambda: f"e={e!r} y={y} l={l} lhs={lhs} rhs={rhs}")

    return [ident, grp, flip, pair]


_POSTULATE_CONFIGS = (
    ("1,0,0,2", None),
    ("1,0,0,2", "coset:5,0,1,1;0,0"),
    ("1,-1,0,1", "coset:2,0,1,2;1,0"),
)


def suite_postulates(out_dir: str) -> list[CheckResult]:
    region = parse_region("box:-1,1,-1,1").scale(30)
    results = []
    for k, (form_spec, coset_spec) in enumerate(_POSTULATE_CONFIGS, start=1):
        K = build_field(parse_form(form_spec))
        L = parse_coset(coset_spec) if coset_spec else None
        seq = build_sequence(K, region, L)
        model = DensityModel(K, L)
        report = check_postulates_123(seq, model, 500)
        fails = report.failures()
        detail = fails[0].csv().replace(",", ";") if fails else ""
        results.append(
            CheckResult(f"density_laws_config{k}", len(report.rows), len(fails), detail)
        )
        path = os.path.join(out_dir, f"postulates_{k}.csv")
        write_table(path, report.rows, header="postulate,params,ratio,status")
    return results


def suite_sieve(
    rng: random.Random, corrupt: Optional[Callable] = None
) -> list[CheckResult]:
    # 1. parity grid against per-point trial division
    form = BinaryCubicForm(1, 0, 0, 2)
    region = parse_region("box:-1,1,-1,1").scale(25)
    grid = parity_grid(form, region, keep_arrays=True)
    grid_check = CheckResult("grid_vs_trial_division")
    for y in range(-25, 26):
        for x in range(-25, 26):
            v = form(x, y)
            want = (0, 0, 0) if v == 0 else parities(v)
            got = tuple(int(g[y + 25, x + 25]) for g in (grid.mu, grid.lam, grid.omg))
            grid_check.record(got == want, lambda: f"(x;y)=({x};{y}) got={got} want={want}")

    # 2. Mobius integrity of the weight table (fault-injection target)
    K = build_field(form)
    primes = sorted(prime_ideals_up_to(K, 40))
    W = brun_pure_weights(primes, 200)
    if corrupt is not None:
        corrupt(W)
    weights = CheckResult("weights_are_mobius")
    for d, wt in sorted(W.weights.items(), key=lambda kv: (norm(kv[0]), repr(kv[0]))):
        weights.record(wt == mu_ideal(d), lambda: f"b={d!r} weight={wt} mobius={mu_ideal(d)}")

    # 3. even-truncation upper bound at infinite cut
    trunc = CheckResult("upper_bound_truncation")
    for _ in range(150):
        depth = rng.choice((2, 4, 6))
        Wb = brun_pure_weights(primes[: rng.randint(1, 8)], math.inf, depth)
        b = _random_ideal(rng, primes, max_primes=5)
        s = sieve_value(Wb, b)
        coprime = all(q not in Wb.P for q, _ in b.factors)
        trunc.record(s >= (1 if coprime else 0), lambda: f"b={b!r} depth={depth} value={s}")

    # 4. Buchstab telescope
    buch = CheckResult("buchstab_telescope")
    for _ in range(150):
        depth = rng.choice((2, 4))
        cut = rng.randint(20, 300)
        Wb = brun_pure_weights(primes[: rng.randint(1, 8)], cut, depth)
        b = _random_ideal(rng, primes, max_primes=5)
        try:
            main, tail = buchstab_split(Wb, b)
            err = None if main - tail == 1 else ArithmeticError()
        except (ValueError, ArithmeticError) as exc:
            err = exc
        buch.record(err is None, lambda: f"b={b!r} cut={cut} depth={depth} err={err}")

    # 5. divisor-window exchange (pinned all-ones table + random sparse tables)
    anti = CheckResult("divisor_window_exchange")
    Wi = integer_brun_weights(4, 60, 2)
    F = {(a, b): 1 for a in range(1, 101) for b in range(1, 101)}
    rec = anti_sieve_split(F, 100, Fraction(1, 2), 2, Wi)
    anti.record(
        rec.identity_ok and rec.cov_ok,
        lambda: (
            f"all-ones window={rec.window_sum} weighted={rec.weighted_sum} "
            f"corr={rec.correction} cov={rec.correction_cov}"
        ),
    )
    for _ in range(100):
        table = {
            (rng.randint(1, 400), rng.randint(1, 60)): rng.randint(-3, 3)
            for _ in range(rng.randint(1, 25))
        }
        x = rng.randint(20, 2000)
        alpha = rng.choice(
            (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4), Fraction(1))
        )
        yv = rng.randint(2, 6)
        Wc = integer_brun_weights(yv * yv, rng.randint(yv * yv + 1, 120), 2)
        rec = anti_sieve_split(table, x, alpha, yv, Wc)
        anti.record(
            rec.identity_ok and rec.cov_ok,
            lambda: f"x={x} alpha={alpha} y={yv} table={sorted(table)!r}",
        )

    return [grid_check, weights, trunc, buch, anti]


# ------------------------------------------------------------- driver


def run_suite(
    name: str,
    out_dir: str = "verify_reports",
    echo: Optional[Callable[[str], None]] = None,
    _corrupt: Optional[Callable] = None,
) -> int:
    """Run one suite (or all); write CSV reports; 0 iff every exact check passed."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    os.makedirs(out_dir, exist_ok=True)
    chosen = _PARTS if name == "all" else (name,)
    exit_code = 0
    for suite in chosen:
        rng = random.Random(_SEED)
        if suite == "identities":
            results = suite_identities(rng)
        elif suite == "postulates":
            results = suite_postulates(out_dir)
        else:
            results = suite_sieve(rng, corrupt=_corrupt)
        write_table(os.path.join(out_dir, f"verify_{suite}.csv"), results, header=REPORT_HEADER)
        for res in results:
            if echo is not None:
                status = "PASS" if res.ok else "FAIL"
                echo(f"[{status}] {suite}:{res.name} ({res.cases} cases)")
                if not res.ok:
                    echo(f"    first counterexample: {res.detail}")
            if not res.ok:
                exit_code = 1
    return exit_code
