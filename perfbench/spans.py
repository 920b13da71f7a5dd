"""Per-layer spans recorded from outside the program.

``install()`` wraps the listed functions of each ``chowla`` module and
rebinds every ``chowla.*`` module attribute that holds the same function
object, so a name imported into another module (``roots_mod_p`` in
``factor_sieve``, ``parity_grid`` in ``verify``) is traced too.
``ConvexRegion.row_extent`` is wrapped on the class.

Calls are aggregated per (span, parent span) in memory, one table per
thread, and merged by ``Tracer.table()``.  A span's self time is its
duration minus the time of the spans it called on the same thread.  Spans
in pool threads get the parent ``(thread)`` and are not subtracted from
the span that waits on the pool.

``norm``, ``Ideal.divides`` and ``Ideal.valuation`` run millions of times
and are not wrapped: ``postulates.A_d_calls`` stands in for them.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# (module, function) pairs, one per layer the benchmark reports.
SPANS = (
    ("primes", "primes_up_to"),
    ("primes", "factor_int"),
    ("polymod", "roots_mod_p"),
    ("polymod", "factor_cubic_mod_p"),
    ("ideal_arith", "factor_prime"),
    ("ideal_arith", "ideal_from_point"),
    ("ideal_arith", "prime_ideals_up_to"),
    ("factor_sieve", "parity_grid"),
    ("factor_sieve", "sieve_grid"),
    ("factor_sieve", "cofactor_resolve"),
    ("region_lattice", "row_extent"),
    ("postulates", "build_sequence"),
    ("postulates", "A_d"),
    ("postulates", "remainder"),
    ("postulates", "check_postulates_123"),
    ("postulates", "g_density"),
    ("vaughan", "verify_identity"),
    ("vaughan", "verify_groupings"),
    ("vaughan", "window_flip"),
    ("vaughan", "pairing_bound"),
    ("sieve_weights", "brun_pure_weights"),
    ("sieve_weights", "buchstab_split"),
    ("sieve_weights", "anti_sieve_split"),
    ("experiments", "convergence_table"),
    ("experiments", "chowla_average"),
    ("verify", "suite_identities"),
    ("verify", "suite_postulates"),
    ("verify", "suite_sieve"),
    ("cli", "main"),
)

COUNTERS = (
    "ideal_arith.factor_prime_cache_hits",
    "factor_sieve.cells",
)

THREAD_PARENT = "(thread)"


class Tracer:
    """Span tables and counters of one traced process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[bool, dict]] = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            is_main = threading.current_thread() is threading.main_thread()
            st = self._local.state = ([], {}, is_main)
            with self._lock:
                self._threads.append((is_main, st[1]))
        return st

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack, table, is_main = self._state()
            parent = stack[-1][0] if stack else ("" if is_main else THREAD_PARENT)
            outermost = all(frame[0] != name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = table.get((name, parent))
                if rec is None:
                    rec = table[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                if outermost:
                    rec[1] += dt
                rec[2] += dt - frame[1]

        return span

    def table(self) -> list[dict]:
        """Merged rows {span, parent, main, calls, total_s, self_s}."""
        merged: dict = {}
        with self._lock:
            threads = list(self._threads)
        for is_main, table in threads:
            for (name, parent), (calls, total, self_t) in table.items():
                rec = merged.setdefault((name, parent, is_main), [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_t
        return [
            {"span": n, "parent": p, "main": m, "calls": c, "total_s": t, "self_s": s}
            for (n, p, m), (c, t, s) in sorted(merged.items())
        ]


def install() -> Tracer:
    """Wrap every span in SPANS and the two counters; returns the tracer."""
    import chowla  # noqa: F401  (loads every chowla module)
    from chowla import factor_sieve, ideal_arith
    from chowla.region_lattice import ConvexRegion

    tracer = Tracer()
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "chowla" or name.startswith("chowla."))]

    def rebind(orig, replacement):
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, replacement)

    for mod_name, fn_name in SPANS:
        name = f"{mod_name}.{fn_name}"
        if fn_name == "row_extent":
            ConvexRegion.row_extent = tracer.wrap(name, ConvexRegion.row_extent)
            continue
        orig = getattr(sys.modules[f"chowla.{mod_name}"], fn_name)
        rebind(orig, tracer.wrap(name, orig))

    counters = tracer.counters
    traced_factor_prime = ideal_arith.factor_prime

    @functools.wraps(traced_factor_prime)
    def factor_prime(K, p):
        if p in K._factor_cache:
            counters["ideal_arith.factor_prime_cache_hits"] += 1
        return traced_factor_prime(K, p)

    rebind(traced_factor_prime, factor_prime)

    make_spec = factor_sieve._make_spec

    def counted_make_spec(*args):
        spec = make_spec(*args)
        if spec is not None:
            counters["factor_sieve.cells"] += spec.cells
        return spec

    factor_sieve._make_spec = counted_make_spec
    return tracer
