"""Averages of multiplicative parity functions over binary cubic forms.

Exact machinery for studying the cancellation of the Mobius and Liouville
functions (and the parity of the prime-divisor count) along the values of
an irreducible integral binary cubic form: a grid parity sieve over convex
regions and lattice cosets, ideal arithmetic in the associated cubic field,
divisor-window identities of Vaughan type, Brun/Buchstab sieve weights,
density-law checking for the sifted value sequences, and a CLI producing
convergence tables against a slowly-varying envelope.
"""

from .cubic_form import (
    BinaryCubicForm,
    ExactRangeError,
    is_irreducible,
    parse_form,
)
from .experiments import (
    CSV_HEADER,
    ConvergenceRow,
    ExperimentConfig,
    canonical_alpha,
    chowla_average,
    convergence_table,
    envelope,
    write_table,
)
from .factor_sieve import (
    Factorization,
    ParityGrid,
    SieveCorruptionError,
    cofactor_resolve,
    parities,
    parity_grid,
    parity_range,
    sieve_grid,
)
from .ideal_arith import (
    CubicField,
    Ideal,
    IndexBoundError,
    PrimeIdeal,
    build_field,
    compute_D0,
    factor_prime,
    ideal_from_point,
    ideal_lattice,
    mu_ideal,
    norm,
    point_lattice,
    prime_ideals_up_to,
    valuation_at_point,
)
from .postulates import (
    DensityModel,
    SequenceAF,
    build_sequence,
    check_postulates_123,
    g_density,
    remainder,
)
from .region_lattice import (
    ConvexRegion,
    RowForm,
    parse_coset,
    parse_region,
)
from .sieve_weights import (
    AntiSieveRecord,
    IntegerWeights,
    SieveWeights,
    anti_sieve_split,
    brun_pure_weights,
    buchstab_split,
    default_depth,
    integer_brun_weights,
    sieve_value,
)
from .vaughan import (
    VaughanParams,
    beta_all,
    combine,
    pairing_bound,
    verify_identity,
    verify_groupings,
    window_flip,
)
from .verify import run_suite

__version__ = "0.1.0"
