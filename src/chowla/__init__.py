"""Averages of multiplicative parity functions over binary cubic forms.

Exact machinery for studying the cancellation of the Mobius and Liouville
functions (and the parity of the prime-divisor count) along the values of
an irreducible integral binary cubic form: a grid parity sieve over convex
regions and lattice cosets, ideal arithmetic in the associated cubic field,
divisor-window identities of Vaughan type, Brun/Buchstab sieve weights,
density-law checking for the sifted value sequences, and a CLI producing
convergence tables against a slowly-varying envelope.

The package root exports what the CLI, the acceptance gate and the
benchmark use; everything else is imported from its module.
"""

from .cubic_form import BinaryCubicForm, ExactRangeError, parse_form
from .experiments import ExperimentConfig, chowla_average, convergence_table, write_table
from .factor_sieve import SieveCorruptionError, parity_grid, parity_range, sieve_grid
from .ideal_arith import Ideal, build_field, compute_D0, ideal_from_point, prime_ideals_up_to
from .postulates import DensityModel, build_sequence, check_postulates_123, remainder
from .region_lattice import parse_coset, parse_region
from .sieve_weights import (
    anti_sieve_split,
    brun_pure_weights,
    buchstab_split,
    integer_brun_weights,
)
from .vaughan import (
    VaughanParams,
    pairing_bound,
    verify_groupings,
    verify_identity,
    window_flip,
)
from .verify import run_suite

__version__ = "0.1.0"
