"""Krylov-subspace quantum evolution with echo-based error certification.

Approximates ``exp(-i H t) |psi>`` inside a low-dimensional Lanczos subspace
and certifies the committed infidelity with cheap chain-echo estimators,
including an adaptive time-stepping driver and a CSV experiment harness.
"""

from .estimators import (
    averaged_coefficients,
    echo_general,
    estimate_extra_site_averaged,
    estimate_extra_site_exact,
    estimate_oracle,
    estimate_park_light,
    estimate_toeplitz_analytic,
    extra_site_band,
    oracle_infidelities,
)
from .lanczos import KrylovBasis, extend_one, lanczos_iterate
from .linalg import (
    DenseOperator,
    LinearOperator,
    SymmetricTridiagonal,
    TridiagonalEigen,
    basis_state,
    eig_sym_tridiagonal,
    exact_evolve_dense,
)
from .models import (
    IsingParams,
    goe_sample,
    gue_sample,
    ising_operator,
    random_state,
)
from .propagator import (
    krylov_evolve,
    project_profile,
    reduced_coefficients,
    true_infidelity,
)
from .stateio import read_state, write_state
from .stepper import (
    BudgetUnreachableError,
    EvolutionReport,
    StepRecord,
    evolve_adaptive,
    max_step_for_tolerance,
)
from .toeplitz import toeplitz_echo

__version__ = "0.1.0"
