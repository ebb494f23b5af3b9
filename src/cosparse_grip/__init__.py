"""Restricted-isometry analysis for cosparse recovery.

Measures how far a sensing matrix is from an isometry on the signals a
redundant analysis operator marks as sparse, derives the recovery
constants that such a bound implies, solves the matching l1 programs by
a primal-dual splitting (or a dense simplex when a vertex certificate is
wanted), and checks the implied inequalities on randomized instances.
"""

from .campaign import (
    EXPERIMENTS,
    Budget,
    CampaignResult,
    CampaignTrialError,
    ConfigError,
    ExperimentConfig,
    run,
    trial_seed,
    write_outputs,
)
from .grip import (
    BoundConstants,
    BudgetExceededError,
    GripReport,
    RhoEstimate,
    bound_constants,
    delta_exact,
    delta_monte_carlo,
    rho_exact,
)
from .model import (
    DICTIONARY_KINDS,
    SENSING_KINDS,
    Dictionary,
    DictionaryRankError,
    InfeasibleCosparsityError,
    SensingMatrix,
    SupportSet,
    load_dictionary_csv,
    load_sensing_csv,
    make_dictionary,
    make_sensing_matrix,
    sample_cosparse_signal,
    save_matrix_csv,
    sigma_k,
    top_k_support,
)
from .simplex import LpInfeasibleError, LpSolution, LpUnboundedError, solve_standard_lp
from .solvers import (
    CONSTRAINT_KINDS,
    ConstraintSpec,
    InfeasibleConstraintError,
    RecoveryResult,
    SolverOptions,
    solve_analysis_l1,
    solve_lp_certified,
    solve_synthesis_l1,
)
from .verify import BoundReport, check_corollary1, check_corollary2, check_theorem1

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "DICTIONARY_KINDS",
    "SENSING_KINDS",
    "Dictionary",
    "DictionaryRankError",
    "SensingMatrix",
    "SupportSet",
    "InfeasibleCosparsityError",
    "make_dictionary",
    "make_sensing_matrix",
    "sample_cosparse_signal",
    "top_k_support",
    "sigma_k",
    "save_matrix_csv",
    "load_dictionary_csv",
    "load_sensing_csv",
    # isometry constants
    "GripReport",
    "RhoEstimate",
    "BoundConstants",
    "BudgetExceededError",
    "delta_exact",
    "delta_monte_carlo",
    "rho_exact",
    "bound_constants",
    # solvers
    "CONSTRAINT_KINDS",
    "ConstraintSpec",
    "SolverOptions",
    "RecoveryResult",
    "InfeasibleConstraintError",
    "solve_analysis_l1",
    "solve_synthesis_l1",
    "solve_lp_certified",
    "LpSolution",
    "LpInfeasibleError",
    "LpUnboundedError",
    "solve_standard_lp",
    # bound checks
    "BoundReport",
    "check_corollary1",
    "check_corollary2",
    "check_theorem1",
    # campaigns
    "EXPERIMENTS",
    "Budget",
    "ExperimentConfig",
    "CampaignResult",
    "CampaignTrialError",
    "ConfigError",
    "trial_seed",
    "run",
    "write_outputs",
]
