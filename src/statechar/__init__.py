"""statechar: state-characteristic rational-inattention solver and test battery.

A decision-maker chooses an information policy -- a joint distribution over
hedonic characteristics and payoff states -- trading expected utility against
an information cost with two components: mutual information between
characteristic and state, and divergence of the characteristic marginal from
an exogenous prior.  The package computes the unique optimum by maximizing a
strictly concave envelope over the characteristic marginal with a
Blahut-Arimoto-type fixed point, then assembles the optimal policy in closed
form from it, with a duality-gap certificate.  The two-marginal entropic
transport problem at a fixed marginal is solved by stabilized Sinkhorn
(``sinkhorn_solve``, the ``bridge`` command).  The package also ships
numerical checks for every structural property of the model.
"""

from .model import (
    ConvergenceError,
    Coupling,
    Marginal,
    ProblemInstance,
    SurprisalMatrix,
    ValidationError,
    coupling_from_marginal,
    information_cost,
    kl_divergence,
    log_partition,
    make_instance,
    mnl_ccp,
    mutual_information,
    objective_value,
    partition_function,
    surprisal_matrix,
    validate_instance,
)
from .bridge import (
    BridgeSolution,
    Potentials,
    constrained_value,
    dual_value,
    duality_gap,
    envelope_derivative,
    schrodinger_residual,
    sinkhorn_solve,
    standard_a,
)
from .optimize import (
    OracleResult,
    OuterResult,
    Solution,
    brute_force_oracle,
    foc_multiplier,
    full_solve,
    jensen_envelope,
    maxwell_boltzmann_ccp,
    outer_solve,
)
from .diagnostics import (
    DiagnosticsReport,
    density_bounds,
    directional_derivative_check,
    fso_check,
    gibbs_check,
    jensen_gap,
    mnl_residual,
    product_coupling,
    run_diagnostics,
)
from .entry import (
    EntryPair,
    EntryReport,
    constancy_test,
    counts_prior,
    double_ratio,
    entry_report,
    identify_alpha,
    solve_entry_pair,
)
from .io import gen_instance, generated_instance, load_instance

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "Coupling",
    "Marginal",
    "ProblemInstance",
    "SurprisalMatrix",
    "ValidationError",
    "coupling_from_marginal",
    "information_cost",
    "kl_divergence",
    "log_partition",
    "make_instance",
    "mnl_ccp",
    "mutual_information",
    "objective_value",
    "partition_function",
    "surprisal_matrix",
    "validate_instance",
    "BridgeSolution",
    "Potentials",
    "constrained_value",
    "dual_value",
    "duality_gap",
    "envelope_derivative",
    "schrodinger_residual",
    "sinkhorn_solve",
    "standard_a",
    "OracleResult",
    "OuterResult",
    "Solution",
    "brute_force_oracle",
    "foc_multiplier",
    "full_solve",
    "jensen_envelope",
    "maxwell_boltzmann_ccp",
    "outer_solve",
    "DiagnosticsReport",
    "density_bounds",
    "directional_derivative_check",
    "fso_check",
    "gibbs_check",
    "jensen_gap",
    "mnl_residual",
    "product_coupling",
    "run_diagnostics",
    "EntryPair",
    "EntryReport",
    "constancy_test",
    "counts_prior",
    "double_ratio",
    "entry_report",
    "identify_alpha",
    "solve_entry_pair",
    "gen_instance",
    "generated_instance",
    "load_instance",
    "__version__",
]
