"""cutcover: cover every small cut of a capacitated graph with priced links.

A primal-dual solver (phased uniform dual growth plus reverse delete) for
the problem of covering all non-trivial cuts of capacity below a threshold,
together with an exact branch-and-bound oracle and a certification suite
that audits the structural facts the solver's factor-5 guarantee rests on:
disjoint cores, sparse crossing, the remainder properties of residual
families, and the two-per-core bound on crossing witness sets.
"""

from .errors import (
    CutCoverError,
    GenerationExhausted,
    GroundSetTooLarge,
    Infeasible,
    SearchBudgetExceeded,
    WitnessSearchExhausted,
)
from .graph import (
    CapGraph,
    Instance,
    Link,
    NodeSet,
    enumerate_small_cuts,
)
from .family import (
    PropertyReport,
    SetFamily,
    check_disjoint_cores,
    check_gamma,
    check_gamma_star,
    check_pliable,
    check_sparse_crossing,
    check_structural_submodularity,
    check_symmetry,
    residual,
)
from .pd import PhaseTrace, SolveResult, dual_feasible, reverse_delete, solve
from .certify import (
    AuditReport,
    audit_run,
    crossing_density_audit,
    find_witness_laminar,
)
from .exact import ExactResult, exact_optimum
from .gen import RunConfig, gen_instance

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "CapGraph",
    "CutCoverError",
    "ExactResult",
    "GenerationExhausted",
    "GroundSetTooLarge",
    "Infeasible",
    "Instance",
    "Link",
    "NodeSet",
    "PhaseTrace",
    "PropertyReport",
    "RunConfig",
    "SearchBudgetExceeded",
    "SetFamily",
    "SolveResult",
    "WitnessSearchExhausted",
    "audit_run",
    "check_disjoint_cores",
    "check_gamma",
    "check_gamma_star",
    "check_pliable",
    "check_sparse_crossing",
    "check_structural_submodularity",
    "check_symmetry",
    "crossing_density_audit",
    "dual_feasible",
    "enumerate_small_cuts",
    "exact_optimum",
    "find_witness_laminar",
    "gen_instance",
    "residual",
    "reverse_delete",
    "solve",
]
