"""Transience and recurrence of one-dimensional symmetric Levy processes.

Classifies symmetric Levy processes and random walks through convergence
criteria on the Levy measure (inverse-cubic tail series/integral,
Sato-Shepp second-moment rate, Chung-Fuchs exponent), cross-validated by
an explicit dyadic unit flow on the long-range lattice network with a
closed-form energy bound, effective-resistance solves, lattice
discretization diagnostics, and seeded Monte Carlo sojourn estimates.
"""

__version__ = "0.1.0"

from .measures import (
    DomainError,
    LevyTriplet,
    Normalization,
    NumericError,
    PowerPiece,
    SymmetricJumpLaw,
    as_finite_measure,
    char_exponent,
    make_gaussian_density,
    make_lattice_table,
    make_multi_index_lattice,
    make_piecewise_power,
    make_power_law_lattice,
    make_stable_triplet,
    make_walk_triplet,
    moment,
)
from .tails import PowerTailComponent, TailDescriptor, TailKind
from .verdicts import (
    Basis,
    Classification,
    ConvergenceVerdict,
    CriterionEvidence,
    Interval,
    Status,
    TransienceVerdict,
)
from .criteria import (
    HypothesisViolationError,
    chung_fuchs_criterion,
    classify,
    inverse_cubic_density_criterion,
    inverse_cubic_lattice_criterion,
    sato_shepp_criterion,
    tail_status,
)
from .network import (
    FlowReport,
    NetworkSlice,
    ResistanceProfile,
    block_index,
    build_slice,
    dyadic_energy_bound,
    dyadic_flow,
    effective_resistance,
    effective_resistance_bounds,
    flow_energy,
    resistance_profile,
    verify_flow,
)
from .discretize import (
    CharTriple,
    ConvergenceTable,
    JensenGap,
    bin_density,
    characteristics,
    convergence_report,
    default_test_functions,
    jensen_gap,
)
from .simulate import (
    LatticeSampler,
    SimulationCapError,
    TrajectoryStats,
    even_chain_batch,
    even_chain_criterion,
    sojourn_estimate,
)

__all__ = [
    # measures
    "DomainError", "LevyTriplet", "Normalization", "NumericError", "PowerPiece",
    "SymmetricJumpLaw", "as_finite_measure", "char_exponent", "make_gaussian_density",
    "make_lattice_table", "make_multi_index_lattice", "make_piecewise_power",
    "make_power_law_lattice", "make_stable_triplet", "make_walk_triplet", "moment",
    # tails and verdicts
    "PowerTailComponent", "TailDescriptor", "TailKind", "Basis", "Classification",
    "ConvergenceVerdict", "CriterionEvidence", "Interval", "Status", "TransienceVerdict",
    # criteria
    "HypothesisViolationError", "chung_fuchs_criterion", "classify",
    "inverse_cubic_density_criterion", "inverse_cubic_lattice_criterion",
    "sato_shepp_criterion", "tail_status",
    # network
    "FlowReport", "NetworkSlice", "ResistanceProfile", "block_index", "build_slice",
    "dyadic_energy_bound", "dyadic_flow", "effective_resistance",
    "effective_resistance_bounds", "flow_energy", "resistance_profile", "verify_flow",
    # discretize
    "CharTriple", "ConvergenceTable", "JensenGap", "bin_density", "characteristics",
    "convergence_report", "default_test_functions", "jensen_gap",
    # simulate
    "LatticeSampler", "SimulationCapError", "TrajectoryStats", "even_chain_batch",
    "even_chain_criterion", "sojourn_estimate",
]
