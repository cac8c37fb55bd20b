"""Conserved-sum linear evolution of competing species.

A library and CLI for simulating populations that share one fixed
resource: per-step dynamics under unit-column-sum matrices, spectral
analysis of the stationary mix and convergence rate, event-driven
species elimination with dimensional reduction, backward-evolution
horizons, and the exact two-species closed form.
"""

from .core import (
    CONSTRUCTION_TOL,
    EIG_TOL,
    ZERO_TOL,
    EvolutionMatrix,
    GeneratorMatrix,
    MatrixClass,
    MatrixKind,
    PopulationVector,
    classify_matrix,
    make_population,
    matrix_from_generator,
    random_competitive,
    random_stochastic,
    two_species_matrix,
)
from .dynamics import (
    ActiveSystem,
    BackwardReport,
    EliminationEvent,
    ScanRow,
    SimulationConfig,
    TerminationReason,
    Trajectory,
    add_species,
    crossing_fraction,
    eliminate_species,
    elimination_time_scan,
    evolve,
    evolve_backward,
    growth_unconstrained,
    step,
)
from .scenario import Scenario, load_scenario, save_scenario, scenario_from_dict, scenario_to_dict
from .spectral import (
    BiorthogonalityReport,
    SpectralSummary,
    check_biorthogonality,
    convergence_rate,
    eigendecompose,
    stationary_by_iteration,
)
from .two_species import (
    ClosedFormSolution,
    CrosscheckReport,
    Regime,
    TwoSpeciesParams,
    Winner,
    classify_regime,
    closed_form,
    closed_form_solution,
    crosscheck,
    predict_winner,
)

__version__ = "0.1.0"

__all__ = [
    "CONSTRUCTION_TOL",
    "EIG_TOL",
    "ZERO_TOL",
    "ActiveSystem",
    "BackwardReport",
    "BiorthogonalityReport",
    "ClosedFormSolution",
    "CrosscheckReport",
    "EliminationEvent",
    "EvolutionMatrix",
    "GeneratorMatrix",
    "MatrixClass",
    "MatrixKind",
    "PopulationVector",
    "Regime",
    "ScanRow",
    "Scenario",
    "SimulationConfig",
    "SpectralSummary",
    "TerminationReason",
    "Trajectory",
    "TwoSpeciesParams",
    "Winner",
    "add_species",
    "check_biorthogonality",
    "classify_matrix",
    "classify_regime",
    "closed_form",
    "closed_form_solution",
    "convergence_rate",
    "crosscheck",
    "crossing_fraction",
    "eigendecompose",
    "eliminate_species",
    "elimination_time_scan",
    "evolve",
    "evolve_backward",
    "growth_unconstrained",
    "load_scenario",
    "make_population",
    "matrix_from_generator",
    "predict_winner",
    "random_competitive",
    "random_stochastic",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "stationary_by_iteration",
    "step",
    "two_species_matrix",
]
