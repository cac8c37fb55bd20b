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
    PopulationVector,
    make_population,
    random_competitive,
    random_stochastic,
    two_species_matrix,
)
from .dynamics import (
    BackwardReport,
    EliminationEvent,
    SimulationConfig,
    TerminationReason,
    crossing_fraction,
    elimination_time_scan,
    evolve,
    evolve_backward,
)
from .scenario import Scenario, load_scenario, scenario_from_dict
from .spectral import (
    SpectralSummary,
    check_biorthogonality,
    eigendecompose,
    stationary_by_iteration,
)
from .two_species import (
    Regime,
    TwoSpeciesParams,
    Winner,
    classify_regime,
    closed_form,
    predict_winner,
)

__version__ = "0.1.0"

__all__ = [
    "CONSTRUCTION_TOL",
    "EIG_TOL",
    "ZERO_TOL",
    "BackwardReport",
    "EliminationEvent",
    "EvolutionMatrix",
    "PopulationVector",
    "Regime",
    "Scenario",
    "SimulationConfig",
    "SpectralSummary",
    "TerminationReason",
    "TwoSpeciesParams",
    "Winner",
    "check_biorthogonality",
    "classify_regime",
    "closed_form",
    "crossing_fraction",
    "eigendecompose",
    "elimination_time_scan",
    "evolve",
    "evolve_backward",
    "load_scenario",
    "make_population",
    "predict_winner",
    "random_competitive",
    "random_stochastic",
    "scenario_from_dict",
    "stationary_by_iteration",
    "two_species_matrix",
]
