"""Discrete-time staged-progression epidemic models.

Simulation and analysis toolkit for S -> I_1 -> ... -> I_n -> R dynamics
with a general concave incidence function: exact stepping, threshold
quantities via the stage-matrix spectral theory, final-size equation and
bounds, prevalence-shape classification, and contact-composed incidence.
"""

from .incidence import (
    CustomIncidence,
    DomainError,
    ExponentialIncidence,
    RegularityReport,
    IncidenceModel,
    LastClassIncidence,
    LinearIncidence,
    SplitExponentialIncidence,
    validate_regularity,
)
from .model import (
    DynamicsError,
    EpidemicState,
    StageParams,
    StoppingRule,
    Trajectory,
    simulate,
    step,
)
from .spectral import (
    PerronData,
    StageMatrixDecomposition,
    build_B,
    delta,
    nrv,
    perron,
    r0,
    sign_identities_check,
)
from .asymptotics import (
    FinalSizeBounds,
    FinalSizeResult,
    final_size_bounds,
    final_size_equation_solve,
    final_size_simulate,
    limit_direction,
    monotonicity_onset,
    tail_sum_check,
)
from .prevalence import (
    PrevalenceShape,
    classify_shape,
    initial_rise_predicate_general,
    is_rise_then_fall,
    outbreak_predicate_lastclass,
    monotone_decay_ratio_check,
    threshold_decay_predicate,
)
from .contacts import (
    ComposedIncidence,
    ContactDistribution,
    compose_incidence,
    poisson_incidence,
    r0_with_contacts,
)
from .scenario import Scenario, figure_scenarios, load_scenario, save_scenario

__version__ = "0.1.0"

__all__ = [
    "CustomIncidence", "DomainError", "ExponentialIncidence", "RegularityReport",
    "IncidenceModel", "LastClassIncidence", "LinearIncidence",
    "SplitExponentialIncidence", "validate_regularity",
    "DynamicsError", "EpidemicState", "StageParams", "StoppingRule", "Trajectory",
    "simulate", "step",
    "PerronData", "StageMatrixDecomposition", "build_B",
    "delta", "nrv", "perron",
    "r0", "sign_identities_check",
    "FinalSizeBounds", "FinalSizeResult", "final_size_bounds",
    "final_size_equation_solve", "final_size_simulate", "limit_direction",
    "monotonicity_onset", "tail_sum_check",
    "PrevalenceShape", "classify_shape", "initial_rise_predicate_general",
    "is_rise_then_fall", "outbreak_predicate_lastclass",
    "monotone_decay_ratio_check", "threshold_decay_predicate",
    "ComposedIncidence", "ContactDistribution",
    "compose_incidence", "poisson_incidence", "r0_with_contacts",
    "Scenario", "figure_scenarios", "load_scenario", "save_scenario",
]
