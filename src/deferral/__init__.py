"""Two-stage fundamental choice under social pressure.

A library and CLI for the two-stage model of once-in-a-lifetime choices:
an indecisive first stage that keeps the alternatives undominated by personal
utility and current social distance (the consideration set), a decisive
second stage that maximizes comprehensive utility inside it, and a strategic
layer with equilibria before and after deferral plus the welfare loss that
deferral can cause.
"""

from .choice import (
    ChoiceResult,
    SequentialCriteriaCertificate,
    TrapReport,
    comprehensive_value,
    comprehensive_values,
    detect_trap,
    second_stage_choice,
    two_criteria_certificate,
    unconstrained_optimum,
)
from .consideration import (
    ClosedInterval,
    DominanceVerdict,
    consideration_interval,
    maximal_set_grid,
    one_many_compare,
)
from .errors import (
    DeferralError,
    DomainError,
    GridLookupError,
    MethodUnsupported,
    PreconditionViolated,
    ScenarioError,
    SpecValidationError,
)
from .game import (
    BestResponseCurve,
    EquilibriumCertificate,
    EquilibriumKind,
    aggregate_beliefs,
    aggregate_choices,
    best_response,
    best_response_curve,
    classify_profile,
    deferral_best_response,
    find_equilibria,
    find_equilibria_after_deferral,
    is_exact_family,
    kinked_concave_argmax,
    payoff,
)
from .model import (
    AgentSpec,
    BeliefMixture,
    ComprehensiveUtilityForm,
    FiniteRandomVariable,
    GameSpec,
    Grid,
    LinearCost,
    MeanChoice,
    PowerCost,
    Quadratic,
    Tabulated,
    Violation,
    WeightedChoice,
    belief_mean,
    eval_cost,
    eval_utility,
    validate,
)
from .scenario import Scenario, load_profile, load_scenario, parse_scenario
from .welfare import WelfareReport, deferral_loss, pareto_dominates, welfare_gap

__version__ = "0.1.0"

__all__ = [
    "AgentSpec",
    "BeliefMixture",
    "BestResponseCurve",
    "ChoiceResult",
    "ClosedInterval",
    "ComprehensiveUtilityForm",
    "DeferralError",
    "DominanceVerdict",
    "DomainError",
    "EquilibriumCertificate",
    "EquilibriumKind",
    "FiniteRandomVariable",
    "GameSpec",
    "Grid",
    "GridLookupError",
    "LinearCost",
    "MeanChoice",
    "MethodUnsupported",
    "PowerCost",
    "PreconditionViolated",
    "Quadratic",
    "Scenario",
    "ScenarioError",
    "SequentialCriteriaCertificate",
    "SpecValidationError",
    "Tabulated",
    "TrapReport",
    "Violation",
    "WeightedChoice",
    "WelfareReport",
    "aggregate_beliefs",
    "aggregate_choices",
    "belief_mean",
    "best_response",
    "best_response_curve",
    "classify_profile",
    "comprehensive_value",
    "comprehensive_values",
    "consideration_interval",
    "deferral_best_response",
    "deferral_loss",
    "detect_trap",
    "eval_cost",
    "eval_utility",
    "find_equilibria",
    "find_equilibria_after_deferral",
    "is_exact_family",
    "kinked_concave_argmax",
    "load_profile",
    "load_scenario",
    "maximal_set_grid",
    "one_many_compare",
    "pareto_dominates",
    "parse_scenario",
    "payoff",
    "second_stage_choice",
    "two_criteria_certificate",
    "unconstrained_optimum",
    "validate",
    "welfare_gap",
]
