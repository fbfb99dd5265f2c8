"""Equity-weighted AC optimal power flow under resource scarcity."""

from .casemodel import (
    Aggregator, Bus, CaseData, Generator, Line,
    builtin_case, load_case, save_case, scale_ses, validate_case,
)
from .welfare import (
    WelfareCoefficients, gen_cost, marginal_cost, marginal_satisfaction,
    normalized_satisfaction, satisfaction, social_objective, welfare_coefficients,
)
from .acnetwork import network_losses
from .formulation import Problem, build_problem
from .solver import (
    KKTReport, Solution, SolverOptions, copper_plate_oracle,
    finite_difference_audit, kkt_check, solve,
)
from .harness import (
    Metrics, SweepRecord, SweepResult, compute_metrics, emit, run_solve, ses_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
