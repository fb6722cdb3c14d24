"""Sliding-window EIRP budgets and smooth EIRP control.

Library plus simulation CLI for keeping windowed-average EIRP consumption
under a configured threshold while a minimum EIRP level stays guaranteed:
exact and conservative budget trackers, a drift-plus-penalty controller with
greedy and cautious baselines, a sparse Zipf traffic model, and the closed
loop tying them together.
"""

from .budget import BudgetState, ConservativeBudgetState, EmfConfig, budget_from_omega
from .policy import POLICY_KINDS, CautiousPolicy, DppConfig, DppPolicy, GreedyPolicy
from .sim import (
    ComplianceReport,
    SimConfig,
    SimTrace,
    compare_budgets,
    run_simulation,
    score_trace,
    sweep_v,
    verify_compliance,
)
from .traffic import TrafficConfig, TrafficModel

__version__ = "0.1.0"

__all__ = [
    "BudgetState",
    "CautiousPolicy",
    "ComplianceReport",
    "ConservativeBudgetState",
    "DppConfig",
    "DppPolicy",
    "EmfConfig",
    "GreedyPolicy",
    "POLICY_KINDS",
    "SimConfig",
    "SimTrace",
    "TrafficConfig",
    "TrafficModel",
    "budget_from_omega",
    "compare_budgets",
    "run_simulation",
    "score_trace",
    "sweep_v",
    "verify_compliance",
    "__version__",
]
