"""The paper's core contribution: QoE model, MPC, RobustMPC, FastMPC."""

from .qoe import QoEBreakdown, QoEWeights, compute_qoe
from .horizon import (
    HorizonProblem,
    HorizonSolution,
    solve_horizon,
    solve_horizon_dp,
    solve_horizon_enumerate,
    solve_horizon_reference,
    solve_startup,
)
from .kernel import build_table_decisions
from .mpc import DEFAULT_HORIZON, MPCController, make_mpc_opt
from .robust import RobustMPCController
from .table import Binning, DecisionTable, RunLengthEncodedTable, TableSizeReport
from .fastmpc import (
    FastMPCConfig,
    FastMPCController,
    build_decision_table,
    clear_table_cache,
    table_size_sweep,
)
from .mdp import MDPController, ThroughputMarkovModel
from .planner import OfflineBeamPlanner, PlanResult
from .offline import (
    CumulativeBits,
    exhaustive_optimal,
    fluid_upper_bound,
    normalized_qoe,
    simulate_fixed_plan,
)

__all__ = [
    "QoEBreakdown",
    "QoEWeights",
    "compute_qoe",
    "HorizonProblem",
    "HorizonSolution",
    "solve_horizon",
    "solve_horizon_reference",
    "solve_startup",
    "build_table_decisions",
    "DEFAULT_HORIZON",
    "MPCController",
    "make_mpc_opt",
    "RobustMPCController",
    "Binning",
    "DecisionTable",
    "RunLengthEncodedTable",
    "TableSizeReport",
    "FastMPCConfig",
    "FastMPCController",
    "build_decision_table",
    "clear_table_cache",
    "table_size_sweep",
    "MDPController",
    "ThroughputMarkovModel",
    "OfflineBeamPlanner",
    "PlanResult",
    "CumulativeBits",
    "exhaustive_optimal",
    "fluid_upper_bound",
    "normalized_qoe",
    "simulate_fixed_plan",
]
