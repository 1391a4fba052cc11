"""Single-leg revenue management with untrusted demand advice.

Public API re-exports: domain model, the consistency/competitiveness LP,
online booking policies, protection-level optimization, frontier sweeps,
and Monte-Carlo experiments.
"""

from .core import (
    Advice, FareLadder, Instance, advice_opt, bq_bound, check_gamma, count_distance, count_opt,
    hard_counts, make_advice, make_fare_ladder, make_instance, opt_revenue,
)
from .experiments import NoiseConfig, average_cr, robustness_sweep, sample_counts
from .frontier import (
    FrontierCurve, advice_grid, consistency_frontier, default_gamma_grid, relative_suboptimality,
)
from .lp import (
    LPModel, LPSolution, build_pareto_lp, optimal_consistency, solve_lp, water_fill_plan,
)
from .policies import (
    PolicyTrace, ProtectionLevels, SwitchPlan, bq_levels, derive_switch_plan, run_lp_optimal,
    run_protection_policy, run_relaxed_optimal, switch_block_revenue,
)
from .protect import LevelsCandidate, grow_levels_for_beta, optimal_protection_levels
from .simplex import SimplexResult, SolverError, solve_simplex

__version__ = "0.1.0"
