"""Nash inducibility analysis for linear-quadratic differential games.

Given a plant and a stabilizing feedback profile, decide whether cost
matrices exist that make the profile a feedback Nash equilibrium, recover
such matrices when they do, and cross-check the frequency-domain verdict
against a time-domain feasibility oracle.
"""

from .numerics import DimensionError, NumericalFailureError
from .realization import (
    GameSystem,
    StrategyProfile,
    closed_loop,
    is_stabilizing,
    reduced_system,
)
from .inverse import (
    PlayerAnalysis,
    RankViolation,
    analyze_player,
)
from .forward import (
    CertificateSet,
    CostParameters,
    coupled_are_residuals,
    newton_kleinman,
    solve_coupled_are,
    verify_nash,
)
from .feasibility import (
    FeasibilityResult,
    KalmanSolution,
    NearestResult,
    fold_cross_penalties,
    nearest_params,
    solve_feasibility_projection,
    unfold_cross_penalties,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateSet",
    "CostParameters",
    "DimensionError",
    "FeasibilityResult",
    "GameSystem",
    "KalmanSolution",
    "NearestResult",
    "NumericalFailureError",
    "PlayerAnalysis",
    "RankViolation",
    "StrategyProfile",
    "analyze_player",
    "closed_loop",
    "coupled_are_residuals",
    "fold_cross_penalties",
    "is_stabilizing",
    "nearest_params",
    "newton_kleinman",
    "reduced_system",
    "solve_coupled_are",
    "solve_feasibility_projection",
    "unfold_cross_penalties",
    "verify_nash",
]
