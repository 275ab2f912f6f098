"""Nash inducibility analysis for linear-quadratic differential games.

Given a plant and a stabilizing feedback profile, decide whether cost
matrices exist that make the profile a feedback Nash equilibrium, recover
such matrices when they do, and cross-check the frequency-domain verdict
against a time-domain feasibility oracle.
"""

from .numerics import DimensionError, NumericalFailureError
from .polymat import PolyMatrix
from .realization import (
    CoprimeFactorization,
    GameSystem,
    StrategyProfile,
    attach_feedback,
    closed_loop,
    is_stabilizing,
    reduced_system,
    right_coprime_factorization,
)
from .inverse import (
    InducibilityAnalysis,
    KalmanSolution,
    PhiAnalysis,
    PlayerAnalysis,
    RankCertificate,
    RankViolation,
    analyze_phi,
    analyze_player,
    build_phi,
    check_rank_condition,
    circle_criterion,
    is_nash_inducible,
    solve_kalman_Q,
    solve_kalman_general,
)
from .forward import (
    CertificateSet,
    CostParameters,
    coupled_are_residuals,
    equilibrium_cost,
    newton_kleinman,
    solve_coupled_are,
    verify_nash,
)
from .feasibility import (
    FeasibilityResult,
    NearestResult,
    build_vectorized_system,
    fold_cross_penalties,
    nearest_params,
    solve_feasibility_projection,
    unfold_cross_penalties,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateSet",
    "CoprimeFactorization",
    "CostParameters",
    "DimensionError",
    "FeasibilityResult",
    "GameSystem",
    "InducibilityAnalysis",
    "KalmanSolution",
    "NearestResult",
    "NumericalFailureError",
    "PhiAnalysis",
    "PlayerAnalysis",
    "PolyMatrix",
    "RankCertificate",
    "RankViolation",
    "StrategyProfile",
    "analyze_phi",
    "analyze_player",
    "attach_feedback",
    "build_phi",
    "build_vectorized_system",
    "check_rank_condition",
    "circle_criterion",
    "closed_loop",
    "coupled_are_residuals",
    "equilibrium_cost",
    "fold_cross_penalties",
    "is_nash_inducible",
    "is_stabilizing",
    "nearest_params",
    "newton_kleinman",
    "reduced_system",
    "right_coprime_factorization",
    "solve_coupled_are",
    "solve_feasibility_projection",
    "solve_kalman_Q",
    "solve_kalman_general",
    "unfold_cross_penalties",
    "verify_nash",
]
