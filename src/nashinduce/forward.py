"""Time-domain forward machinery.

Exact per-player Nash verification (Lyapunov solve + stationarity + Riccati
residual), a Gauss-Seidel coupled-Riccati solver used as a ground-truth
generator, and equilibrium cost evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    DimensionError,
    as_matrix,
    eig,
    is_hurwitz,
    is_pd,
    is_psd,
    solve_lyapunov,
    sym_pack,
    sym_unpack,
    symmetrize,
)
from .realization import GameSystem, StrategyProfile, closed_loop, reduced_system


@dataclass(frozen=True)
class CostParameters:
    """Weights (Q_i, R_ij): Q list of n x n, R an N x N grid with R[i][j] m_j x m_j."""

    Q: tuple
    R: tuple

    def __init__(self, Q, R):
        Qs = tuple(symmetrize(Qi, name=f"Q[{i}]") for i, Qi in enumerate(Q))
        Rs = tuple(
            tuple(symmetrize(Rij, name=f"R[{i}][{j}]") for j, Rij in enumerate(row))
            for i, row in enumerate(R)
        )
        object.__setattr__(self, "Q", Qs)
        object.__setattr__(self, "R", Rs)

    @classmethod
    def identity_R(cls, Q, m) -> "CostParameters":
        """Q as given, R_ii = I, R_ij = 0."""
        N = len(Q)
        R = [[np.eye(m[j]) if i == j else np.zeros((m[j], m[j])) for j in range(N)]
             for i in range(N)]
        return cls(Q, R)

    def validate(self, system: GameSystem, tol: float = 1e-8) -> None:
        N = system.num_players
        if len(self.Q) != N or len(self.R) != N:
            raise DimensionError("cost parameters must cover every player")
        for i in range(N):
            if self.Q[i].shape != (system.n, system.n):
                raise DimensionError(f"Q[{i}] has wrong shape")
            if not is_psd(self.Q[i], tol):
                raise ValueError(f"Q[{i}] is not positive semidefinite")
            for j in range(N):
                if self.R[i][j].shape != (system.m[j], system.m[j]):
                    raise DimensionError(f"R[{i}][{j}] has wrong shape")
            if not is_pd(self.R[i][i], tol):
                raise ValueError(f"R[{i}][{i}] is not positive definite")
            for j in range(N):
                if j != i and not is_psd(self.R[i][j], tol):
                    raise ValueError(f"R[{i}][{j}] is not positive semidefinite")

    def scaled(self, alpha: float) -> "CostParameters":
        return CostParameters(
            [alpha * Qi for Qi in self.Q],
            [[alpha * Rij for Rij in row] for row in self.R],
        )


@dataclass(frozen=True)
class CertificateSet:
    P: tuple
    are_residuals: tuple
    stationarity_residuals: tuple
    psd_ok: tuple
    hurwitz_margin: float


def state_weight_with_cross_terms(costs: CostParameters, profile: StrategyProfile, i: int):
    """Q_i plus the folded penalties on the other players' controls."""
    Qt = costs.Q[i].copy()
    for j, Kj in enumerate(profile.K):
        if j != i:
            Qt += Kj.T @ costs.R[i][j] @ Kj
    return 0.5 * (Qt + Qt.T)


def verify_nash(system: GameSystem, profile: StrategyProfile, costs: CostParameters,
                tol: float = 1e-8):
    """Exact Nash check: per player, solve the closed-loop Lyapunov equation
    and test stationarity, the Riccati residual, and P >= 0.

    Returns (is_nash, CertificateSet); never iterates.
    """
    costs.validate(system, tol)
    Acl = closed_loop(system, profile.K)
    margin = -float(np.max(eig(Acl).real))
    Ps, are_res, stat_res, psd_flags = [], [], [], []
    for i in range(system.num_players):
        Bi, Ki = system.B[i], profile.K[i]
        A_tilde, _ = reduced_system(system, profile, i)
        Qt = state_weight_with_cross_terms(costs, profile, i)
        Rii = costs.R[i][i]
        W = Qt + Ki.T @ Rii @ Ki
        P = solve_lyapunov(Acl, W)
        stat = float(np.linalg.norm(Rii @ Ki - Bi.T @ P))
        Rinv = np.linalg.inv(Rii)
        are = float(np.linalg.norm(
            Qt + P @ A_tilde + A_tilde.T @ P - P @ Bi @ Rinv @ Bi.T @ P))
        Ps.append(P)
        stat_res.append(stat)
        are_res.append(are)
        psd_flags.append(is_psd(P, tol))
    scale = max(1.0, max(float(np.linalg.norm(P)) for P in Ps))
    ok = (
        all(r <= tol * scale for r in stat_res)
        and all(r <= tol * scale for r in are_res)
        and all(psd_flags)
    )
    cert = CertificateSet(P=tuple(Ps), are_residuals=tuple(are_res),
                          stationarity_residuals=tuple(stat_res),
                          psd_ok=tuple(psd_flags), hurwitz_margin=margin)
    return ok, cert


def coupled_are_residuals(system: GameSystem, costs: CostParameters, K, P):
    """Residual norms of the N coupled Riccati equations at gains K, values P."""
    Acl = closed_loop(system, K)
    out = []
    for i in range(system.num_players):
        acc = costs.Q[i] + P[i] @ Acl + Acl.T @ P[i]
        for j in range(system.num_players):
            Rjj_inv = np.linalg.inv(costs.R[j][j])
            Gj = Rjj_inv @ system.B[j].T @ P[j]
            acc += Gj.T @ costs.R[i][j] @ Gj
        out.append(float(np.linalg.norm(acc)))
    return out


def newton_kleinman(A, B, Q, R, K0, tol: float = 1e-12, max_iter: int = 60):
    """Stabilizing single-player Riccati solution by Newton-Kleinman.

    Each step solves one Lyapunov equation; the gain step is damped by
    halving (up to 10 times) whenever stability would be lost.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    K = as_matrix(K0).copy()
    if not is_hurwitz(A - B @ K):
        raise ValueError("Newton-Kleinman needs a stabilizing initial gain")
    Rinv = np.linalg.inv(R)
    P = None
    for _ in range(max_iter):
        P = solve_lyapunov(A - B @ K, Q + K.T @ R @ K)
        K_new = Rinv @ B.T @ P
        step = K_new - K
        damp = 1.0
        for _ in range(10):
            if is_hurwitz(A - B @ (K + damp * step)):
                break
            damp *= 0.5
        else:
            raise RuntimeError("Newton-Kleinman lost stabilizability")
        K = K + damp * step
        if float(np.linalg.norm(step)) <= tol * max(1.0, float(np.linalg.norm(K))):
            break
    P = solve_lyapunov(A - B @ K, Q + K.T @ R @ K)
    return Rinv @ B.T @ P, P


def _coupled_residual_mats(system: GameSystem, costs: CostParameters, P):
    N = system.num_players
    G = [np.linalg.solve(costs.R[j][j], system.B[j].T @ P[j]) for j in range(N)]
    Acl = system.A - sum(system.B[j] @ G[j] for j in range(N))
    F = []
    for i in range(N):
        acc = costs.Q[i] + P[i] @ Acl + Acl.T @ P[i]
        for j in range(N):
            acc += G[j].T @ costs.R[i][j] @ G[j]
        F.append(0.5 * (acc + acc.T))
    return F, G, Acl


def _newton_polish(system: GameSystem, costs: CostParameters, P,
                   residual_tol: float, max_iter: int = 40):
    """Newton iteration on the stacked coupled-Riccati residuals.

    Variables are the packed symmetric P_i; each Jacobian column is an exact
    directional derivative.  Damped by halving while the residual does not
    decrease and the induced closed loop stays Hurwitz.
    """
    N = system.num_players
    n = system.n
    P = [0.5 * (Pi + Pi.T) for Pi in P]
    dim = n * (n + 1) // 2

    def residual_vec(Plist):
        F, _, _ = _coupled_residual_mats(system, costs, Plist)
        return np.concatenate([sym_pack(Fi) for Fi in F])

    for _ in range(max_iter):
        F, G, Acl = _coupled_residual_mats(system, costs, P)
        r = np.concatenate([sym_pack(Fi) for Fi in F])
        scale = max(1.0, max(float(np.linalg.norm(Pi)) for Pi in P))
        if float(np.max(np.abs(r))) <= 0.1 * residual_tol * scale:
            break
        J = np.zeros((N * dim, N * dim))
        col = 0
        for j in range(N):
            Rjj_invBt = np.linalg.solve(costs.R[j][j], system.B[j].T)
            for k in range(dim):
                e = np.zeros(dim)
                e[k] = 1.0
                dPj = sym_unpack(e, n)
                dGj = Rjj_invBt @ dPj
                dAcl = -system.B[j] @ dGj
                for i in range(N):
                    dF = P[i] @ dAcl + dAcl.T @ P[i]
                    if i == j:
                        dF += dPj @ Acl + Acl.T @ dPj
                    dF += dGj.T @ costs.R[i][j] @ G[j] + G[j].T @ costs.R[i][j] @ dGj
                    J[i * dim:(i + 1) * dim, col] += sym_pack(0.5 * (dF + dF.T))
                col += 1
        dx = np.linalg.lstsq(J, -r, rcond=None)[0]
        base = float(np.linalg.norm(r))
        damp = 1.0
        for _ in range(25):
            trial = [P[i] + damp * sym_unpack(dx[i * dim:(i + 1) * dim], n)
                     for i in range(N)]
            Gt = [np.linalg.solve(costs.R[j][j], system.B[j].T @ trial[j]) for j in range(N)]
            Acl_t = system.A - sum(system.B[j] @ Gt[j] for j in range(N))
            if is_hurwitz(Acl_t) and float(np.linalg.norm(residual_vec(trial))) < base:
                P = trial
                break
            damp *= 0.5
        else:
            break
    return P


def solve_coupled_are(system: GameSystem, costs: CostParameters, init: StrategyProfile,
                      gain_tol: float = 1e-9, residual_tol: float = 1e-8,
                      max_sweeps: int = 500):
    """Coupled-Riccati solver: Gauss-Seidel policy iteration plus Newton polish.

    Per sweep, each player best-responds (Newton-Kleinman LQR) to the
    others' current gains.  Symmetric games leave a neutral mode that makes
    plain sweeps crawl, so once they stall a damped Newton iteration on the
    stacked residuals finishes the root.  Returns (profile, P list,
    converged).  Treat this as a test-data generator: non-convergence proves
    nothing.
    """
    costs.validate(system)
    K = [Ki.copy() for Ki in init.K]
    if not is_hurwitz(closed_loop(system, K)):
        raise ValueError("initial profile must stabilize the closed loop")

    P = [np.zeros((system.n, system.n)) for _ in range(system.num_players)]
    converged = False
    for _ in range(max_sweeps):
        max_change = 0.0
        rolled_back = False
        for i in range(system.num_players):
            A_tilde = system.A.copy()
            for j in range(system.num_players):
                if j != i:
                    A_tilde = A_tilde - system.B[j] @ K[j]
            Qt = costs.Q[i].copy()
            for j in range(system.num_players):
                if j != i:
                    Qt = Qt + K[j].T @ costs.R[i][j] @ K[j]
            Qt = 0.5 * (Qt + Qt.T)
            try:
                K_new, P_new = newton_kleinman(A_tilde, system.B[i], Qt, costs.R[i][i], K[i])
            except (ValueError, RuntimeError):
                rolled_back = True
                break
            # Damped acceptance: keep the joint closed loop stable.
            step = K_new - K[i]
            damp = 1.0
            accepted = False
            for _ in range(10):
                trial = [Kj.copy() for Kj in K]
                trial[i] = K[i] + damp * step
                if is_hurwitz(closed_loop(system, trial)):
                    accepted = True
                    break
                damp *= 0.5
            if not accepted:
                rolled_back = True
                break
            K[i] = K[i] + damp * step
            P[i] = P_new
            max_change = max(max_change, damp * float(np.linalg.norm(step)))
        if rolled_back or max_change <= gain_tol:
            break
    # Newton polish on the stacked residuals; plain sweeps stall on the
    # neutral mode of symmetric games.
    if all(float(np.linalg.norm(Pi)) > 0 for Pi in P):
        P = _newton_polish(system, costs, P, residual_tol)
        K_try = [np.linalg.solve(costs.R[i][i], system.B[i].T @ P[i])
                 for i in range(system.num_players)]
        if is_hurwitz(closed_loop(system, K_try)):
            K = K_try
    res = coupled_are_residuals(system, costs, K, P)
    scale = max(1.0, max(float(np.linalg.norm(Pi)) for Pi in P))
    stat = max(float(np.linalg.norm(costs.R[i][i] @ K[i] - system.B[i].T @ P[i]))
               for i in range(system.num_players))
    if max(res) <= residual_tol * scale and stat <= residual_tol * scale:
        converged = True
    profile = StrategyProfile(K)
    return profile, P, converged


def equilibrium_cost(P, x0) -> float:
    """Quadratic equilibrium value x0' P x0."""
    Pm = symmetrize(P, name="P")
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != Pm.shape[0]:
        raise DimensionError("x0 length does not match P")
    return float(x @ Pm @ x)
