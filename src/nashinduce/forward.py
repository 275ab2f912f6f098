"""Time-domain forward machinery.

Cost parameters and their validation, exact per-player Nash verification
(Lyapunov solve + stationarity + Riccati residual), and a Gauss-Seidel
coupled-Riccati solver with a Newton polish, used as a ground-truth
generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    NASH_TOL,
    DimensionError,
    NotHurwitzError,
    _norm,
    as_matrix,
    hurwitz_margin,
    is_hurwitz,
    schur_lyapunov,
    solve_lyapunov,
    sym_basis,
    sym_dim,
    sym_pack,
    sym_unpack,
    symmetrize,
)
from .realization import GameSystem, StrategyProfile, closed_loop, closed_loop_schur, frozen_loop

KLEINMAN_TOL = 1e-12          # relative gain step at which Newton-Kleinman stops
KLEINMAN_MAX_ITER = 60        # Newton-Kleinman step cap
POLISH_MAX_ITER = 40          # step cap of solve_coupled_are's Newton polish
COUPLED_RESIDUAL_TOL = 1e-8   # relative residuals at which solve_coupled_are converged
SWEEP_GAIN_TOL = 1e-9         # solve_coupled_are's sweeps stop once no gain step is larger


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
    def diagonal_R(cls, Q, R_own) -> "CostParameters":
        """Q as given, R_ii = R_own[i], R_ij = 0."""
        m = [Ri.shape[0] for Ri in R_own]
        R = [[Ri if i == j else np.zeros((mj, mj)) for j, mj in enumerate(m)]
             for i, Ri in enumerate(R_own)]
        return cls(Q, R)

    @classmethod
    def identity_R(cls, Q, m) -> "CostParameters":
        """Q as given, R_ii = I, R_ij = 0."""
        return cls.diagonal_R(Q, [np.eye(mj) for mj in m])

    def validate(self, system: GameSystem, tol: float = NASH_TOL) -> None:
        """Raise on the first wrong shape, then on the first of Q_i, R_ii, R_ij
        (player by player, one loop over (name, positive-definite?) pairs)
        whose least eigenvalue is below -tol max(1, |M|_F) (for R_ii: not
        above +tol max(1, |M|_F)); the blocks are exactly symmetric, so one
        batched eigvalsh per block size suffices."""
        N, n, m = system.num_players, system.n, system.m
        if len(self.Q) != N or len(self.R) != N:
            raise DimensionError("cost parameters must cover every player")
        for i in range(N):
            if self.Q[i].shape != (n, n):
                raise DimensionError(f"Q[{i}] has wrong shape")
            for j in range(N):
                if self.R[i][j].shape != (m[j], m[j]):
                    raise DimensionError(f"R[{i}][{j}] has wrong shape")
        blocks = {f"Q[{i}]": Qi for i, Qi in enumerate(self.Q)}
        blocks.update((f"R[{i}][{j}]", self.R[i][j]) for i in range(N) for j in range(N))
        least = {}
        for size in {len(M) for M in blocks.values()}:
            names = [k for k, M in blocks.items() if len(M) == size]
            least.update(zip(names, np.linalg.eigvalsh(np.stack([blocks[k] for k in names]))[:, 0]))
        for i in range(N):
            checks = [(f"Q[{i}]", False), (f"R[{i}][{i}]", True)]
            checks += [(f"R[{i}][{j}]", False) for j in range(N) if j != i]
            for name, pd in checks:  # the least eigenvalue against the floor
                floor = tol * max(1.0, _norm(blocks[name]))
                if not (least[name] > floor if pd else least[name] >= -floor):
                    kind = "definite" if pd else "semidefinite"
                    raise ValueError(f"{name} is not positive {kind}")

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
    scale: float            # max(1, max_i |P_i|)
    residual_bound: float   # tol * scale, the bound on both residuals
    psd_tol: float          # the relative eigenvalue floor of the P_i >= 0 test


def state_weight_with_cross_terms(costs: CostParameters, profile: StrategyProfile, i: int):
    """Q_i plus the folded penalties on the other players' controls."""
    Qt = costs.Q[i].copy()
    for j, Kj in enumerate(profile.K):
        if j != i:
            Qt += Kj.T @ costs.R[i][j] @ Kj
    return 0.5 * (Qt + Qt.T)


def verify_nash(system: GameSystem, profile: StrategyProfile, costs: CostParameters,
                tol: float = NASH_TOL):
    """Exact Nash check: per player, solve the closed-loop Lyapunov equation
    and test stationarity, the Riccati residual, and P >= 0.

    Returns (is_nash, CertificateSet); never iterates.  The Lyapunov solves
    and the Hurwitz margin share the command's one Schur form of Acl
    (closed_loop_schur).
    """
    costs.validate(system, tol)
    Acl, T, U = closed_loop_schur(system, profile)
    Qts = [state_weight_with_cross_terms(costs, profile, i) for i in range(system.num_players)]
    Ps = schur_lyapunov(Acl, T, U, np.stack([
        Qts[i] + Ki.T @ costs.R[i][i] @ Ki for i, Ki in enumerate(profile.K)]))
    margin = hurwitz_margin(T)
    are_res, stat_res = [], []
    for i, (Qt, P) in enumerate(zip(Qts, Ps)):
        Bi, Ki = system.B[i], profile.K[i]
        A_tilde = frozen_loop(system, profile.K, i)
        Rii = costs.R[i][i]
        stat = _norm(Rii @ Ki - Bi.T @ P)
        Rinv = np.linalg.inv(Rii)
        with np.errstate(over="ignore", invalid="ignore"):  # past the float range: null
            are = _norm(Qt + P @ A_tilde + A_tilde.T @ P - P @ Bi @ Rinv @ Bi.T @ P)
        stat_res.append(stat)
        are_res.append(are)
    # Ps is exactly symmetric: the floor test on one eigvalsh of the stack.
    norms = [_norm(P) for P in Ps]
    psd_flags = [bool(w >= -tol * max(1.0, s))
                 for w, s in zip(np.linalg.eigvalsh(Ps)[:, 0], norms)]
    scale = max(1.0, max(norms))
    bound = tol * scale
    ok = all(r <= bound for r in stat_res) and all(r <= bound for r in are_res) and all(psd_flags)
    cert = CertificateSet(P=tuple(Ps), are_residuals=tuple(are_res),
                          stationarity_residuals=tuple(stat_res),
                          psd_ok=tuple(psd_flags), hurwitz_margin=margin,
                          scale=scale, residual_bound=bound, psd_tol=tol)
    return ok, cert


def coupled_are_residuals(system: GameSystem, costs: CostParameters, K, P):
    """Residual norms of the N coupled Riccati equations at gains K, values P."""
    F = _riccati_residuals(costs, P, _gains(system, costs, P), closed_loop(system, K))
    return [float(np.linalg.norm(Fi)) for Fi in F]


def newton_kleinman(A, B, Q, R, K0):
    """Stabilizing single-player Riccati solution by Newton-Kleinman.

    Each step solves one Lyapunov equation, and that solve is also the
    stability test: a gain whose closed loop is not Hurwitz makes
    solve_lyapunov raise NotHurwitzError off its Schur diagonal, so each
    closed loop is factored once.  The gain step is damped by halving (up to
    10 times) while that happens; the accepted gain's P is the answer.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    K = as_matrix(K0).copy()
    try:
        P = solve_lyapunov(A - B @ K, Q + K.T @ R @ K)
    except NotHurwitzError as exc:
        raise ValueError("Newton-Kleinman needs a stabilizing initial gain") from exc
    Rinv = np.linalg.inv(R)
    for _ in range(KLEINMAN_MAX_ITER):
        step = Rinv @ B.T @ P - K
        damp = 1.0
        for _ in range(10):
            trial = K + damp * step
            try:
                P = solve_lyapunov(A - B @ trial, Q + trial.T @ R @ trial)
                break
            except NotHurwitzError:
                damp *= 0.5
        else:
            raise RuntimeError("Newton-Kleinman lost stabilizability")
        K = trial
        if float(np.linalg.norm(step)) <= KLEINMAN_TOL * max(1.0, float(np.linalg.norm(K))):
            break
    return Rinv @ B.T @ P, P


def _gains(system: GameSystem, costs: CostParameters, P) -> list:
    """G_j = R_jj^-1 B_j' P_j, the gains the values P_j ask for."""
    return [np.linalg.solve(costs.R[j][j], system.B[j].T @ Pj) for j, Pj in enumerate(P)]


def _riccati_residuals(costs: CostParameters, P, G, Acl) -> list:
    """F_i = Q_i + P_i Acl + Acl' P_i + sum_j G_j' R_ij G_j for every player i."""
    F = []
    for i, Pi in enumerate(P):
        acc = costs.Q[i] + Pi @ Acl + Acl.T @ Pi
        for j, Gj in enumerate(G):
            acc += Gj.T @ costs.R[i][j] @ Gj
        F.append(acc)
    return F


def _coupled_residual_mats(system: GameSystem, costs: CostParameters, P):
    """(F, G, Acl) at values P, with the closed loop Acl = A - sum_j B_j G_j."""
    G = _gains(system, costs, P)
    Acl = system.A - sum(Bj @ Gj for Bj, Gj in zip(system.B, G))
    return _riccati_residuals(costs, P, G, Acl), G, Acl


def _coupled_jacobian(system: GameSystem, costs: CostParameters, P, G, Acl) -> np.ndarray:
    """Jacobian of the packed residuals sym_pack(F_i) over the packed P_j.

    Along a symmetric dP_j, F_i moves by M_ij dP_j + dP_j M_ij' with
    M_ij = (G_j' R_ij - P_i B_j) R_jj^-1 B_j', plus Acl' when i = j.  With
    D = sym_basis(n), whose column t is vec(E_t) for a symmetric E_t, the
    packed block is D' kron_sum(M, M) D = 2 D' (I (x) M) D, and column t of
    (I (x) M) D is vec(M E_t).
    """
    N, n, D = system.num_players, system.n, sym_basis(system.n)
    dim = D.shape[1]
    E = D.T.reshape(dim, n, n)
    J = np.empty((N * dim, N * dim))
    for j in range(N):
        Rjj_invBt = np.linalg.solve(costs.R[j][j], system.B[j].T)
        for i in range(N):
            M = (G[j].T @ costs.R[i][j] - P[i] @ system.B[j]) @ Rjj_invBt
            if i == j:
                M += Acl.T
            ME = (E @ M.T).reshape(dim, n * n)  # row t: E_t M' row-major, i.e. vec(M E_t)
            J[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = 2.0 * (D.T @ ME.T)
    return J


def _newton_polish(system: GameSystem, costs: CostParameters, P):
    """Newton iteration on the stacked coupled-Riccati residuals.

    Variables are the packed symmetric P_i; the Jacobian is built in closed
    form.  Damped by halving while the residual does not decrease and the
    induced closed loop stays Hurwitz, until the residuals are within a
    tenth of COUPLED_RESIDUAL_TOL (relative).
    """
    N, n = system.num_players, system.n
    dim = sym_dim(n)
    P = [0.5 * (Pi + Pi.T) for Pi in P]
    F, G, Acl = _coupled_residual_mats(system, costs, P)
    for _ in range(POLISH_MAX_ITER):
        r = np.concatenate([sym_pack(Fi) for Fi in F])
        scale = max(1.0, max(float(np.linalg.norm(Pi)) for Pi in P))
        if float(np.max(np.abs(r))) <= 0.1 * COUPLED_RESIDUAL_TOL * scale:
            break
        J = _coupled_jacobian(system, costs, P, G, Acl)
        dx = np.linalg.lstsq(J, -r, rcond=None)[0]
        base = float(np.linalg.norm(r))
        damp = 1.0
        for _ in range(25):
            trial = [P[i] + damp * sym_unpack(dx[i * dim:(i + 1) * dim], n)
                     for i in range(N)]
            F_t, G_t, Acl_t = _coupled_residual_mats(system, costs, trial)
            if is_hurwitz(Acl_t) and float(np.linalg.norm(
                    np.concatenate([sym_pack(Fi) for Fi in F_t]))) < base:
                P, F, G, Acl = trial, F_t, G_t, Acl_t
                break
            damp *= 0.5
        else:
            break
    return P


def solve_coupled_are(system: GameSystem, costs: CostParameters, init: StrategyProfile,
                      gain_tol: float = SWEEP_GAIN_TOL, max_sweeps: int = 500):
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
    for _ in range(max_sweeps):
        max_change = 0.0
        rolled_back = False
        for i in range(system.num_players):
            current = StrategyProfile(K)
            A_tilde = frozen_loop(system, K, i)
            Qt = state_weight_with_cross_terms(costs, current, i)
            try:
                K_new, P_new = newton_kleinman(A_tilde, system.B[i], Qt, costs.R[i][i], K[i])
            except (ValueError, RuntimeError):
                rolled_back = True
                break
            # Damped acceptance: keep the joint closed loop stable.
            step = K_new - K[i]
            damp = 1.0
            for _ in range(10):
                trial = [Kj.copy() for Kj in K]
                trial[i] = K[i] + damp * step
                if is_hurwitz(closed_loop(system, trial)):
                    break
                damp *= 0.5
            else:
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
        P = _newton_polish(system, costs, P)
        K_try = _gains(system, costs, P)
        if is_hurwitz(closed_loop(system, K_try)):
            K = K_try
    res = coupled_are_residuals(system, costs, K, P)
    scale = max(1.0, max(float(np.linalg.norm(Pi)) for Pi in P))
    stat = max(float(np.linalg.norm(costs.R[i][i] @ K[i] - system.B[i].T @ P[i]))
               for i in range(system.num_players))
    converged = max(res) <= COUPLED_RESIDUAL_TOL * scale and stat <= COUPLED_RESIDUAL_TOL * scale
    profile = StrategyProfile(K)
    return profile, P, converged

