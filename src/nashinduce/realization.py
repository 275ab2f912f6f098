"""Game data model and the state-space -> matrix-fraction bridge.

Builds, for each player, the open- and closed-loop matrices obtained by
freezing the other players' gains, the controllable subspace, and a
right-coprime factorization (sI - A_tilde)^{-1} B = S(s) D(s)^{-1} with D
column reduced and column degrees equal to the controllability indices.
The factorization serves only players whose Phi lacks full normal rank
(see inverse).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import (
    DimensionError,
    NumericalFailureError,
    as_matrix,
    eig,
    is_hurwitz,
    matrix_rank,
    HURWITZ_MARGIN,
    RANK_TOL,
    _rank,
)
from .polymat import PolyMatrix

FACTORIZATION_TOL = 1e-10  # relative residual of the identity (sI - A)S = B D


@dataclass(frozen=True)
class GameSystem:
    """Plant data: drift A and one input matrix per player."""

    A: np.ndarray
    B: tuple

    def __init__(self, A, B):
        self._set_plant(A, B)
        if not _pbh_stabilizable(self.A, np.hstack(self.B)):
            raise ValueError("(A, [B_1 ... B_N]) is not stabilizable")

    def _set_plant(self, A, B) -> None:
        A = as_matrix(A, "A")
        if A.shape[0] != A.shape[1]:
            raise DimensionError("A must be square")
        Bs = tuple(as_matrix(Bi, f"B[{i}]") for i, Bi in enumerate(B))
        if not Bs:
            raise DimensionError("at least one player required")
        n = A.shape[0]
        for i, Bi in enumerate(Bs):
            if Bi.shape[0] != n:
                raise DimensionError(f"B[{i}] has {Bi.shape[0]} rows, expected {n}")
            if matrix_rank(Bi) != Bi.shape[1]:
                raise ValueError(f"B[{i}] must have full column rank")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", Bs)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def num_players(self) -> int:
        return len(self.B)

    @property
    def m(self) -> tuple:
        return tuple(Bi.shape[1] for Bi in self.B)


def _pbh_stabilizable(A: np.ndarray, Ball: np.ndarray) -> bool:
    """PBH test: [lam I - A, Ball] has rank n (rule _rank) at every eigenvalue
    lam of A with Re lam >= -HURWITZ_MARGIN, from one batched SVD.  A is
    real, so of a conjugate pair only the member with Im lam >= 0 is
    tested: the other's matrix is its conjugate, with the same singular
    values."""
    n = A.shape[0]
    lams = eig(A)
    lams = lams[(lams.real >= -HURWITZ_MARGIN) & (lams.imag >= 0)]
    if not lams.size:
        return True
    M = np.concatenate([lams[:, None, None] * np.eye(n) - A,
                        np.broadcast_to(Ball, (len(lams),) + Ball.shape)], axis=2)
    return all(_rank(s, RANK_TOL) >= n for s in np.linalg.svd(M, compute_uv=False))


@dataclass(frozen=True)
class StrategyProfile:
    """Target feedback gains, one m_i x n block per player."""

    K: tuple

    def __init__(self, K):
        Ks = tuple(as_matrix(Ki, f"K[{i}]") for i, Ki in enumerate(K))
        object.__setattr__(self, "K", Ks)

    @classmethod
    def stabilizing(cls, system: GameSystem, K) -> "StrategyProfile":
        """Construct and enforce dimensions plus closed-loop stability."""
        prof = cls(K)
        if len(prof.K) != system.num_players:
            raise DimensionError("one gain per player required")
        for i, (Ki, Bi) in enumerate(zip(prof.K, system.B)):
            if Ki.shape != (Bi.shape[1], system.n):
                raise DimensionError(
                    f"K[{i}] has shape {Ki.shape}, expected {(Bi.shape[1], system.n)}"
                )
        if not is_stabilizing(system, prof.K):
            raise ValueError("profile does not stabilize the closed loop")
        return prof


def _stabilizing_game(A, B, K):
    """(GameSystem(A, B), StrategyProfile.stabilizing(system, K)) with the PBH
    test run only when K fails, where a plant that fails it is reported first:
    a stabilizing K witnesses that (A, [B_1 ... B_N]) is stabilizable (Hautus)."""
    system = object.__new__(GameSystem)
    system._set_plant(A, B)
    try:
        return system, StrategyProfile.stabilizing(system, K)
    except ValueError:
        GameSystem.__init__(system, A, B)  # the plant's checks again, then PBH
        raise


def closed_loop(system: GameSystem, K) -> np.ndarray:
    Acl = system.A.copy()
    for Bi, Ki in zip(system.B, K):
        Acl -= Bi @ Ki
    return Acl


def is_stabilizing(system: GameSystem, K) -> bool:
    """True iff A - sum_i B_i K_i has all eigenvalues in Re < -HURWITZ_MARGIN."""
    return is_hurwitz(closed_loop(system, K))


def reduced_system(system: GameSystem, profile: StrategyProfile, i: int):
    """Player i's view: (A_tilde_i, A_cl) with all other gains frozen."""
    if not (0 <= i < system.num_players):
        raise DimensionError(f"player index {i} out of range")
    A_tilde = system.A.copy()
    for j, (Bj, Kj) in enumerate(zip(system.B, profile.K)):
        if j != i:
            A_tilde -= Bj @ Kj
    A_cl = A_tilde - system.B[i] @ profile.K[i]
    return A_tilde, A_cl


@dataclass(frozen=True)
class CoprimeFactorization:
    """Right-coprime factors of (sI - A_tilde)^{-1} B = S D^{-1}.

    When the pair is uncontrollable the factors describe the controllable
    part only and `controllable` is False.
    """

    S: PolyMatrix
    D: PolyMatrix
    sigma: tuple
    A_tilde: np.ndarray
    B: np.ndarray
    controllable: bool
    D_tilde: PolyMatrix | None = None
    K: np.ndarray | None = None

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def n(self) -> int:
        return self.A_tilde.shape[0]


def _crate_indices(A: np.ndarray, B: np.ndarray):
    """Controllability indices via left-to-right scan of [B, AB, A^2B, ...].

    Returns (sigma, kept): kept holds the retained columns grouped per input,
    [b_k, A b_k, ..., A^{sigma_k-1} b_k] for each k in turn.  Deterministic:
    first independent column wins.
    """
    n, m = B.shape
    sigma = [0] * m
    kept_flat = []
    kept = [[] for _ in range(m)]
    powers = [B[:, k].copy() for k in range(m)]
    scale = max(1.0, float(np.linalg.norm(A)), float(np.linalg.norm(B)))
    for j in range(n):
        for k in range(m):
            if j > 0:
                powers[k] = A @ powers[k]
            if len(kept_flat) == n:
                continue
            # Crate rule: once A^j b_k is dependent, so are all higher powers.
            if j > 0 and sigma[k] < j:
                continue
            trial = np.column_stack(kept_flat + [powers[k]]) if kept_flat else powers[k][:, None]
            if matrix_rank(trial) == trial.shape[1] and np.linalg.norm(powers[k]) > RANK_TOL * scale:
                kept_flat.append(powers[k].copy())
                kept[k].append(powers[k].copy())
                sigma[k] += 1
    return sigma, [v for k in range(m) for v in kept[k]]


def _power_basis(sigma) -> PolyMatrix:
    """Stacked power-basis matrix: block column k is [1, s, ..., s^{sigma_k-1}]'."""
    n_c = int(sum(sigma))
    m = len(sigma)
    deg = max(int(max(sigma)), 1)
    C = np.zeros((deg, n_c, m))
    row = 0
    for k, sk in enumerate(sigma):
        for j in range(int(sk)):
            C[j, row + j, k] = 1.0
        row += int(sk)
    return PolyMatrix(C)


def controllable_basis(A, B) -> np.ndarray:
    """Orthonormal basis (columns) of the controllable subspace of (A, B):
    the numerical range of [B, AB, ..., A^{n-1} B]."""
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    ctrb = np.hstack(blocks)
    u, sv, _ = np.linalg.svd(ctrb, full_matrices=False)
    return u[:, :_rank(sv, RANK_TOL)]


def right_coprime_factorization(A_tilde, B) -> CoprimeFactorization:
    """Construct (S, D, sigma) for the pair (A_tilde, B).

    Route: restrict to the controllable subspace, transform to controller
    canonical form via the controllability-matrix column-selection scheme,
    read D off the companion blocks and S off the power-basis rows, then map
    back to the original coordinates.
    """
    A = as_matrix(A_tilde, "A_tilde")
    Bm = as_matrix(B, "B")
    n, m = Bm.shape
    if A.shape != (n, n):
        raise DimensionError("A_tilde and B have incompatible shapes")
    if matrix_rank(Bm) != m:
        raise ValueError("B must have full column rank")

    U = controllable_basis(A, Bm)
    n_c = U.shape[1]
    controllable = n_c == n

    A_r = U.T @ A @ U
    B_r = U.T @ Bm
    sigma, kept_vectors = _crate_indices(A_r, B_r)
    if sum(sigma) != n_c:
        raise NumericalFailureError("controllability index selection inconsistent with subspace rank")

    # Controller-form coordinate change on the controllable part.
    V = np.column_stack(kept_vectors)  # grouped b_k, A b_k, ..., per input
    Vinv = np.linalg.inv(V)
    T_rows = []
    r = 0
    for sk in sigma:
        r += sk
        if sk == 0:
            continue
        q = Vinv[r - 1]
        row = q.copy()
        for _ in range(sk):
            T_rows.append(row.copy())
            row = row @ A_r
    # T rows are [q_k, q_k A, ..., q_k A^{sigma_k - 1}] stacked per block.
    T = np.vstack(T_rows)
    Tinv = np.linalg.inv(T)
    Abar = T @ A_r @ Tinv
    Bbar = T @ B_r

    Sbar = _power_basis(sigma)  # n_c x m power-basis blocks
    lhs = PolyMatrix.s_identity(n_c) @ Sbar - PolyMatrix.constant(Abar) @ Sbar

    # Solve B_bar D(s) = (sI - A_bar) S_bar(s) coefficient-wise.
    dmax = lhs.coeffs.shape[0]
    Dc = np.zeros((dmax, m, m))
    Binv = np.linalg.pinv(Bbar)
    resid = 0.0
    for t in range(dmax):
        Dc[t] = Binv @ lhs.coeffs[t]
        resid = max(resid, float(np.linalg.norm(Bbar @ Dc[t] - lhs.coeffs[t])))
    scale = max(1.0, float(np.linalg.norm(A)), float(np.linalg.norm(Bm)))
    if resid > 1e-9 * scale:
        raise NumericalFailureError(f"companion-block read-off failed, residual {resid:.3e}")
    D = PolyMatrix(Dc)

    S = PolyMatrix.constant(U @ Tinv) @ Sbar  # n x m in original coordinates
    fac = CoprimeFactorization(
        S=S,
        D=D,
        sigma=tuple(int(s) for s in sigma),
        A_tilde=A,
        B=Bm,
        controllable=controllable,
    )
    _check_factorization(fac)
    return fac


def _check_factorization(fac: CoprimeFactorization) -> None:
    lhs = PolyMatrix.s_identity(fac.n) @ fac.S - PolyMatrix.constant(fac.A_tilde) @ fac.S
    rhs = PolyMatrix.constant(fac.B) @ fac.D
    scale = max(1.0,
                float(np.linalg.norm(fac.A_tilde)) + float(np.linalg.norm(fac.B)),
                lhs.coeff_norm(), rhs.coeff_norm())
    if (lhs - rhs).coeff_norm() > FACTORIZATION_TOL * scale:
        raise NumericalFailureError("factorization identity (sI - A)S = B D violated")
    if not fac.D.is_column_reduced():
        raise NumericalFailureError("D is not column reduced")


def attach_feedback(fac: CoprimeFactorization, K) -> CoprimeFactorization:
    """Set D_tilde = D + K S for the player's own gain K."""
    Km = as_matrix(K, "K")
    if Km.shape != (fac.m, fac.n):
        raise DimensionError(f"K has shape {Km.shape}, expected {(fac.m, fac.n)}")
    D_tilde = fac.D + PolyMatrix.constant(Km) @ fac.S
    return replace(fac, D_tilde=D_tilde, K=Km)
