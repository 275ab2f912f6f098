"""Game data model and the state-space -> matrix-fraction bridge.

Builds each player's A_tilde_i (the other players' gains frozen) beside the
one closed loop A_cl all players read, the controllable subspace and the one
PBH test (_pbh_failures: stabilizability, and inverse's rank condition).
StrategyProfile.stabilizing certifies A_cl and keeps its real Schur form,
the one factorization of a command (closed_loop_schur).
The right-coprime factorization (sI - A_tilde)^{-1} B = S(s) D(s)^{-1}, D
column reduced with column degrees equal to the controllability indices, is
reference code that no production path calls (see inverse).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import (
    DimensionError,
    NumericalFailureError,
    _schur,
    _unstable,
    as_matrix,
    is_hurwitz,
    matrix_rank,
    require_square,
    RANK_TOL,
    _rank,
)
from .polymat import PolyMatrix

FACTORIZATION_TOL = 1e-10  # relative residual of the identity (sI - A)S = B D


@dataclass(frozen=True)
class GameSystem:
    """Plant data: drift A and one full-column-rank input matrix per player."""

    A: np.ndarray
    B: tuple

    def __init__(self, A, B):
        A = require_square(A, "A")
        Bs = tuple(as_matrix(Bi, f"B[{i}]") for i, Bi in enumerate(B))
        if not Bs:
            raise DimensionError("at least one player required")
        n = A.shape[0]
        for i, Bi in enumerate(Bs):
            if Bi.shape[0] != n:
                raise DimensionError(f"B[{i}] has {Bi.shape[0]} rows, expected {n}")
            if not Bi.shape[1]:
                raise DimensionError(f"B[{i}] has no columns")
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


def _listed_players(system: GameSystem, players) -> list:
    """players (all by default) as a list, rejecting an empty list with
    GameSystem's message and an index out of range: the one player-index
    check of the package."""
    players = list(range(system.num_players) if players is None else players)
    if not players:
        raise DimensionError("at least one player required")
    for i in players:
        if not 0 <= i < system.num_players:
            raise DimensionError(f"player index {i} out of range")
    return players


def _pbh_failures(A: np.ndarray, C: np.ndarray, tol: float) -> list:
    """PBH test of the pair (C, A), from one batched SVD: each _unstable
    eigenvalue lam of A (closed right half-plane) at which [lam I - A; C] has
    _rank(., tol) below n, with x, a unit eigenvector of A that C
    annihilates.  Of a conjugate pair only the member with Im lam >= 0 is
    tested (A, C real); x is phase-aligned on its largest entry, and real for
    a real lam.  (A, B) is stabilizable iff (B', A') has no failure."""
    n = A.shape[0]
    lams = np.linalg.eigvals(A)
    lams = lams[_unstable(lams.real) & (lams.imag >= 0)]
    M = np.concatenate([lams[:, None, None] * np.eye(n) - A,
                        np.broadcast_to(C, (len(lams),) + C.shape)], axis=1)
    _, sv, vh = np.linalg.svd(M)
    out = []
    for lam, s, v in zip(lams, sv, vh):
        if _rank(s, tol) < n:
            x = v[-1].conj() / v[-1, np.argmax(abs(v[-1]))].conj()  # largest entry 1
            x = x.real if lam.imag == 0 else x
            out.append((complex(lam), x / np.linalg.norm(x)))
    return out


@dataclass(frozen=True)
class StrategyProfile:
    """Target feedback gains, one m_i x n block per player."""

    K: tuple

    def __init__(self, K):
        Ks = tuple(as_matrix(Ki, f"K[{i}]") for i, Ki in enumerate(K))
        object.__setattr__(self, "K", Ks)
        object.__setattr__(self, "_factored", None)  # closed_loop_schur's (Acl, T, U), once tested

    @classmethod
    def stabilizing(cls, system: GameSystem, K) -> "StrategyProfile":
        """Construct and enforce dimensions plus closed-loop stability, the one
        stabilizability test of a game: a stabilizing K certifies the plant
        (Hautus), and a failing one is told apart from an unstabilizable plant
        by one PBH test, which is reported first.  Stability is read off the
        real Schur form Acl' = U T U' (no _unstable diagonal entry), and the
        profile keeps it for closed_loop_schur: a command that loads its game
        this way factors Acl once."""
        prof = cls(K)
        if len(prof.K) != system.num_players:
            raise DimensionError("one gain per player required")
        for i, (Ki, Bi) in enumerate(zip(prof.K, system.B)):
            if Ki.shape != (Bi.shape[1], system.n):
                raise DimensionError(
                    f"K[{i}] has shape {Ki.shape}, expected {(Bi.shape[1], system.n)}"
                )
        Acl = closed_loop(system, prof.K)
        T, U = _schur(Acl.T)
        if _unstable(T.diagonal()).any():
            if _pbh_failures(system.A.T, np.hstack(system.B).T, RANK_TOL):
                raise ValueError("(A, [B_1 ... B_N]) is not stabilizable")
            raise ValueError("profile does not stabilize the closed loop")
        object.__setattr__(prof, "_factored", (Acl, T, U))
        return prof


def closed_loop(system: GameSystem, K) -> np.ndarray:
    Acl = system.A.copy()
    for Bi, Ki in zip(system.B, K):
        Acl -= Bi @ Ki
    return Acl


def closed_loop_schur(system: GameSystem, profile: StrategyProfile):
    """(Acl, T, U): the closed loop of the profile on this plant and its real
    Schur form Acl' = U T U' (numerics._schur), which the Hurwitz test, the
    Kalman maps' adjoint stack and verify_nash share.  The factorization
    StrategyProfile.stabilizing tested the profile with is returned when it
    was of this same Acl; any other profile is factored here."""
    Acl = closed_loop(system, profile.K)
    held = profile._factored
    if held is not None and np.array_equal(held[0], Acl):
        return held
    return (Acl, *_schur(Acl.T))


def is_stabilizing(system: GameSystem, K) -> bool:
    """True iff A - sum_i B_i K_i has no _unstable eigenvalue (is_hurwitz)."""
    return is_hurwitz(closed_loop(system, K))


def frozen_loop(system: GameSystem, K, i: int) -> np.ndarray:
    """A_tilde_i = A - sum_{j != i} B_j K_j: player i's plant with every other
    gain frozen in, summed in player order."""
    A_tilde = system.A.copy()
    for j, (Bj, Kj) in enumerate(zip(system.B, K)):
        if j != i:
            A_tilde -= Bj @ Kj
    return A_tilde


def reduced_system(system: GameSystem, profile: StrategyProfile, i: int):
    """Player i's view: (A_tilde_i, A_cl), all other gains frozen in A_tilde_i
    (frozen_loop); A_cl is closed_loop's, bitwise the matrix
    StrategyProfile.stabilizing certified."""
    _listed_players(system, [i])
    return frozen_loop(system, profile.K, i), closed_loop(system, profile.K)


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


def krylov_matrix(A, B) -> np.ndarray:
    """The controllability (Krylov) matrix [B, AB, ..., A^{n-1} B] of (A, B)."""
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def controllable_basis(A, B) -> np.ndarray:
    """Orthonormal basis (columns) of the controllable subspace of (A, B):
    the numerical range of krylov_matrix(A, B)."""
    u, sv, _ = np.linalg.svd(krylov_matrix(A, B), full_matrices=False)
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
