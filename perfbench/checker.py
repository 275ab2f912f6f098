"""Independent grading of cost sets and infeasibility claims.

Nothing here imports the package under test: the program must not grade
itself. Value matrices come from scipy's Bartels-Stewart Lyapunov solver.

A profile K is a feedback Nash equilibrium for costs (Q, R) when the closed
loop is Hurwitz and, for every player i, the solution P_i of

    Acl' P_i + P_i Acl + Q_i + sum_j K_j' R_ij K_j = 0

is positive semidefinite and satisfies stationarity R_ii K_i = B_i' P_i, with
Q_i >= 0, R_ii > 0 and R_ij >= 0. P_i is then the stabilizing solution of
player i's Riccati equation with the other gains frozen, so K_i is a best
response.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

# Relative tolerances. Reports print floats with 13 significant digits and the
# projection loops stop at relative gaps of 1e-6 to 1e-10, so 1e-6 separates
# round-off from a wrong answer by orders of magnitude on every game here.
STATIONARITY_TOL = 1e-6
CONE_TOL = 1e-8


@dataclass(frozen=True)
class NashCheck:
    ok: bool
    reason: str
    stationarity: tuple = ()  # relative residual per player


def _min_eig(M) -> float:
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def _scale(*Ms) -> float:
    return max([1.0] + [float(np.linalg.norm(M)) for M in Ms])


def is_nash(A, B, K, Q, R) -> NashCheck:
    """Check that K is a feedback Nash equilibrium of the game with costs (Q, R)."""
    A = np.asarray(A, dtype=float)
    N = len(B)
    Acl = A - sum(Bj @ Kj for Bj, Kj in zip(B, K))
    if np.max(np.linalg.eigvals(Acl).real) >= 0.0:
        return NashCheck(False, "closed loop not Hurwitz")
    stat = []
    for i in range(N):
        if _min_eig(Q[i]) < -CONE_TOL * _scale(Q[i]):
            return NashCheck(False, f"Q[{i}] not PSD")
        if _min_eig(R[i][i]) <= CONE_TOL * _scale(R[i][i]):
            return NashCheck(False, f"R[{i}][{i}] not PD")
        for j in range(N):
            if j != i and _min_eig(R[i][j]) < -CONE_TOL * _scale(R[i][j]):
                return NashCheck(False, f"R[{i}][{j}] not PSD")
        W = Q[i] + sum(K[j].T @ R[i][j] @ K[j] for j in range(N))
        P = sla.solve_continuous_lyapunov(Acl.T, -0.5 * (W + W.T))
        P = 0.5 * (P + P.T)
        if _min_eig(P) < -CONE_TOL * _scale(P):
            return NashCheck(False, f"P[{i}] not PSD", tuple(stat))
        lhs, rhs = R[i][i] @ K[i], B[i].T @ P
        stat.append(float(np.linalg.norm(lhs - rhs)) / _scale(lhs, rhs))
        if stat[-1] > STATIONARITY_TOL:
            return NashCheck(False, f"stationarity of player {i}: {stat[-1]:.3e}", tuple(stat))
    return NashCheck(True, "", tuple(stat))


def fails_w0_test(A, B, K) -> bool:
    """True when some player's return difference at w = 0 certifies infeasibility.

    With the other gains frozen, player i's Kalman identity at w = 0 reads
    T' R T - R = G' Q G >= 0 with T = I - K_i A_i^{-1} B_i. A real
    eigenvector T e = d e with |d| < 1 gives e'(T' R T - R)e = (d^2 - 1) e'Re < 0
    for every R > 0, so no costs induce the profile.
    """
    A = np.asarray(A, dtype=float)
    for i in range(len(B)):
        Ai = A - sum(B[j] @ K[j] for j in range(len(B)) if j != i)
        try:
            T = np.eye(B[i].shape[1]) - K[i] @ np.linalg.solve(Ai, B[i])
        except np.linalg.LinAlgError:
            continue  # pole at s = 0: this player gives no w = 0 certificate
        d = np.linalg.eigvals(T)
        real = d[np.abs(d.imag) <= 1e-12 * max(1.0, float(np.max(np.abs(d))))].real
        if np.any(np.abs(real) < 1.0 - 1e-9):
            return True
    return False
