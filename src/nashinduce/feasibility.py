"""Time-domain convex feasibility oracle for the inducing-parameter set.

The set of tuples (Q_i, R_ii, P_i) that make a target profile Nash is a
convex cone cut out by a Riccati identity, a stationarity identity and
semidefiniteness constraints.  Acl is Hurwitz, so the Riccati row makes P_i
the Lyapunov solution for the folded state weight, and eliminating it leaves
the Kalman equation, one linear map in the costs with n m_i rows
(stationarity_maps: every player's map from one stack of n sum m_i adjoint
Lyapunov solves against the command's one Schur form, in its Schur
coordinates Qh_i = U'Q_iU, where the cones are the same and only an answer
maps back as Q_i = U Qh_i U').  Every search holds an orthonormal
basis V of those constraint rows (numerics.row_basis, one Householder QR),
never a basis of the map's kernel, and projects onto the kernel as
x - V(V'x).  This module searches the kernel for costs in the cones by
alternating projections (player_feasibility, the one Kalman cone search, on
a map the caller passes: the time-domain oracle on the slice trace(R_ii) =
m_i, and the q-only solve with R_ii = I pinned; solve_feasibility_projection
runs it for every listed player of a game on maps from one adjoint stack),
projects reference costs onto the feasible set (Douglas-Rachford
splitting), and folds/unfolds cross-control penalties.  Both loops run through the
Anderson-mixed fixed-point driver numerics._anderson and accept by one rule,
numerics.cone_verdict; neither runs where pinned_fails, their one certificate,
finds the closed-form block B_i' Q_i B_i outside the cones.  The Kronecker
identities (build_vectorized_system, _player_nullspace) remain as references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import CostParameters, state_weight_with_cross_terms
from .numerics import (
    POINT_SLACK,
    R_FLOOR,
    _anderson,
    _stage,
    affine_slice,
    cone_project,
    cone_verdict,
    kron,
    kron_sum,
    nullspace,
    project_affine_cone,
    row_basis,
    schur_stack,
    sym_basis,
    sym_blocks,
    sym_dim,
    sym_pack,
    sym_pack_stack,
)
from .realization import GameSystem, StrategyProfile, _listed_players, closed_loop, closed_loop_schur

NEAREST_INPUT_TOL = 1e-6  # semidefiniteness tolerance of nearest_params' reference costs


def build_vectorized_system(system: GameSystem, profile: StrategyProfile, i: int) -> np.ndarray:
    """Kronecker-vectorized identities acting on [vec(Q_i); vec(R_ii); vec(P_i)].

    The Kronecker identity only: no search uses it.  Riccati row block (n^2
    equations) and the stationarity block (n m_i equations, as vec(R_ii K_i) = (K_i' (x) I_m) vec(R_ii)); off-diagonal R
    is folded away.  Every member point with zero cross penalties lies in the
    nullspace.
    """
    _listed_players(system, [i])
    n, m = system.n, system.m[i]
    Ki = profile.K[i]
    Acl = closed_loop(system, profile.K)
    top = np.hstack([
        np.eye(n * n),
        kron(Ki.T, Ki.T),
        kron_sum(Acl.T, Acl.T),
    ])
    bottom = np.hstack([
        np.zeros((n * m, n * n)),
        kron(Ki.T, np.eye(m)),
        -kron(np.eye(n), system.B[i].T),
    ])
    return np.vstack([top, bottom])


def _player_nullspace(system, profile, i):
    """Nullspace of the vectorized system expressed over symmetric (Q, R, P).

    Columns of the returned basis are packed [Q; R; P] in the isometric
    symmetric packing, so Euclidean projections match Frobenius geometry.
    """
    n, m = system.n, system.m[i]
    M = build_vectorized_system(system, profile, i)
    Sn = sym_basis(n)
    Msym = np.hstack([M[:, :n * n] @ Sn, M[:, n * n:n * n + m * m] @ sym_basis(m),
                      M[:, n * n + m * m:] @ Sn])
    return nullspace(Msym), (sym_dim(n), sym_dim(m), sym_dim(n))


# ---------------------------------------------------------------------------
# The Kalman-equation map and the cone search over it
# ---------------------------------------------------------------------------

def stationarity_maps(system: GameSystem, profile: StrategyProfile, players=None):
    """(maps, U): the stationarity map of each listed player (all by
    default), in the Schur coordinates of the closed loop, Acl = U S U'.
    The command's one factorization Acl' = U_T T U_T' (closed_loop_schur)
    gives it as S = J T' J and U = U_T J, J the reversal permutation: S is
    upper quasi-triangular with T's standardized 2x2 blocks.  A map acts on
    packed (Qh_i, R_i1..R_iN), Qh_i = U'Q_iU, as x -> R_ii K_i - B_i' P_i,
    row-major over (a, b), a < m_i, b < n.  The congruence keeps the cones
    and the Frobenius geometry, so a cone search runs on Qh_i as on Q_i, and
    only its answer maps back as Q_i = U Qh_i U'.

    P_i is eliminated: the Riccati row determines it as the Lyapunov solution
    for the folded state weight W = Q_i + sum_j K_j' R_ij K_j, which is linear
    in the packed variables and automatically positive semidefinite on the
    cone.  Entry (a, b) of B_i' P_i is then <Y_ab, W>, Y_ab the adjoint
    solution of Acl Y + Y Acl' = -sym(B_i e_a e_b'); in Schur coordinates
    Yh_ab = U'Y_abU solves S Yh + Yh S' = -sym((U'B_i e_a)(U'e_b)'), a
    rank-one right-hand side, so player i's n m_i rows come from n m_i such
    solves: row (a, b) is -pack(Yh_ab) on Qh_i and -pack(Kh_j Yh_ab Kh_j') on
    R_ij, Kh_j = K_j U, and R_ii K_i adds pack(sym(e_a K_i[:, b]')) on R_ii.
    Every player solves against the same S, so all the players' n sum m_i
    solves are one stack (numerics.schur_stack), which a tall stack sweeps
    in one pass, and no basis change U Yh U' is formed.
    """
    players = _listed_players(system, players)
    n, ms = system.n, [system.m[i] for i in players]
    _, T, U_T = closed_loop_schur(system, profile)
    S, U = np.asfortranarray(T[::-1, ::-1].T), np.ascontiguousarray(U_T[:, ::-1])
    B = U.T @ np.hstack([system.B[i] for i in players])
    X = (B.T[:, None, :, None] * U[None, :, None, :]).reshape(-1, n, n)  # (U'B e_a)(U'e_b)'
    Y = schur_stack(S, 0.5 * (X + X.transpose(0, 2, 1)))
    Ks = [Kj @ U for Kj in profile.K]
    columns = [-sym_pack_stack(Y)] + [-sym_pack_stack(Kj @ Y @ Kj.T) for Kj in Ks]
    maps, ends = [], np.cumsum(ms) * n
    for i, mi, end in zip(players, ms, ends):
        blocks = [c[end - n * mi:end] for c in columns]
        E = np.eye(mi)[:, None, :, None] * profile.K[i].T[None, :, None, :]  # e_a K_i[:, b]'
        blocks[1 + i] = blocks[1 + i] + sym_pack_stack(E.reshape(-1, mi, mi))
        maps.append(np.hstack(blocks))
    return maps, U


def _stationarity_map(system, profile, i):
    """(M, U): player i's stationarity map alone and its Schur basis
    (stationarity_maps)."""
    maps, U = stationarity_maps(system, profile, [i])
    return maps[0], U


def _kalman_map(system: GameSystem, i: int, M):
    """(M_Q, M_R): the columns of player i's stationarity map M (its entry of
    stationarity_maps) that act on packed Qh_i and on packed R_ii (cross
    penalties left at zero)."""
    nq = sym_dim(system.n)
    off = nq + sum(sym_dim(mj) for mj in system.m[:i])
    return M[:, :nq], M[:, off:off + sym_dim(system.m[i])]


def _congruent(U, Qh) -> np.ndarray:
    """U Qh U', exactly symmetric: a Schur-coordinate answer mapped back."""
    Q = U @ Qh @ U.T
    return 0.5 * (Q + Q.T)


def pinned_fails(system: GameSystem, profile: StrategyProfile, i: int) -> bool:
    """Whether player i's pinned block puts Q_i >= 0 out of reach where R_ii
    is I or a positive scalar: B_i' P_i = R_ii K_i pins B_i' Q_i B_i to R_ii
    times -(M + M') - L'L, M = K_i Acl B_i and L = K_i B_i, and cross
    penalties only lower it.  Fails below -POINT_SLACK max(1, |M + M'|, |L|^2)."""
    Ki, Bi = profile.K[i], system.B[i]
    M, L = Ki @ closed_loop(system, profile.K) @ Bi, Ki @ Bi
    scale = max(1.0, float(np.linalg.norm(M + M.T)), float(np.linalg.norm(L)) ** 2)
    return float(np.linalg.eigvalsh(-(M + M.T) - L.T @ L).min()) < -POINT_SLACK * scale


@dataclass(frozen=True)
class KalmanSolution:
    Q: np.ndarray
    R: np.ndarray
    residual: float
    kernel_dim: int  # of the linear map (q-only: R_ii pinned), before the trace slice
    status: str  # "solved" | "no_solution" | "infeasible" | "indeterminate"
    iterations: int = 0  # of the projection loop
    gap: float = 0.0  # relative distance of the projection loop's point to the cones at stop

    @property
    def psd_ok(self) -> bool:
        return self.status == "solved"


def player_feasibility(system: GameSystem, profile: StrategyProfile, i: int, mode: str,
                       M, U) -> KalmanSolution:
    """Player i's cone search: Q_i >= 0, R_ii >= R_FLOOR I in the kernel of
    the Kalman map (_kalman_map of M, player i's entry of stationarity_maps
    in the Schur basis U), on a slice of it; the search runs on Qh_i and
    reports Q_i = U Qh_i U'.  Mode "general" slices on the normalization
    trace(R_ii) = m_i; "q-only" pins R_ii = I, one row per packed entry, and
    kernel_dim then counts the pinned map's kernel, that of its Q_i columns.  Any other
    mode raises ValueError, and an index out of range DimensionError.

    "infeasible" is certified by the identities alone: every solution has
    trace(R_ii) = 0, or the slice fixes R_ii (q-only, or m_i = 1) and its
    pinned block fails (pinned_fails: no loop runs, and the slice point is
    reported with 0 iterations and gap 0), or the slice is a single point
    outside the cones.  With R_ii pinned, a slice no solution reaches is
    "no_solution".  Otherwise cone_verdict decides: a capped loop, or a
    converged point that misses the cones by more than CONVERGED_SLACK, is
    "indeterminate".  Both modes report the residual |M theta| / max(1,
    |theta|), or, when no point reaches the slice, the relative miss of its
    first unreachable row (affine_slice), with Q = 0.
    """
    if mode not in ("general", "q-only"):
        raise ValueError(f"mode must be 'general' or 'q-only', got {mode!r}")
    _listed_players(system, [i])
    n, m = system.n, system.m[i]
    M = np.hstack(_kalman_map(system, i, M))
    V = row_basis(M)  # the Kalman equation's independent constraint rows
    nq, eye = sym_dim(n), sym_pack(np.eye(m))
    q_only = mode == "q-only"
    if q_only:  # one row per packed entry of R_ii
        pins = np.hstack([np.zeros((eye.size, nq)), np.eye(eye.size)])
        x_p, Va, miss = affine_slice(V, pins, eye)
        kernel_dim = M.shape[1] - Va.shape[1]
    else:
        x_p, Va, miss = affine_slice(V, [np.concatenate([np.zeros(nq), eye])], [m])  # trace row
        kernel_dim = M.shape[1] - V.shape[1]
    if x_p is None:
        return KalmanSolution(Q=np.zeros((n, n)), R=np.eye(m) if q_only else np.zeros((m, m)),
                              residual=miss, kernel_dim=kernel_dim,
                              status="no_solution" if q_only else "infeasible")
    layout = [(n, 0.0), (m, R_FLOOR)]
    fails = (q_only or m == 1) and pinned_fails(system, profile, i)  # the slice fixes R_ii
    theta, reason, its, gap = (x_p, "point", 0, 0.0) if fails else project_affine_cone(x_p, Va, layout)
    if q_only:  # the pinned entries exactly, not to round-off
        theta = np.concatenate([theta[:nq], eye])
    ok = not fails and cone_verdict(theta, reason, layout)
    Qh, R = sym_blocks(theta, layout)
    residual = float(np.linalg.norm(M @ theta)) / max(1.0, float(np.linalg.norm(theta)))
    return KalmanSolution(Q=_congruent(U, Qh), R=R, residual=residual, kernel_dim=kernel_dim,
                          status="solved" if ok else ("indeterminate" if ok is None else "infeasible"),
                          iterations=its, gap=gap)


@dataclass(frozen=True)
class FeasibilityResult:
    status: str  # "feasible" | "infeasible_certified_by_identity" | "indeterminate"
    solutions: tuple  # the KalmanSolution of each listed player


# A player's search status -> the game's status; of the players' statuses, the first key decides.
_GAME_STATUS = {"infeasible": "infeasible_certified_by_identity",
                "no_solution": "infeasible_certified_by_identity",
                "indeterminate": "indeterminate", "solved": "feasible"}


def solve_feasibility_projection(system: GameSystem, profile: StrategyProfile,
                                 players=None, mode: str = "general") -> FeasibilityResult:
    """The per-game cone search: player_feasibility in `mode` for every listed
    player (all by default), each on its map from one adjoint stack
    (stationarity_maps); a player certified infeasible decides the status
    first (_GAME_STATUS).  A numerical failure raises StageError(i,
    "kalman"), i the player searched (for the stack, the first listed player)."""
    players = _listed_players(system, players)
    with _stage(players[0], "kalman"):
        maps, U = stationarity_maps(system, profile, players)
    solutions = []
    for i, M in zip(players, maps):
        with _stage(i, "kalman"):
            solutions.append(player_feasibility(system, profile, i, mode, M, U))
    status = min((s.status for s in solutions), key=list(_GAME_STATUS).index)
    return FeasibilityResult(_GAME_STATUS[status], tuple(solutions))


# ---------------------------------------------------------------------------
# Nearest-parameter recovery (reference projection)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NearestResult:
    status: str
    costs: CostParameters | None
    distance: float
    iterations: tuple = ()  # Douglas-Rachford iterations of each player searched (0: no loop ran)
    gaps: tuple = ()  # each searched player's |y - x| / max(1, |y|) at stop (0: no loop ran)


def nearest_params(costs0: CostParameters, system: GameSystem,
                   profile: StrategyProfile) -> NearestResult:
    """Project reference costs onto the feasible set.

    Per player: variables x = (Qh_i, R_i1..R_iN) with P_i eliminated through
    the Lyapunov map, and min |x - x0|^2 / 2 over the stationarity map's
    kernel and the cones; the players' maps come from one adjoint stack
    (stationarity_maps), in its Schur coordinates, so x0 holds U'Q0_iU and
    the answer's Qh_i maps back as Q_i = U Qh_i U' (the distance is the
    same in either).  V, an orthonormal basis of the map's constraint
    rows, projects onto the kernel as x - V(V'x).  A player with m_i = 1
    whose pinned block fails (pinned_fails, the oracle's certificate) is
    certified infeasible with no loop (0 iterations, gap 0).  Every other
    runs Douglas-Rachford splitting (step 1) from v = x0 - V(V'x0): u = (v +
    x0) / 2, x = u - V(V'u), y = P_cone(2x - v) and v <- v + y - x, mixed by
    numerics._anderson, until |y - x| <= PROJECTION_TOL max(1, |y|).
    cone_verdict rules on y as on the oracle's converged point (a y it does
    not accept is "indeterminate"); y needs no kernel test, as |V'y| <= |y - x|,
    and no second projection: the answer's blocks are y's, which the
    distance is measured from.
    """
    costs0.validate(system, tol=NEAREST_INPUT_TOL)
    N = system.num_players
    Qs, Rrows, iterations, gaps = [], [], (), ()
    dist2 = 0.0
    maps, U = stationarity_maps(system, profile)
    for i, M in enumerate(maps):
        if system.m[i] == 1 and pinned_fails(system, profile, i):
            return NearestResult("infeasible_certified_by_identity", None, float("inf"),
                                 iterations + (0,), gaps + (0.0,))
        V = row_basis(M)  # the feasible identity directions are span(V)'s complement
        layout = [(system.n, 0.0)] + [(mj, R_FLOOR if j == i else 0.0)
                                      for j, mj in enumerate(system.m)]
        x0 = np.concatenate([sym_pack(_congruent(U.T, costs0.Q[i]))] +
                            [sym_pack(costs0.R[i][j]) for j in range(N)])

        def step(v):
            u = 0.5 * (v + x0)
            x = u - V @ (V.T @ u)
            y = cone_project(2.0 * x - v, layout)
            return v + y - x, y, float(np.linalg.norm(y - x))

        y, reason, its, gap = _anderson(step, x0 - V @ (V.T @ x0))
        if not cone_verdict(y, reason, layout):
            return NearestResult("indeterminate", None, float("inf"),
                                 iterations + (its,), gaps + (gap,))
        iterations, gaps = iterations + (its,), gaps + (gap,)
        dist2 += float(np.linalg.norm(y - x0) ** 2)
        Qh, *Rrow = sym_blocks(y, layout)
        Qs.append(_congruent(U, Qh))
        Rrows.append(Rrow)
    costs = CostParameters(Qs, Rrows)
    return NearestResult("feasible", costs, float(np.sqrt(dist2)), iterations, gaps)


# ---------------------------------------------------------------------------
# Cross-penalty transforms
# ---------------------------------------------------------------------------

def fold_cross_penalties(costs: CostParameters, profile: StrategyProfile) -> CostParameters:
    """Absorb off-diagonal penalties into the state weights.

    Qbar_i = Q_i + sum_{j != i} K_j' R_ij K_j, Rbar_ii = R_ii, Rbar_ij = 0;
    the per-player frequency-domain identity value is unchanged.
    """
    N = len(costs.Q)
    Qs = [state_weight_with_cross_terms(costs, profile, i) for i in range(N)]
    R = [[costs.R[i][j] if i == j else np.zeros_like(costs.R[i][j]) for j in range(N)]
         for i in range(N)]
    return CostParameters(Qs, R)


def unfold_cross_penalties(costs: CostParameters, profile: StrategyProfile,
                           R_choice) -> CostParameters:
    """Reintroduce desired cross penalties R_choice[i][j] >= 0 (j != i).

    Requires every Q_i strictly positive definite.  A single scalar
    lambda >= 1 inflates (Q, R_ii) so the subtracted cross terms keep the new
    state weights positive semidefinite; fold(unfold(costs)) = lambda*costs.
    """
    N = len(costs.Q)
    lam = 1.0
    sums = []
    for i in range(N):
        w = np.linalg.eigvalsh(costs.Q[i])
        if w.min() <= 0:
            raise ValueError(f"Q[{i}] must be positive definite to unfold cross penalties")
        acc = np.zeros_like(costs.Q[i])
        for j in range(N):
            if j != i:
                acc += profile.K[j].T @ np.asarray(R_choice[i][j], dtype=float) @ profile.K[j]
        acc = 0.5 * (acc + acc.T)
        sums.append(acc)
        top = float(np.linalg.eigvalsh(acc).max())
        lam = max(lam, top / float(w.min()))
    Qs = [0.5 * ((lam * costs.Q[i] - sums[i]) + (lam * costs.Q[i] - sums[i]).T)
          for i in range(N)]
    R = [[lam * costs.R[i][j] if i == j else np.asarray(R_choice[i][j], dtype=float)
          for j in range(N)] for i in range(N)]
    return CostParameters(Qs, R)
