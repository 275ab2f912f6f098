"""Shared generators for the property-based tests.

Random games are built forward: pick a plant and cost weights, run the
coupled-Riccati solver from a stabilizing seed, and keep the instances where
it converges.  Those gains are Nash by construction, which gives the inverse
pipeline known-good inputs.
"""

import numpy as np
import pytest

from nashinduce import (
    CostParameters,
    GameSystem,
    StrategyProfile,
    closed_loop,
    is_stabilizing,
    solve_coupled_are,
)
from nashinduce.feasibility import _kalman_map, _player_nullspace, _stationarity_map
from nashinduce.forward import KLEINMAN_MAX_ITER, KLEINMAN_TOL
from nashinduce.numerics import (
    HURWITZ_MARGIN,
    R_FLOOR,
    RANK_TOL,
    _identity_start,
    _rank,
    affine_slice,
    as_matrix,
    cone_verdict,
    nullspace,
    project_affine_cone,
    psd_project,
    row_basis,
    solve_lyapunov,
    sym_basis,
    sym_blocks,
    sym_dim,
    sym_pack,
    sym_unpack,
    symmetrize,
)


def random_psd(rng, n, rank=None):
    r = n if rank is None else rank
    C = rng.standard_normal((r, n))
    return C.T @ C


def random_pd(rng, n):
    return random_psd(rng, n) + (0.2 + rng.random()) * np.eye(n)


def psd_sqrt_factor(Q, tol=RANK_TOL):
    """Rank-revealing factor C with C'C = Q for PSD Q; C has rank(Q) rows."""
    w, V = np.linalg.eigh(symmetrize(Q, name="Q"))
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    keep = w > tol * scale
    return np.sqrt(w[keep])[:, None] * V[:, keep].T


def svd_row_basis(M):
    """Reference of numerics.row_basis: the leading right singular vectors of
    one thin SVD of M, as many as the rank rule _rank keeps."""
    u, s, vh = np.linalg.svd(as_matrix(M), full_matrices=False)
    return vh[:_rank(s, RANK_TOL)].T


def max_principal_sine(V, W) -> float:
    """sin of the largest principal angle between span(V) and span(W), both
    with orthonormal columns and as many of them: |V - W W'V|_2."""
    return float(np.linalg.norm(V - W @ (W.T @ V), 2)) if V.size else 0.0


# The package's stationarity maps act on Schur-coordinate state weights
# Qh = U'QU (feasibility.stationarity_maps); the references act on Q itself.

def congruence(U):
    """The packed congruence Qh -> U Qh U' as a matrix: sym_pack(U Qh U') =
    congruence(U) @ sym_pack(Qh), an orthogonal matrix, since
    vec(U X U') = (U (x) U) vec(X) and sym_basis is an isometry."""
    D = sym_basis(len(U))
    return D.T @ np.kron(U, U) @ D


def original_map(M, U):
    """A stationarity map over packed (Qh, R_i1..R_iN) as the same map over
    packed (Q, R_i1..R_iN): its Qh columns composed with Q -> U'QU."""
    nq = sym_dim(len(U))
    return np.hstack([M[:, :nq] @ congruence(U).T, M[:, nq:]])


def original_stationarity_map(system, profile, i):
    """Player i's stationarity map over packed (Q_i, R_i1..R_iN)."""
    return original_map(*_stationarity_map(system, profile, i))


# Per-block references of the fused cone kernel in numerics: one sym_unpack,
# psd_project and sym_pack per block, and the alternating-projection loop over them.

def loop_sym_blocks(x, layout):
    blocks, start = [], 0
    for size, _ in layout:
        stop = start + sym_dim(size)
        blocks.append(sym_unpack(x[start:stop], size))
        start = stop
    return blocks


def loop_cone_project(x, layout):
    return np.concatenate([sym_pack(psd_project(X, floor))
                           for X, (_, floor) in zip(loop_sym_blocks(x, layout), layout)])


def loop_project_affine_cone(x_p, V, layout, cap, tol):
    if V.shape[1] == V.shape[0]:
        return x_p, "point", 0
    x = _identity_start(x_p, V, layout)  # the package's start, so first steps agree bitwise
    for it in range(1, cap + 1):
        c = loop_cone_project(x, layout)
        x = c - V @ (V.T @ c) + x_p
        if float(np.linalg.norm(x - c)) <= tol * max(1.0, float(np.linalg.norm(x))):
            return x, "converged", it
    return x, "cap", cap


# Dykstra reference of nearest_params' projection: alternating projections
# between range(Z) and the cones, with Dykstra's correction on the cone step so
# that the limit is the projection of x0 onto their intersection.

def dykstra_nearest(x0, Z, layout, cap, tol):
    """(x, converged, iterations); converged also requires the point to lie on
    range(Z) within 1e-7 and in the cones."""
    x = x0.copy()
    q_corr = np.zeros_like(x)
    converged = False
    its = 0
    for its in range(1, cap + 1):
        y = Z @ (Z.T @ x)
        x_new = loop_cone_project(y + q_corr, layout)
        q_corr = y + q_corr - x_new
        scale = max(1.0, float(np.linalg.norm(x_new)))
        done = (float(np.linalg.norm(x_new - x)) <= tol * scale
                and float(np.linalg.norm(x_new - y)) <= 1e-6 * scale)
        x = x_new
        if done:
            converged = True
            break
    if converged:
        on_sub = float(np.linalg.norm(x - Z @ (Z.T @ x))) <= 1e-7 * max(1.0, float(np.linalg.norm(x)))
        converged = on_sub and cone_verdict(x, "point", layout)
    return x, converged, its


# Kronecker reference of the time-domain cone search: alternating projections
# over (Q_i, R_ii, P_i) in the nullspace of the vectorized system, which the
# package replaced by the search over (Q_i, R_ii) with P_i eliminated through
# the Lyapunov map.

def kronecker_rows(system, profile, i):
    """(V, trace_row): an orthonormal basis of the vectorized system's
    constraint rows over packed (Q_i, R_ii, P_i), the orthogonal complement
    of its nullspace, and the normalization row trace(R_ii)."""
    Z, (nq, _, npk) = _player_nullspace(system, profile, i)
    trace_row = np.concatenate([np.zeros(nq), sym_pack(np.eye(system.m[i])), np.zeros(npk)])
    return nullspace(Z.T), trace_row


def kronecker_player_feasibility(system, profile, i, rho=R_FLOOR):
    """(status, [Q_i, R_ii, P_i] or None, iterations), status in the words
    of feasibility.player_feasibility: "solved", "infeasible" or
    "indeterminate"."""
    n, m = system.n, system.m[i]
    V, trace_row = kronecker_rows(system, profile, i)
    x_p, V, _ = affine_slice(V, [trace_row], [m])
    if x_p is None:
        return "infeasible", None, 0
    layout = [(n, 0.0), (m, rho), (n, 0.0)]
    theta, reason, its, _ = project_affine_cone(x_p, V, layout)
    ok = cone_verdict(theta, reason, layout)
    if not ok:
        return ("indeterminate" if ok is None else "infeasible"), None, its
    return "solved", sym_blocks(theta, layout), its


# Least-squares reference of the q-only Kalman solve, which the package
# replaced by the cone search on the R_ii = I slice: the minimum-norm solution
# q of the equation in Q alone, "no_solution" when its residual exceeds 1e-8,
# then alternating projections over {Q : V'Q = V'q}.

def least_squares_kalman_Q(system, profile, i, tol=1e-8):
    """(status, kernel_dim), kernel_dim that of the map on packed Q."""
    n, m = system.n, system.m[i]
    A, MR = _kalman_map(system, i, original_stationarity_map(system, profile, i))
    b = -MR @ sym_pack(np.eye(m))
    V = row_basis(A)
    q = V @ np.linalg.lstsq(A @ V, b, rcond=None)[0]
    kernel_dim = A.shape[1] - V.shape[1]
    if float(np.linalg.norm(A @ q - b)) > tol * max(1.0, float(np.linalg.norm(b))):
        return "no_solution", kernel_dim
    layout = [(n, 0.0)]
    x, reason, _, _ = project_affine_cone(q, V, layout)
    ok = cone_verdict(x, reason, layout)
    return ("solved" if ok else ("indeterminate" if ok is None else "infeasible")), kernel_dim


# Polynomial reference of the Kalman equation: the coefficient-matching map of
# Dt'(-s) R Dt(s) - D'(-s) R D(s) = S'(-s) Q S(s) over the coprime factors,
# which the package replaced by the Lyapunov-eliminated stationarity map.

def coeff_stack(P, dmax):
    C = np.zeros((dmax, P.rows, P.cols))
    C[: P.coeffs.shape[0]] = P.coeffs
    return C.ravel()


def para_map(L, R, dmax):
    """Coefficient stack (as coeff_stack lays it out) of X -> L'(-s) X R(s),
    acting on packed symmetric X.

    Coefficient k of the product is sum_{a+b=k} (-1)^a L_a' X R_b, whose
    row-major vectorization is (-1)^a kron(L_a', R_b') vec(X).
    """
    n = L.rows
    blocks = np.zeros((dmax, L.cols * R.cols, n * n))
    for a, La in enumerate(L.coeffs):
        for b, Rb in enumerate(R.coeffs):
            blocks[a + b] += (-1.0) ** a * np.kron(La.T, Rb.T)
    return blocks.reshape(-1, n * n) @ sym_basis(n)


def poly_kalman_map(fac):
    """The joint map over packed (Q, R) whose kernel is the polynomial
    Kalman solution set of a factorization with feedback attached."""
    dmax = int(2 * max(fac.S.degree, fac.D.degree, fac.D_tilde.degree, 0) + 2)
    return np.hstack([-para_map(fac.S, fac.S, dmax),
                      para_map(fac.D_tilde, fac.D_tilde, dmax) - para_map(fac.D, fac.D, dmax)])


def eig_is_hurwitz(M) -> bool:
    """The Hurwitz test by np.linalg.eigvals: every Re(eig) < -HURWITZ_MARGIN."""
    return bool(np.max(np.linalg.eigvals(M).real) < -HURWITZ_MARGIN)


def eig_newton_kleinman(A, B, Q, R, K0):
    """Newton-Kleinman with a separate eig stability test: one eig_is_hurwitz
    before the first step and per damped trial gain, a Lyapunov solve per
    step and a final re-solve at the accepted gain.  The reference the
    solver's own-Schur-form stability test must match bitwise."""
    A = as_matrix(A)
    B = as_matrix(B)
    K = as_matrix(K0).copy()
    if not eig_is_hurwitz(A - B @ K):
        raise ValueError("Newton-Kleinman needs a stabilizing initial gain")
    Rinv = np.linalg.inv(R)
    for _ in range(KLEINMAN_MAX_ITER):
        P = solve_lyapunov(A - B @ K, Q + K.T @ R @ K)
        K_new = Rinv @ B.T @ P
        step = K_new - K
        damp = 1.0
        for _ in range(10):
            if eig_is_hurwitz(A - B @ (K + damp * step)):
                break
            damp *= 0.5
        else:
            raise RuntimeError("Newton-Kleinman lost stabilizability")
        K = K + damp * step
        if float(np.linalg.norm(step)) <= KLEINMAN_TOL * max(1.0, float(np.linalg.norm(K))):
            break
    P = solve_lyapunov(A - B @ K, Q + K.T @ R @ K)
    return Rinv @ B.T @ P, P


def gees_calls(monkeypatch) -> list:
    """Record the matrix of every real Schur factorization (LAPACK gees, not
    its workspace queries) from now on."""
    from scipy.linalg import lapack
    gees, factored = lapack.dgees, []

    def spy(select, a, *args, **kwargs):
        if kwargs.get("lwork") != -1:
            factored.append(np.array(a))
        return gees(select, a, *args, **kwargs)

    monkeypatch.setattr(lapack, "dgees", spy)
    return factored


def bass_seed(A, B):
    """A stabilizing gain for a controllable pair, via a shifted Lyapunov solve."""
    n = A.shape[0]
    beta = float(np.linalg.norm(A, 2)) + 1.0
    X = solve_lyapunov(-(A + beta * np.eye(n)).T, 2.0 * B @ B.T)
    return B.T @ np.linalg.inv(X)


def random_game(rng, allow_unstable=True):
    """One random instance: (system, costs, seed_profile) or None on a dud draw."""
    n = int(rng.integers(1, 5))
    N = int(rng.integers(1, 3))
    ms = [int(rng.integers(1, 3)) for _ in range(N)]
    A = rng.standard_normal((n, n))
    Bs = []
    for m in ms:
        B = rng.standard_normal((n, min(m, n)))
        Bs.append(B)
    if allow_unstable and rng.random() < 0.5:
        Ball = np.hstack(Bs)
        try:
            Kall = bass_seed(A, Ball)
        except (ValueError, np.linalg.LinAlgError):
            return None
        Ks, r = [], 0
        for B in Bs:
            Ks.append(Kall[r:r + B.shape[1]])
            r += B.shape[1]
    else:
        shift = max(0.0, float(np.max(np.linalg.eigvals(A).real))) + 0.5
        A = A - shift * np.eye(n)
        Ks = [np.zeros((B.shape[1], n)) for B in Bs]
    if not is_stabilizing(GameSystem(A, Bs), Ks):
        return None
    Q = [random_psd(rng, n) + 0.1 * np.eye(n) for _ in range(N)]
    system = GameSystem(A, Bs)
    costs = CostParameters.identity_R(Q, system.m)
    seed = StrategyProfile.stabilizing(system, Ks)
    return system, costs, seed


def converged_nash_games(seed, count, max_attempts=400):
    """Yield (system, costs, profile, P) for games where the solver converged."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(max_attempts):
        if len(out) >= count:
            break
        drawn = random_game(rng)
        if drawn is None:
            continue
        system, costs, seed_prof = drawn
        try:
            profile, P, converged = solve_coupled_are(system, costs, seed_prof)
        except (ValueError, RuntimeError, np.linalg.LinAlgError):
            continue
        if not converged:
            continue
        if not is_stabilizing(system, profile.K):
            continue
        out.append((system, costs, profile, P))
    return out


@pytest.fixture(scope="session")
def nash_games():
    games = converged_nash_games(seed=20240817, count=50)
    assert len(games) >= 50, f"only {len(games)} converged games generated"
    return games
