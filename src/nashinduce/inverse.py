"""Frequency-domain Nash-inducibility pipeline, in state space for every player.

Phi_i = D_i'(-s) (T_i'(-s) T_i(s) - I) D_i(s), with
T_i = I + K_i (sI - A_tilde_i)^-1 B_i the return difference, so by
congruence Phi_i(jw) >= 0 iff I - S_i(jw)^* S_i(jw) >= 0, where
S_i = T_i^-1 = I - K_i (sI - Acl)^-1 B_i (Kalman's return-difference
inequality).  Its normal rank p is read at two fixed frequencies; the
frequencies where it can change sign are the near-imaginary eigenvalues of
one Hamiltonian-type pencil (rank-completed when p < m_i), and one
lambda_min probe per interval decides the whole axis.  When p < m_i the
gap's null vectors span the states X_N that every feasible Q_i annihilates,
and an eigenvector of A_tilde_i in X_N with eigenvalue in the closed right
half-plane violates the rank condition (vacuous when p = m_i).
analyze_player returns both verdicts as one flat PlayerAnalysis, with the
gap's lambda_min at the circle witness (Phi's sign there).  Costs are
recovered by the time-domain search feasibility.solve_feasibility_projection;
solve_kalman_general and solve_kalman_Q run it for one player.  The
polynomial route at the end of the module is reference code only.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import polymat
from .feasibility import KalmanSolution, _stationarity_map, player_feasibility
from .numerics import (
    NumericalFailureError,
    _rank,
    _stage,
    _unstable,
    matrix_rank,
    psd_project,  # noqa: F401  (perfbench's tracing test reads inverse.psd_project)
)
from .polymat import (
    PolyMatrix,
    compress_columns,
    rhp_roots_matrix,
    unimodular_det_constant,
    unit_columns,
)
from .realization import (
    CoprimeFactorization,
    GameSystem,
    StrategyProfile,
    _pbh_failures,
    controllable_basis,
    reduced_system,
)

CIRCLE_TOL = 1e-9    # relative lambda_min below which a circle probe fails
# Two fixed frequencies at which the normal rank of I - S'S is read; the
# larger rank wins, so a zero at one of them cannot lower it.
RANK_FREQUENCIES = (0.5772156649015329, 1.6180339887498949)
# A pencil eigenvalue with |Re| <= AXIS_TOL max(1, |lambda|) is a crossing.
AXIS_TOL = 1e-6
COMPLETION_SEED = 20190303  # seed of the rank-completing term of a singular pencil
# The rank condition reads the gap's null vectors at NULL_FREQUENCY NULL_RATIO^j;
# a direction of their span below NULL_SPAN_TOL (relative singular value) is
# round-off, and an eigenvector within NULL_EIGVEC_TOL of the span lies in it.
NULL_FREQUENCY, NULL_RATIO = 0.37, 1.7
NULL_SPAN_TOL, NULL_EIGVEC_TOL = 1e-7, 1e-5


# ---------------------------------------------------------------------------
# State-space circle criterion and rank condition
# ---------------------------------------------------------------------------

def return_difference_gap(A_cl, B, K, w):
    """I - S(jw)^* S(jw) for each frequency in w, S = I - K (sI - A_cl)^-1 B,
    as a (len(w), m, m) stack, with |G(jw)| (Frobenius) per frequency and
    the resolvent X = (jwI - A_cl)^-1 B it solved for.

    It is formed as G + G^* - G^* G with G = K (jwI - A_cl)^-1 B, so no
    identity cancels: as w grows the gap falls off like |G|^2 ~ 1/w^2 (the
    1/w term cancels when K B is symmetric) while its round-off stays
    relative to |G|, not to 1.
    """
    w = np.asarray(w, dtype=float)
    n = A_cl.shape[0]
    X = np.linalg.solve(1j * w[:, None, None] * np.eye(n) - A_cl,
                        np.broadcast_to(B, (w.size,) + B.shape))
    G = K @ X
    Gh = G.conj().transpose(0, 2, 1)
    return G + Gh - Gh @ G, np.linalg.norm(G, axis=(1, 2)), X


def return_difference_rank(A_cl, B, K) -> int:
    """Normal rank of I - S'S (= that of Phi): its numerical rank at
    RANK_FREQUENCIES, the larger of the two."""
    gaps, _, _ = return_difference_gap(A_cl, B, K, RANK_FREQUENCIES)
    return max(matrix_rank(M) for M in gaps)


def return_difference_circle(A_cl, B, K, k):
    """Test I - S(jw)^* S(jw) >= 0 for all real w (so Phi(jw) >= 0), for a
    Phi of normal rank m - k.

    det(I - S'(-s) S(s)) vanishes exactly at the finite eigenvalues of the
    pencil lambda E - H, H = [[A_cl, 0, B], [K'K, -A_cl', -K'], [K, B', 0]],
    E = diag(I, I, 0) (one QZ call, LAPACK ggev); the near-imaginary ones
    give the crossing frequencies |Im lambda|.  When k > 0 that determinant
    vanishes everywhere and the pencil is singular; a rank-k completing term
    tau (U D_A V', U D_B V'), with U, V orthonormal and D_A, D_B diagonal
    from COMPLETION_SEED and tau = max(1, |H|), makes it regular, keeps the
    eigenvalues of its regular part (the crossings) exactly and adds random
    ones, which can only add probes (Hochstenbach, Mehl & Plestenjak, SIAM
    J. Matrix Anal. Appl. 40(3), 2019).  Between consecutive crossings no
    eigenvalue of the gap changes sign, so it is probed at w = 0, at the
    midpoints and beyond the last crossing, all in one batched solve.  A
    probe fails when lambda_min < -CIRCLE_TOL |G| (1 + |G|), a bound that
    shrinks with the gap's 1/w^2 tail.  Round-off eigenvalues near the axis
    only add probes.  The gap is even in w (real data), so w >= 0 suffices.
    Returns (ok, witness, gap, probes): the first failing frequency and the
    gap's lambda_min there, Phi's sign by congruence (both None if none fails).
    """
    from scipy.linalg.lapack import dggev

    n, m = B.shape
    H = np.zeros((2 * n + m, 2 * n + m))
    H[:n, :n], H[:n, 2 * n:] = A_cl, B
    H[n:2 * n, :n], H[n:2 * n, n:2 * n], H[n:2 * n, 2 * n:] = K.T @ K, -A_cl.T, -K.T
    H[2 * n:, :n], H[2 * n:, n:2 * n] = K, B.T
    E = np.diag(np.repeat([1.0, 0.0], [2 * n, m]))
    if k:
        rng = np.random.default_rng(COMPLETION_SEED)
        U, V = (np.linalg.qr(rng.standard_normal((2 * n + m, k)))[0] for _ in range(2))
        d_a, d_b = max(1.0, np.linalg.norm(H)) * rng.standard_normal((2, k))
        H += (U * d_a) @ V.T
        E += (U * d_b) @ V.T
    alphar, alphai, beta, *_, info = dggev(H, E, compute_vl=0, compute_vr=0,
                                           overwrite_a=1, overwrite_b=1)
    if info != 0:
        raise NumericalFailureError(f"QZ iteration failed (ggev info {info})")
    finite = beta != 0.0
    lam = (alphar[finite] + 1j * alphai[finite]) / beta[finite]
    near = np.abs(lam.real) <= AXIS_TOL * np.maximum(1.0, np.abs(lam))
    cross = np.unique(np.abs(lam[near].imag))
    probes = [0.0]
    if cross.size:
        probes += list(0.5 * (cross[1:] + cross[:-1])) + [2.0 * cross[-1] + 1.0]
    gaps, g, _ = return_difference_gap(A_cl, B, K, probes)
    lam = np.linalg.eigvalsh(gaps)[:, 0]
    fails = np.nonzero(lam < -CIRCLE_TOL * g * (1.0 + g))[0]
    if not fails.size:
        return True, None, None, len(probes)
    return False, float(probes[fails[0]]), float(lam[fails[0]]), len(probes)


@dataclass(frozen=True)
class RankViolation:
    """An _unstable eigenvalue s0 of A_tilde_i whose unit eigenvector x every
    feasible Q_i annihilates; `boundary` when -s0 is _unstable too (on the axis)."""

    s0: complex
    x: np.ndarray
    boundary: bool


def rank_condition(A_tilde, A_cl, B, K, k) -> tuple:
    """The rank condition of a player whose Phi has normal rank m - k (vacuous
    when k = 0).  Each of the gap's k null vectors u at a frequency w gives
    x = (jwI - A_cl)^-1 B u = S(jw) D~(jw)^-1 u, and Phi = S~' Q S makes
    Q x = 0 for every feasible Q; so every feasible Q annihilates X_N, the
    real span of all such x.  A violation is an eigenvector of A_tilde in X_N
    with eigenvalue in the closed right half-plane: the PBH test of
    (V', A_tilde), V an orthonormal basis of the complement of X_N.  Returns
    the violations, a tuple of RankViolation (empty: the condition holds)."""
    if not k:
        return ()
    # x is rational in w, so n + 1 generic frequencies span X_N.
    w = NULL_FREQUENCY * NULL_RATIO ** np.arange(A_cl.shape[0] + 1)
    gaps, _, X = return_difference_gap(A_cl, B, K, w)
    lam, U = np.linalg.eigh(gaps)
    x = X @ np.take_along_axis(U, np.argsort(abs(lam))[:, None, :k], axis=2)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    basis, s, _ = np.linalg.svd(np.concatenate([x.real, x.imag], axis=2)
                                .transpose(1, 0, 2).reshape(len(A_cl), -1))
    d = _rank(s, NULL_SPAN_TOL)
    return tuple(RankViolation(s0=s0, x=x, boundary=bool(_unstable(-s0.real)))
                 for s0, x in _pbh_failures(A_tilde, basis[:, d:].T, NULL_EIGVEC_TOL))


# ---------------------------------------------------------------------------
# Kalman-equation solvers
# ---------------------------------------------------------------------------

def solve_kalman_Q(system: GameSystem, profile: StrategyProfile, i: int) -> KalmanSolution:
    """Find Q >= 0 with K_i = B_i' P, P the Lyapunov solution for the state
    weight Q + K_i' K_i: the Kalman equation with R pinned to I, searched by
    feasibility.player_feasibility on its R_ii = I slice."""
    return player_feasibility(system, profile, i, "q-only", *_stationarity_map(system, profile, i))


def solve_kalman_general(system: GameSystem, profile: StrategyProfile, i: int) -> KalmanSolution:
    """Joint unknowns (Q, R):  R K_i = B_i' P, P the Lyapunov solution for the
    state weight Q + K_i' R K_i (the Kalman equation with P eliminated).

    The solution set is a cone, searched on the normalization slice
    trace(R) = m for Q >= 0, R >= R_FLOOR I by feasibility.player_feasibility,
    the time-domain oracle's search.
    """
    return player_feasibility(system, profile, i, "general", *_stationarity_map(system, profile, i))


# ---------------------------------------------------------------------------
# Per-player pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlayerAnalysis:
    """One player's frequency-domain verdict: the normal rank p of Phi, the
    circle criterion (its first failing probe frequency and the gap's
    lambda_min there, both None when it holds, and the number of probe
    frequencies) and the rank condition's violations."""

    index: int
    controllable: bool
    p: int
    circle_ok: bool
    circle_witness: float | None
    circle_gap: float | None
    probes: int
    violations: tuple
    warnings: tuple

    @property
    def rank_ok(self) -> bool:
        return not self.violations

    @property
    def inducible(self) -> bool:
        return self.circle_ok and self.rank_ok


def analyze_player(system: GameSystem, profile: StrategyProfile, i: int) -> PlayerAnalysis:
    """Circle criterion and rank condition of player i, in state space.  A
    numerical failure raises numerics.StageError naming the stage, "circle"
    or "rank_condition"."""
    A_tilde, A_cl = reduced_system(system, profile, i)
    B, K = system.B[i], profile.K[i]
    with _stage(i, "circle"):
        controllable = controllable_basis(A_tilde, B).shape[1] == system.n
        p = return_difference_rank(A_cl, B, K)
        ok, witness, gap, probes = return_difference_circle(A_cl, B, K, B.shape[1] - p)
    with _stage(i, "rank_condition"):
        violations = rank_condition(A_tilde, A_cl, B, K, B.shape[1] - p)
    warnings = []
    if not controllable:
        warnings.append(f"player {i}: uncontrollable subspace present; "
                        "frequency-domain statements restricted to the controllable part")
    warnings += [f"player {i}: rank violation on the imaginary-axis boundary at {v.s0}"
                 for v in violations if v.boundary]
    return PlayerAnalysis(index=i, controllable=controllable, p=p, circle_ok=ok,
                          circle_witness=witness, circle_gap=gap, probes=probes,
                          violations=violations, warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# Reference: the polynomial route (no production caller; the tests check the
# state-space route against it)
# ---------------------------------------------------------------------------

PARA_HERMITIAN_TOL = 1e-8
NULL_VEC_TOL = 1e-7  # relative singular value below which a rank root has a real witness


def build_phi(fac: CoprimeFactorization) -> PolyMatrix:
    """Phi(s) = Dt'(-s) Dt(s) - D'(-s) D(s); para-Hermitian by construction."""
    if fac.D_tilde is None:
        raise ValueError("factorization has no feedback attached")
    phi = fac.D_tilde.paraconjugate() @ fac.D_tilde - fac.D.paraconjugate() @ fac.D
    # Kill the antisymmetric round-off part.
    return 0.5 * (phi + phi.paraconjugate())


def _require_para_hermitian(phi: PolyMatrix) -> None:
    defect = (phi - phi.paraconjugate()).coeff_norm()
    if defect > PARA_HERMITIAN_TOL * max(1.0, phi.coeff_norm()):
        raise ValueError("matrix is not para-Hermitian")


def _min_eig_at(phi: PolyMatrix, w: float) -> float:
    M = phi.eval(1j * w)
    M = 0.5 * (M + M.conj().T)
    return float(np.linalg.eigvalsh(M).min())


def _circle_frequencies(phi: PolyMatrix) -> list:
    """Probe frequencies of the exact circle criterion: 0, one beyond each end
    and the midpoints between the real parts of the roots of every e_k(jw);
    none for Phi = 0."""
    if phi.is_zero():
        return []
    bounds = []
    for e in phi.charpoly()[1:]:
        g = (e * 1j ** np.arange(e.size)).real  # e_k(jw) as a real polynomial in w
        bounds.extend(polymat.poly_roots(g).real)
    bounds = np.unique(bounds)
    candidates = [0.0]
    if bounds.size:
        candidates += [bounds[0] - 1.0, bounds[-1] + 1.0]
        candidates += list(0.5 * (bounds[1:] + bounds[:-1]))
    return candidates


def circle_criterion(phi: PolyMatrix, frequencies=None):
    """Test Phi(jw) >= 0 for all real w, exactly.

    The coefficients of the characteristic polynomial of the Hermitian
    matrix Phi(jw) are +-e_k(jw), k = 1..m (e_k the sum of the k x k
    principal minor determinants), and its roots are real, so by Descartes'
    rule of signs the signs of the e_k(jw) fix how many eigenvalues are
    negative.  Between two consecutive real parts of roots of the e_k(jw)
    (taken over every root, so that round-off which pushes a multiple real
    root off the axis moves no boundary) no e_k changes sign, and one
    lambda_min probe per interval decides the whole axis.  No normal rank is
    needed: an e_k that is round-off only adds probes, and a probe only fails
    where Phi(jw) has a negative eigenvalue.  The first failing probe is the
    witness, w = 0 first.  `frequencies`, when given, are those of
    _circle_frequencies(phi).  Returns (ok, witness, "exact").
    """
    _require_para_hermitian(phi)
    if phi.is_zero():
        return True, None, "exact"
    scale = max(1.0, phi.coeff_norm())
    if frequencies is None:
        frequencies = _circle_frequencies(phi)
    for w in frequencies:
        if _min_eig_at(phi, w) < -CIRCLE_TOL * scale:
            return False, float(w), "exact"
    return True, None, "exact"


# The polynomial route's analysis: also Phi and its column compression,
# Phi L = [phi_tilde 0]; its rank condition's verdict, which can fail with no
# violation listed; and a rank drop of it, D L v = 0 at s0.
PolyPhiAnalysis = namedtuple("PolyPhiAnalysis", "p circle_ok circle_witness probes phi L phi_tilde")
PolyRankCertificate = namedtuple("PolyRankCertificate", "satisfied violations")
PolyRankViolation = namedtuple("PolyRankViolation", "s0 v real_v_available boundary")


def analyze_phi(fac: CoprimeFactorization) -> PolyPhiAnalysis:
    phi = build_phi(fac)
    L, phi_tilde, p = compress_columns(phi)
    unimodular_det_constant(L)
    frequencies = _circle_frequencies(phi)
    ok, witness, _ = circle_criterion(phi, frequencies=frequencies)
    return PolyPhiAnalysis(p=p, circle_ok=ok, circle_witness=witness, probes=len(frequencies),
                           phi=phi, L=L, phi_tilde=phi_tilde)


def check_rank_condition(fac: CoprimeFactorization,
                         analysis: PolyPhiAnalysis) -> PolyRankCertificate:
    """No s in the closed RHP (Re s >= -polymat.RHP_MARGIN) may admit a
    nonzero v with D L v = 0 whose leading p entries vanish.

    Vacuous when Phi has full normal rank.  The verdict only counts
    violations with a real witness vector; complex-only witnesses are
    reported but excluded from `satisfied`.  A trailing block of D L that is
    rank deficient everywhere fails with no violation listed.
    """
    m = fac.m
    p = analysis.p
    if p >= m:
        return PolyRankCertificate(satisfied=True, violations=())
    DL = fac.D @ analysis.L
    T = DL.select_columns(range(p, m))
    if T.is_zero():
        return PolyRankCertificate(satisfied=False, violations=())
    try:
        roots = rhp_roots_matrix(T)
    except ValueError:
        # Normal rank of T below its column count: deficient everywhere.
        return PolyRankCertificate(satisfied=False, violations=())
    # The null-vector test runs on the column-scaled T that confirmed each
    # root, so large coefficients do not hide a real witness.
    Tn, col_norms = unit_columns(T)
    violations = []
    for r in roots:
        u = r.null_direction
        s0 = r.location
        real_ok = False
        v_real = None
        if abs(s0.imag) <= 1e-9:
            Tr = Tn.eval(complex(s0.real)).real
            ns = _null_vec(Tr, col_norms)
            if ns is not None:
                real_ok, v_real = True, ns
        else:
            M = Tn.eval(s0)
            ns = _null_vec(np.vstack([M.real, M.imag]), col_norms)
            if ns is not None:
                real_ok, v_real = True, ns
        u_use = v_real if real_ok else u
        v = np.zeros(m, dtype=float if real_ok else complex)
        v[p:] = u_use
        violations.append(PolyRankViolation(s0=s0, v=v, real_v_available=real_ok,
                                            boundary=r.boundary))
    satisfied = not any(v.real_v_available for v in violations)
    return PolyRankCertificate(satisfied=satisfied, violations=tuple(violations))


def _null_vec(M, col_norms):
    """Unit null vector of M diag(col_norms), found on the real column-scaled
    M; None when M has no singular value below NULL_VEC_TOL (relative)."""
    u, s, vh = np.linalg.svd(M)
    if s.size == 0 or s[-1] <= NULL_VEC_TOL * max(1.0, s[0]):
        v = vh[-1] / col_norms
        return v / np.linalg.norm(v)
    return None
