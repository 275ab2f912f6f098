"""Frequency-domain Nash-inducibility pipeline.

For each player the circle criterion Phi_i(jw) >= 0 is decided in state
space.  Phi_i = D_i'(-s) (T_i'(-s) T_i(s) - I) D_i(s), with
T_i = I + K_i (sI - A_tilde_i)^-1 B_i the return difference, so by
congruence Phi_i(jw) >= 0 iff I - S_i(jw)^* S_i(jw) >= 0, where
S_i = T_i^-1 = I - K_i (sI - Acl)^-1 B_i (Kalman's return-difference
inequality).  Its normal rank p is read at two fixed frequencies; the
frequencies where it can change sign are the near-imaginary eigenvalues of
one Hamiltonian-type pencil, and one lambda_min probe per interval decides
the whole axis.  When Phi_i has full normal rank (p = m_i) the rank
condition is vacuous and no polynomial is formed.  Only when p < m_i does
the player take the polynomial route: a right-coprime factorization,
Phi = Dt'(-s) Dt(s) - D'(-s) D(s), its unimodular column compression, the
exact charpoly circle criterion and the closed-right-half-plane rank
condition.  Cost matrices are recovered from the Kalman equation in its
time-domain form: stationarity R K_i = B_i' P with P eliminated through the
Lyapunov equation, a linear map in (Q, R) alone with n m_i rows
(feasibility.stationarity_maps, all players' maps from one adjoint
Lyapunov stack).  Both Kalman solvers are the time-domain oracle's cone
search (feasibility.player_feasibility) on a slice of that map's kernel:
solve_kalman_general on trace(R) = m, solve_kalman_Q with R = I pinned.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import polymat
from .feasibility import KalmanSolution, player_feasibility, stationarity_maps
from .numerics import (
    NumericalFailureError,
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
    attach_feedback,
    controllable_basis,
    reduced_system,
    right_coprime_factorization,
)

PARA_HERMITIAN_TOL = 1e-8
CIRCLE_TOL = 1e-9    # relative lambda_min below which a circle probe fails (both routes)
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


@dataclass(frozen=True)
class PhiAnalysis:
    """Circle verdict and normal rank of Phi; on the polynomial route also Phi
    with its unimodular column compression (None on the state-space route).
    `probes` counts the circle criterion's probe frequencies (the exact
    route stops at the first failing one)."""

    phi: PolyMatrix | None
    L: PolyMatrix | None
    phi_tilde: PolyMatrix | None
    p: int
    circle_ok: bool
    circle_witness: float | None
    circle_method: str
    probes: int


def analyze_phi(fac: CoprimeFactorization) -> PhiAnalysis:
    phi = build_phi(fac)
    L, phi_tilde, p = compress_columns(phi)
    unimodular_det_constant(L)
    frequencies = _circle_frequencies(phi)
    ok, witness, method = circle_criterion(phi, frequencies=frequencies)
    return PhiAnalysis(phi=phi, L=L, phi_tilde=phi_tilde, p=p, circle_ok=ok,
                       circle_witness=witness, circle_method=method,
                       probes=len(frequencies))


# ---------------------------------------------------------------------------
# State-space circle criterion
# ---------------------------------------------------------------------------

# Two fixed frequencies at which the normal rank of I - S'S is read; the
# larger rank wins, so a zero at one of them cannot lower it.
RANK_FREQUENCIES = (0.5772156649015329, 1.6180339887498949)
# A pencil eigenvalue with |Re| <= AXIS_TOL max(1, |lambda|) is a crossing.
AXIS_TOL = 1e-6


def return_difference_gap(A_cl, B, K, w):
    """I - S(jw)^* S(jw) for each frequency in w, S = I - K (sI - A_cl)^-1 B,
    as a (len(w), m, m) stack, with |G(jw)| (Frobenius) per frequency.

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
    return G + Gh - Gh @ G, np.linalg.norm(G, axis=(1, 2))


def return_difference_rank(A_cl, B, K) -> int:
    """Normal rank of I - S'S (= that of Phi): its numerical rank at
    RANK_FREQUENCIES, the larger of the two."""
    gaps, _ = return_difference_gap(A_cl, B, K, RANK_FREQUENCIES)
    return max(matrix_rank(M) for M in gaps)


def return_difference_circle(A_cl, B, K):
    """Test I - S(jw)^* S(jw) >= 0 for all real w (so Phi(jw) >= 0), for a
    Phi of full normal rank.

    det(I - S'(-s) S(s)) vanishes exactly at the finite eigenvalues of the
    pencil lambda E - H, H = [[A_cl, 0, B], [K'K, -A_cl', -K'], [K, B', 0]],
    E = diag(I, I, 0) (one QZ call, LAPACK ggev); the near-imaginary ones
    give the crossing frequencies |Im lambda|.  Between consecutive
    crossings no eigenvalue of the gap changes sign, so it is probed at
    w = 0, at the midpoints and beyond the last crossing, all in one batched
    solve.  A probe fails when lambda_min < -CIRCLE_TOL |G| (1 + |G|), a
    bound that shrinks with the gap's 1/w^2 tail.  Round-off eigenvalues near the axis
    only add probes.  The gap is even in w (real data), so w >= 0 suffices.
    Returns (ok, witness, probes): the first failing frequency, or None.
    """
    from scipy.linalg.lapack import dggev

    n, m = B.shape
    H = np.zeros((2 * n + m, 2 * n + m))
    H[:n, :n], H[:n, 2 * n:] = A_cl, B
    H[n:2 * n, :n], H[n:2 * n, n:2 * n], H[n:2 * n, 2 * n:] = K.T @ K, -A_cl.T, -K.T
    H[2 * n:, :n], H[2 * n:, n:2 * n] = K, B.T
    E = np.diag(np.repeat([1.0, 0.0], [2 * n, m]))
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
    gaps, g = return_difference_gap(A_cl, B, K, probes)
    fails = np.nonzero(np.linalg.eigvalsh(gaps)[:, 0] < -CIRCLE_TOL * g * (1.0 + g))[0]
    witness = float(probes[fails[0]]) if fails.size else None
    return witness is None, witness, len(probes)


def phi_at_witness(system: GameSystem, profile: StrategyProfile, i: int, w: float):
    """lambda_min(T(jw)^* T(jw) - I), T = I + K_i (jwI - A_tilde_i)^-1 B_i the
    return difference: Phi_i(jw) up to congruence by D_i(jw), so it has the
    sign of lambda_min(Phi_i(jw)) wherever D_i(jw) is nonsingular.  None when
    A_tilde_i has an eigenvalue at jw (a pole of T)."""
    A_tilde, _ = reduced_system(system, profile, i)
    B = system.B[i]
    try:
        X = np.linalg.solve(1j * w * np.eye(system.n) - A_tilde, B)
    except np.linalg.LinAlgError:
        return None
    T = np.eye(B.shape[1]) + profile.K[i] @ X
    return float(np.linalg.eigvalsh(T.conj().T @ T - np.eye(B.shape[1]))[0])


@dataclass(frozen=True)
class RankViolation:
    s0: complex
    v: np.ndarray
    real_v_available: bool
    boundary: bool


@dataclass(frozen=True)
class RankCertificate:
    satisfied: bool
    violations: tuple
    degenerate: bool = False


def check_rank_condition(fac: CoprimeFactorization, analysis: PhiAnalysis) -> RankCertificate:
    """No s in the closed RHP (Re s >= -polymat.RHP_MARGIN) may admit a
    nonzero v with D L v = 0 whose leading p entries vanish.

    Vacuous when Phi has full normal rank.  The strict verdict only counts
    violations with a real witness vector; complex-only witnesses are
    reported but excluded from `satisfied`.
    """
    m = fac.m
    p = analysis.p
    if p >= m:
        return RankCertificate(satisfied=True, violations=())
    DL = fac.D @ analysis.L
    T = DL.select_columns(range(p, m))
    if T.is_zero():
        return RankCertificate(satisfied=False, violations=(), degenerate=True)
    try:
        roots = rhp_roots_matrix(T)
    except ValueError:
        # Normal rank of T below its column count: deficient everywhere.
        return RankCertificate(satisfied=False, violations=(), degenerate=True)
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
        violations.append(RankViolation(s0=s0, v=v, real_v_available=real_ok, boundary=r.boundary))
    satisfied = not any(v.real_v_available for v in violations)
    return RankCertificate(satisfied=satisfied, violations=tuple(violations))


def _null_vec(M, col_norms):
    """Unit null vector of M diag(col_norms), found on the real column-scaled
    M; None when M has no singular value below NULL_VEC_TOL (relative)."""
    u, s, vh = np.linalg.svd(M)
    if s.size == 0 or s[-1] <= NULL_VEC_TOL * max(1.0, s[0]):
        v = vh[-1] / col_norms
        return v / np.linalg.norm(v)
    return None


# ---------------------------------------------------------------------------
# Kalman-equation solvers
# ---------------------------------------------------------------------------

def solve_kalman_Q(system: GameSystem, profile: StrategyProfile, i: int,
                   M=None) -> KalmanSolution:
    """Find Q >= 0 with K_i = B_i' P, P the Lyapunov solution for the state
    weight Q + K_i' K_i: the Kalman equation with R pinned to I, searched by
    feasibility.player_feasibility on its R_ii = I slice.  M is player i's
    stationarity map when the caller built the game's maps in one stack."""
    return player_feasibility(system, profile, i, mode="q-only", M=M)


def solve_kalman_general(system: GameSystem, profile: StrategyProfile, i: int,
                         M=None) -> KalmanSolution:
    """Joint unknowns (Q, R):  R K_i = B_i' P, P the Lyapunov solution for the
    state weight Q + K_i' R K_i (the Kalman equation with P eliminated).

    The solution set is a cone, searched on the normalization slice
    trace(R) = m for Q >= 0, R >= R_FLOOR I by feasibility.player_feasibility,
    the time-domain oracle's search.  M is player i's stationarity map when
    the caller built the game's maps in one stack (stationarity_maps).
    """
    return player_feasibility(system, profile, i, M=M)


# ---------------------------------------------------------------------------
# Per-player pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlayerAnalysis:
    """One player's frequency-domain verdict.  `factorization` is None on the
    state-space route (Phi of full normal rank)."""

    index: int
    controllable: bool
    factorization: CoprimeFactorization | None
    phi_analysis: PhiAnalysis
    rank_certificate: RankCertificate
    kalman: KalmanSolution | None
    warnings: tuple

    @property
    def circle_ok(self) -> bool:
        return self.phi_analysis.circle_ok

    @property
    def rank_ok(self) -> bool:
        return self.rank_certificate.satisfied and not self.rank_certificate.degenerate

    @property
    def inducible(self) -> bool:
        return self.circle_ok and self.rank_ok


@dataclass(frozen=True)
class InducibilityAnalysis:
    players: tuple
    inducible: bool


class StageError(NumericalFailureError):
    """A numerical failure in one stage of one player's analysis."""

    def __init__(self, player: int, stage: str, reason: str):
        super().__init__(f"player {player}: {stage}: {reason}")
        self.player, self.stage, self.reason = player, stage, reason


@contextmanager
def _stage(i: int, name: str):
    try:
        yield
    except (NumericalFailureError, np.linalg.LinAlgError) as exc:
        raise StageError(i, name, str(exc)) from exc


def analyze_player(system: GameSystem, profile: StrategyProfile, i: int,
                   solve_costs: bool = True, mode: str = "general", M=None) -> PlayerAnalysis:
    """Circle criterion and rank condition of player i (state-space route when
    Phi has full normal rank, polynomial route otherwise), and with
    `solve_costs` the Kalman-equation costs (from M, player i's stationarity
    map, when given).  A numerical failure raises
    StageError naming the stage: "circle" (state space), "realization",
    "phi", "rank_condition" or "kalman"."""
    A_tilde, A_cl = reduced_system(system, profile, i)
    B, K = system.B[i], profile.K[i]
    m = B.shape[1]
    with _stage(i, "circle"):
        controllable = controllable_basis(A_tilde, B).shape[1] == system.n
        p = return_difference_rank(A_cl, B, K)
        circle = return_difference_circle(A_cl, B, K) if p == m else None
    if circle is not None:
        ok, witness, probes = circle
        analysis = PhiAnalysis(phi=None, L=None, phi_tilde=None, p=p, circle_ok=ok,
                               circle_witness=witness, circle_method="state_space",
                               probes=probes)
        fac, cert = None, RankCertificate(satisfied=True, violations=())
    else:
        with _stage(i, "realization"):
            fac = attach_feedback(right_coprime_factorization(A_tilde, B), K)
        with _stage(i, "phi"):
            analysis = analyze_phi(fac)
        with _stage(i, "rank_condition"):
            cert = check_rank_condition(fac, analysis)
    warnings = []
    if not controllable:
        warnings.append(f"player {i}: uncontrollable subspace present; "
                        "frequency-domain statements restricted to the controllable part")
    for v in cert.violations:
        if not v.real_v_available:
            warnings.append(f"player {i}: rank violation at {v.s0} has a complex-only witness; "
                            "excluded from the strict verdict")
        if v.boundary:
            warnings.append(f"player {i}: rank violation on the imaginary-axis boundary at {v.s0}")
    kalman = None
    if solve_costs:
        with _stage(i, "kalman"):
            if mode == "q-only":
                kalman = solve_kalman_Q(system, profile, i, M)
            else:
                kalman = solve_kalman_general(system, profile, i, M)
    return PlayerAnalysis(index=i, controllable=controllable, factorization=fac,
                          phi_analysis=analysis, rank_certificate=cert, kalman=kalman,
                          warnings=tuple(warnings))


def is_nash_inducible(system: GameSystem, profile: StrategyProfile,
                      solve_costs: bool = True, mode: str = "general") -> InducibilityAnalysis:
    """Per-player circle + rank verdicts; overall verdict is their conjunction.

    With `solve_costs` every player's Kalman map comes from one adjoint
    Lyapunov stack (feasibility.stationarity_maps), built first; its failure
    is player 0's "kalman" stage, whose map it builds.
    """
    maps = [None] * system.num_players
    if solve_costs:
        with _stage(0, "kalman"):
            maps = stationarity_maps(system, profile)
    players = tuple(analyze_player(system, profile, i, solve_costs, mode, M)
                    for i, M in enumerate(maps))
    return InducibilityAnalysis(players=players,
                                inducible=all(p.inducible for p in players))
