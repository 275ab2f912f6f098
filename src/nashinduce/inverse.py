"""Frequency-domain Nash-inducibility pipeline.

For each player: build the para-Hermitian mismatch matrix
Phi = Dt'(-s) Dt(s) - D'(-s) D(s) from the coprime factorization, test it on
the imaginary axis (circle criterion), column-compress it to expose its
normal rank, and check the closed-right-half-plane rank condition.  Cost
matrices are recovered from the Kalman equation in its time-domain form:
stationarity R K_i = B_i' P with P eliminated through the Lyapunov equation,
a linear map in (Q, R) alone (feasibility._stationarity_map), so no Kalman
solve touches the polynomial factors.  The joint (Q, R) solve is the
time-domain oracle's cone search (feasibility.player_feasibility).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polymat
from .feasibility import KalmanSolution, _kalman_map, player_feasibility
from .numerics import (
    PROJECTION_CAP,
    R_FLOOR,
    NumericalFailureError,
    cone_verdict,
    nullspace,
    project_affine_cone,
    psd_project,  # noqa: F401  (perfbench's tracing test reads inverse.psd_project)
    sym_pack,
    sym_unpack,
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
    reduced_system,
    right_coprime_factorization,
)

PARA_HERMITIAN_TOL = 1e-8


def build_phi(fac: CoprimeFactorization) -> PolyMatrix:
    """Phi(s) = Dt'(-s) Dt(s) - D'(-s) D(s); para-Hermitian by construction."""
    if fac.D_tilde is None:
        raise ValueError("factorization has no feedback attached")
    phi = fac.D_tilde.paraconjugate() @ fac.D_tilde - fac.D.paraconjugate() @ fac.D
    # Kill the antisymmetric round-off part.
    return 0.5 * (phi + phi.paraconjugate())


def _require_para_hermitian(phi: PolyMatrix, tol: float = PARA_HERMITIAN_TOL) -> None:
    defect = (phi - phi.paraconjugate()).coeff_norm()
    if defect > tol * max(1.0, phi.coeff_norm()):
        raise ValueError("matrix is not para-Hermitian")


def _min_eig_at(phi: PolyMatrix, w: float) -> float:
    M = phi.eval(1j * w)
    M = 0.5 * (M + M.conj().T)
    return float(np.linalg.eigvalsh(M).min())


def circle_criterion(phi: PolyMatrix, tol: float = 1e-9):
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
    witness, w = 0 first.  Returns (ok, witness, "exact").
    """
    _require_para_hermitian(phi)
    if phi.is_zero():
        return True, None, "exact"
    scale = max(1.0, phi.coeff_norm())
    bounds = []
    for e in phi.charpoly()[1:]:
        g = (e * 1j ** np.arange(e.size)).real  # e_k(jw) as a real polynomial in w
        bounds.extend(polymat.poly_roots(g).real)
    bounds = np.unique(bounds)
    candidates = [0.0]
    if bounds.size:
        candidates += [bounds[0] - 1.0, bounds[-1] + 1.0]
        candidates += list(0.5 * (bounds[1:] + bounds[:-1]))
    for w in candidates:
        if _min_eig_at(phi, w) < -tol * scale:
            return False, float(w), "exact"
    return True, None, "exact"


@dataclass(frozen=True)
class PhiAnalysis:
    """Phi with its unimodular column compression and normal rank."""

    phi: PolyMatrix
    L: PolyMatrix
    phi_tilde: PolyMatrix
    p: int
    circle_ok: bool
    circle_witness: float | None
    circle_method: str


def analyze_phi(fac: CoprimeFactorization) -> PhiAnalysis:
    phi = build_phi(fac)
    L, phi_tilde, p = compress_columns(phi)
    unimodular_det_constant(L)
    ok, witness, method = circle_criterion(phi)
    return PhiAnalysis(phi=phi, L=L, phi_tilde=phi_tilde, p=p,
                       circle_ok=ok, circle_witness=witness, circle_method=method)


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


def check_rank_condition(fac: CoprimeFactorization, analysis: PhiAnalysis,
                         delta: float = polymat.RHP_MARGIN) -> RankCertificate:
    """No s in the closed RHP may admit a nonzero v with D L v = 0 whose
    leading p entries vanish.

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
        roots = rhp_roots_matrix(T, delta)
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


def _null_vec(M, col_norms, tol: float = 1e-7):
    """Unit null vector of M diag(col_norms), found on the real column-scaled
    M; None when M has no singular value below tol relative to its largest."""
    u, s, vh = np.linalg.svd(M)
    if s.size == 0 or s[-1] <= tol * max(1.0, s[0]):
        v = vh[-1] / col_norms
        return v / np.linalg.norm(v)
    return None


# ---------------------------------------------------------------------------
# Kalman-equation solvers
# ---------------------------------------------------------------------------

def solve_kalman_Q(system: GameSystem, profile: StrategyProfile, i: int,
                   tol: float = 1e-8, cap: int = PROJECTION_CAP) -> KalmanSolution:
    """Find Q >= 0 with K_i = B_i' P, P the Lyapunov solution for the state
    weight Q + K_i' K_i (R pinned to I): the minimum-norm solution of this
    linear equation, then alternating projections over its kernel.
    """
    n, m = system.n, system.m[i]
    A, MR = _kalman_map(system, profile, i)
    b = -MR @ sym_pack(np.eye(m))
    q, *_ = np.linalg.lstsq(A, b, rcond=None)
    scale = max(1.0, float(np.linalg.norm(b)))
    rel = float(np.linalg.norm(A @ q - b)) / scale
    Z = nullspace(A)
    if rel > tol:
        return KalmanSolution(Q=sym_unpack(q, n), R=np.eye(m), residual=rel,
                              kernel_dim=Z.shape[1], psd_ok=False, status="no_solution")
    layout = [(n, 0.0)]
    x, reason, iterations, gap = project_affine_cone(q, Z, layout, cap)
    ok = cone_verdict(x, reason, layout, slack=1e-7)
    status = "solved" if ok else ("indeterminate" if ok is None else "infeasible")
    return KalmanSolution(Q=sym_unpack(x, n), R=np.eye(m),
                          residual=float(np.linalg.norm(A @ x - b)) / scale,
                          kernel_dim=Z.shape[1], psd_ok=bool(ok), status=status,
                          iterations=iterations, gap=gap)


def solve_kalman_general(system: GameSystem, profile: StrategyProfile, i: int,
                         rho: float = R_FLOOR, cap: int = PROJECTION_CAP) -> KalmanSolution:
    """Joint unknowns (Q, R):  R K_i = B_i' P, P the Lyapunov solution for the
    state weight Q + K_i' R K_i (the Kalman equation with P eliminated).

    The solution set is a cone, searched on the normalization slice
    trace(R) = m for Q >= 0, R >= rho I by feasibility.player_feasibility,
    the time-domain oracle's search.
    """
    return player_feasibility(system, profile, i, rho, cap)


# ---------------------------------------------------------------------------
# Per-player pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlayerAnalysis:
    index: int
    factorization: CoprimeFactorization
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


def analyze_player(system: GameSystem, profile: StrategyProfile, i: int,
                   solve_costs: bool = True, mode: str = "general") -> PlayerAnalysis:
    A_tilde, _ = reduced_system(system, profile, i)
    fac = right_coprime_factorization(A_tilde, system.B[i])
    fac = attach_feedback(fac, profile.K[i])
    analysis = analyze_phi(fac)
    cert = check_rank_condition(fac, analysis)
    warnings = []
    if not fac.controllable:
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
        if mode == "q-only":
            kalman = solve_kalman_Q(system, profile, i)
        else:
            kalman = solve_kalman_general(system, profile, i)
    return PlayerAnalysis(index=i, factorization=fac, phi_analysis=analysis,
                          rank_certificate=cert, kalman=kalman, warnings=tuple(warnings))


def is_nash_inducible(system: GameSystem, profile: StrategyProfile,
                      solve_costs: bool = True, mode: str = "general") -> InducibilityAnalysis:
    """Per-player circle + rank verdicts; overall verdict is their conjunction."""
    players = []
    for i in range(system.num_players):
        try:
            players.append(analyze_player(system, profile, i, solve_costs, mode))
        except NumericalFailureError as exc:
            raise NumericalFailureError(f"player {i}: {exc}") from exc
    return InducibilityAnalysis(players=tuple(players),
                                inducible=all(p.inducible for p in players))
