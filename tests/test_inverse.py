import json
import sys
from pathlib import Path

import numpy as np
import pytest

from nashinduce import (
    CostParameters,
    GameSystem,
    StrategyProfile,
    analyze_player,
)
from nashinduce.cli import load_problem
from nashinduce.cli import main as cli_main
from nashinduce.feasibility import _kalman_map
from nashinduce.forward import verify_nash
from nashinduce.inverse import (
    analyze_phi,
    build_phi,
    check_rank_condition,
    circle_criterion,
    return_difference_gap,
    solve_kalman_general,
    solve_kalman_Q,
)
from nashinduce.numerics import NumericalFailureError, nullspace, psd_project
from nashinduce.polymat import PolyMatrix
from nashinduce.problems import BUNDLED
from nashinduce.realization import attach_feedback, reduced_system, right_coprime_factorization

from conftest import original_stationarity_map, poly_kalman_map, psd_sqrt_factor


def scalar_factorization(a, b, k):
    fac = right_coprime_factorization(np.array([[a]]), np.array([[b]]))
    return attach_feedback(fac, np.array([[k]]))


def scalar_game(a, b, k):
    system = GameSystem(np.array([[a]]), [np.array([[b]])])
    return system, StrategyProfile.stabilizing(system, [np.array([[k]])])


def remark2_game():
    A = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    B1 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    B2 = np.array([[1.0], [0.0], [0.0]])
    r2 = 1.0 + np.sqrt(2.0)
    K1 = np.array([[1.0, 0.0, 1.0], [0.0, r2, r2]])
    K2 = np.array([[1.0, 0.0, 0.0]])
    system = GameSystem(A, [B1, B2])
    return system, StrategyProfile.stabilizing(system, [K1, K2])


def remark2_player1():
    system, profile = remark2_game()
    A_tilde, _ = reduced_system(system, profile, 0)
    fac = right_coprime_factorization(A_tilde, system.B[0])
    return attach_feedback(fac, profile.K[0])


def test_build_phi_scalar():
    phi = build_phi(scalar_factorization(1.0, 1.0, 3.0))
    assert phi.allclose(PolyMatrix.constant([[3.0]]), tol=1e-12)
    phi = build_phi(scalar_factorization(1.0, 1.0, 1.5))
    assert phi.allclose(PolyMatrix.constant([[-0.75]]), tol=1e-12)


def test_build_phi_zero_feedback():
    fac = right_coprime_factorization(np.array([[-1.0]]), np.array([[1.0]]))
    fac = attach_feedback(fac, np.array([[0.0]]))
    assert build_phi(fac).is_zero()


def test_build_phi_is_para_hermitian():
    phi = build_phi(remark2_player1())
    assert phi.paraconjugate().allclose(phi, tol=1e-10)


def test_phi_invariance_under_state_basis_change():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 2))
    K = rng.standard_normal((2, 3))
    phi0 = build_phi(attach_feedback(right_coprime_factorization(A, B), K))
    for _ in range(5):
        T = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        Ti = np.linalg.inv(T)
        phi1 = build_phi(attach_feedback(
            right_coprime_factorization(T @ A @ Ti, T @ B), K @ Ti))
        # Compare as rational data: evaluate both on a few points.
        for s in (0.0, 1j, 2.0 + 0.5j):
            assert np.allclose(phi0.eval(s), phi1.eval(s), atol=1e-8)


def test_circle_criterion_cases():
    ok, witness, method = circle_criterion(build_phi(remark2_player1()))
    assert ok and witness is None
    ok, witness, method = circle_criterion(
        build_phi(scalar_factorization(1.0, 1.0, 1.5)))
    assert not ok
    assert witness == 0.0
    ok, _, _ = circle_criterion(PolyMatrix.zeros(2, 2))
    assert ok


def test_circle_criterion_rejects_non_para_hermitian():
    with pytest.raises(ValueError):
        circle_criterion(PolyMatrix.from_entries([[[0.0, 1.0]]]))


def test_analyze_phi_remark2():
    analysis = analyze_phi(remark2_player1())
    assert analysis.p == 1
    assert analysis.circle_ok
    # phi @ L has its trailing column annihilated
    tail = (analysis.phi @ analysis.L).select_columns([1])
    assert tail.coeff_norm() <= 1e-8


def test_rank_condition_remark2_violated():
    fac = remark2_player1()
    analysis = analyze_phi(fac)
    cert = check_rank_condition(fac, analysis)
    assert not cert.satisfied
    assert len(cert.violations) == 1
    v = cert.violations[0]
    assert abs(v.s0 - 1.0) <= 1e-7
    assert v.real_v_available
    assert abs(v.v[0]) <= 1e-9  # leading p entries vanish
    assert np.linalg.norm((fac.D @ analysis.L).eval(v.s0) @ v.v) <= 1e-6


def test_rank_condition_vacuous_when_full_rank():
    fac = scalar_factorization(1.0, 1.0, 3.0)
    cert = check_rank_condition(fac, analyze_phi(fac))
    assert cert.satisfied and not cert.violations


def test_solve_kalman_Q_scalar():
    sol = solve_kalman_Q(*scalar_game(1.0, 1.0, 3.0), 0)
    assert sol.status == "solved"
    assert np.allclose(sol.Q, [[3.0]], atol=1e-10)
    assert sol.psd_ok
    assert sol.residual <= 1e-10


def test_solve_kalman_Q_infeasible_scalar():
    sol = solve_kalman_Q(*scalar_game(1.0, 1.0, 1.5), 0)
    assert not sol.psd_ok
    assert np.allclose(sol.Q, [[-0.75]], atol=1e-10)


def test_solve_kalman_Q_remark2_family():
    fac = remark2_player1()
    sol = solve_kalman_Q(*remark2_game(), 0)
    assert sol.residual <= 1e-8
    assert sol.kernel_dim == 1
    assert sol.psd_ok
    Q = sol.Q
    assert np.allclose(
        [Q[0, 0], Q[0, 1], Q[1, 1], Q[0, 2], Q[2, 2]],
        [1.0, -1.0, 1.0, 0.0, 0.0], atol=1e-8)
    # N = Q^{1/2} S realizes the spectral factorization
    N = PolyMatrix.constant(psd_sqrt_factor(psd_project(Q))) @ fac.S
    diff = N.paraconjugate() @ N - build_phi(fac)
    assert diff.coeff_norm() <= 1e-7


def test_solve_kalman_general_scalar_cone():
    sol = solve_kalman_general(*scalar_game(1.0, 1.0, 3.0), 0)
    assert sol.status == "solved"
    assert np.allclose(sol.R, [[1.0]], atol=1e-9)
    assert np.allclose(sol.Q, [[3.0]], atol=1e-8)


def test_solve_kalman_general_infeasible():
    sol = solve_kalman_general(*scalar_game(1.0, 1.0, 1.5), 0)
    assert sol.status == "infeasible"


def test_kalman_residual_scaling_cone():
    # The time-domain solution satisfies the polynomial Kalman identity.
    fac = remark2_player1()
    sol = solve_kalman_general(*remark2_game(), 0)
    assert sol.status == "solved"
    S_para, D_para = fac.S.paraconjugate(), fac.D.paraconjugate()
    Dt_para = fac.D_tilde.paraconjugate()

    def residual(Q, R):
        lhs = Dt_para @ PolyMatrix.constant(R) @ fac.D_tilde \
            - D_para @ PolyMatrix.constant(R) @ fac.D
        rhs = S_para @ PolyMatrix.constant(Q) @ fac.S
        return (lhs - rhs).coeff_norm()

    base = residual(sol.Q, sol.R)
    assert base <= 1e-8 * max(1.0, build_phi(fac).coeff_norm())
    for alpha in (0.5, 2.0, 10.0):
        assert residual(alpha * sol.Q, alpha * sol.R) <= alpha * base + 1e-10


def _kernels(system, profile, i):
    """(time-domain, polynomial) Kalman kernels of player i over packed (Q, R)."""
    A_tilde, _ = reduced_system(system, profile, i)
    fac = attach_feedback(right_coprime_factorization(A_tilde, system.B[i]), profile.K[i])
    M = original_stationarity_map(system, profile, i)
    return nullspace(np.hstack(_kalman_map(system, i, M))), nullspace(poly_kalman_map(fac))


def _containment(Z, Zp):
    """Distance of span(Z) from span(Zp), both with orthonormal columns."""
    return float(np.linalg.norm(Z - Zp @ (Zp.T @ Z)))


def test_kalman_kernel_equals_polynomial_kernel(nash_games):
    # The paper's frequency/time equivalence: on controllable players the
    # Lyapunov-eliminated stationarity map and the coefficient-matching map
    # of the coprime factors have one solution set.
    players = 0
    for system, _, profile, _ in nash_games:
        for i in range(system.num_players):
            Z, Zp = _kernels(system, profile, i)
            assert Z.shape[1] == Zp.shape[1] > 0
            assert _containment(Z, Zp) <= 1e-8
            players += 1
    assert players >= 50


def test_kalman_kernel_of_uncontrollable_player_is_full_state():
    # Remark 2's player 1 leaves a state direction uncontrollable: the
    # polynomial identity sees only the controllable part (dimension 6), the
    # full-state Nash set is a subspace of it (dimension 4).
    Z, Zp = _kernels(*remark2_game(), 1)
    assert (Z.shape[1], Zp.shape[1]) == (4, 6)
    assert _containment(Z, Zp) <= 1e-8


@pytest.mark.parametrize("name", ["ladder_r0_n12_N2_m1.json", "closed_form_n8_N3_m1.json"])
def test_kalman_general_recovers_nash_costs(name):
    # On both games the coprime factorization fails its identity check, so the
    # polynomial Kalman map could not even be built.
    system, profile, _, tol = load_problem(str(Path(__file__).parent / "data" / name))
    sols = [solve_kalman_general(system, profile, i) for i in range(system.num_players)]
    assert [s.status for s in sols] == ["solved"] * system.num_players
    costs = CostParameters.diagonal_R([s.Q for s in sols], [s.R for s in sols])
    assert verify_nash(system, profile, costs, tol=tol)[0]


def test_analyze_player_scalars():
    system = GameSystem(np.array([[1.0]]), [np.array([[1.0]])])
    good = StrategyProfile.stabilizing(system, [np.array([[3.0]])])
    bad = StrategyProfile.stabilizing(system, [np.array([[1.5]])])
    assert analyze_player(system, good, 0).inducible
    assert not analyze_player(system, bad, 0).inducible


def test_analyze_player_uncontrollable_warning():
    A = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    B1 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    B2 = np.array([[1.0], [0.0], [0.0]])
    r2 = 1.0 + np.sqrt(2.0)
    system = GameSystem(A, [B1, B2])
    prof = StrategyProfile.stabilizing(
        system, [np.array([[1.0, 0.0, 1.0], [0.0, r2, r2]]),
                 np.array([[1.0, 0.0, 0.0]])])
    pa = analyze_player(system, prof, 1)
    assert not pa.controllable
    assert any("uncontrollable" in w for w in pa.warnings)


def pbh_sigma_min(A, B):
    """min over the eigenvalues s of A of sigma_min([sI - A, B]): zero iff
    (A, B) has an uncontrollable mode (the PBH test)."""
    n = len(A)
    return min(np.linalg.svd(np.hstack([s * np.eye(n) - A, B]), compute_uv=False)[-1]
               for s in np.linalg.eigvals(A))


def test_uncontrollable_warning_of_a_truly_uncontrollable_player():
    system, profile = dict((name, game) for name, *game in _bundled_games())["remark2"]
    A_tilde, _ = reduced_system(system, profile, 1)
    assert pbh_sigma_min(A_tilde, system.B[1]) < 1e-12
    pa = analyze_player(system, profile, 1)
    assert not pa.controllable and any("uncontrollable" in w for w in pa.warnings)


@pytest.mark.xfail(strict=True, reason="controllability is read from the SVD rank of the "
                   "Krylov matrix [B, AB, ...], whose singular values fall below the rank "
                   "tolerance at n = 12 although PBH sigma_min is 4.8e-3 and 7.0e-3")
def test_no_uncontrollable_warning_on_a_controllable_ladder_game():
    system, profile, _, _ = load_problem(str(DATA / "ladder_r0_n12_N2_m1.json"))
    for i in range(system.num_players):
        A_tilde, _ = reduced_system(system, profile, i)
        assert pbh_sigma_min(A_tilde, system.B[i]) > 1e-3
    for i in range(system.num_players):
        pa = analyze_player(system, profile, i)
        assert pa.controllable and not any("uncontrollable" in w for w in pa.warnings)


# A closed-form Nash game (n = 8, three single-input players; B_i = P_i^-1 K_i'
# makes stationarity hold with R_ii = I) on which the polynomial route is
# wrong: Phi built from the coprime factorization is negative near w = -8.8
# (player 0) and -9.6 (player 1), where the state-space return difference
# |1 + K_i (jwI - A_i)^-1 B_i|^2 - 1 is +0.21 and +0.28.  D reaches 2.5e6 and
# Phi 3.3e12 in coefficient size, and player 2's factorization fails its
# identity check.  Phi has full normal rank, so the state-space route decides.
CLOSED_FORM_GAME = Path(__file__).parent / "data" / "closed_form_n8_N3_m1.json"


def _return_difference(system, profile, i, w):
    A_i, _ = reduced_system(system, profile, i)
    G = np.linalg.solve(1j * w * np.eye(system.n) - A_i, system.B[i])
    return abs(1.0 + (profile.K[i] @ G)[0, 0]) ** 2 - 1.0


def test_closed_form_game_is_nash():
    system, profile, costs, tol = load_problem(str(CLOSED_FORM_GAME))
    assert verify_nash(system, profile, costs, tol=tol)[0]
    for i in (0, 1):
        for w in np.linspace(-20.0, 20.0, 401):
            assert _return_difference(system, profile, i, w) > 0.0


def test_closed_form_game_circle_ok():
    system, profile, _, _ = load_problem(str(CLOSED_FORM_GAME))
    for i in (0, 1):
        pa = analyze_player(system, profile, i)
        assert pa.circle_ok and pa.p == system.m[i]


# ---------------------------------------------------------------------------
# State-space circle criterion against the polynomial route
# ---------------------------------------------------------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DATA = Path(__file__).parent / "data"


def _bench_games():
    """perfbench/games.py, the benchmark's seeded game generators."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import games
    return games


def _bundled_games():
    for name, blob in sorted(BUNDLED.items()):
        raw = json.loads(blob)
        system = GameSystem(np.array(raw["A"]), [np.array(p["B"]) for p in raw["players"]])
        yield name, system, StrategyProfile.stabilizing(
            system, [np.array(p["K_dagger"]) for p in raw["players"]])


def _compare_with_polynomial_route(system, profile):
    """For each player whose factorization succeeds: the state-space (p,
    circle_ok) equals the polynomial route's.  Returns the number of players
    compared."""
    compared = 0
    for i in range(system.num_players):
        pa = analyze_player(system, profile, i)
        A_tilde, _ = reduced_system(system, profile, i)
        try:
            fac = attach_feedback(right_coprime_factorization(A_tilde, system.B[i]),
                                  profile.K[i])
            p = analyze_phi(fac).p
        except NumericalFailureError:
            continue
        assert pa.p == p
        assert pa.circle_ok == circle_criterion(build_phi(fac))[0]
        compared += 1
    return compared


def test_state_space_circle_matches_polynomial_route(nash_games):
    compared = sum(_compare_with_polynomial_route(system, profile)
                   for system, _, profile, _ in nash_games)
    assert compared == sum(system.num_players for system, _, _, _ in nash_games)
    for path in sorted(DATA.glob("*.json")):
        if path.name == CLOSED_FORM_GAME.name:
            continue  # the polynomial route's known wrong sign, tested below
        system, profile, _, _ = load_problem(str(path))
        _compare_with_polynomial_route(system, profile)
    verdicts = {}
    for name, system, profile in _bundled_games():
        assert _compare_with_polynomial_route(system, profile) == system.num_players
        verdicts[name] = all(analyze_player(system, profile, i).inducible
                             for i in range(system.num_players))
    assert verdicts == {"remark2": False, "scalar_feasible": True,
                        "scalar_infeasible": False, "two_player_scalar": True}


def test_state_space_circle_accepts_closed_form_nash_games():
    system, profile, _, _ = load_problem(str(CLOSED_FORM_GAME))
    assert all(analyze_player(system, profile, i).inducible
               for i in range(system.num_players))
    games = _bench_games()
    players = 0
    for r in range(3):
        for n in (8, 16, 24, 32):
            for N in (2, 3):
                for m in (1, 2, 3):
                    g = games.closed_form_nash((20220712, r, 2), n, N, m)
                    system = GameSystem(g.A, g.B)
                    profile = StrategyProfile.stabilizing(system, g.K)
                    for i in range(N):
                        pa = analyze_player(system, profile, i)
                        assert pa.p == m
                        assert pa.inducible, (g.name, r, i, pa.circle_witness)
                        players += 1
    assert players == 180


def test_state_space_circle_rejects_infeasible_games():
    games = _bench_games()
    for key in range(5):
        for N, m in ((2, 1), (3, 1), (2, 2), (3, 2)):
            g = games.infeasible((20220712, key, 3), N, m)
            system = GameSystem(g.A, g.B)
            profile = StrategyProfile.stabilizing(system, g.K)
            players = [analyze_player(system, profile, i) for i in range(N)]
            assert not all(pa.inducible for pa in players), g.name
            assert all(pa.p == m for pa in players)


def test_circle_gap_has_the_sign_of_phi():
    # Scalar k = 1.5 against a = 1, b = 1: Phi = -0.75 everywhere.  With
    # A_cl = -0.5 and G = 1.5 / (jw + 0.5), the gap 2 Re G - |G|^2 is
    # -0.75 / (w^2 + 0.25): Phi's sign at every w, and -3 at the witness w = 0.
    system, profile = scalar_game(1.0, 1.0, 1.5)
    pa = analyze_player(system, profile, 0)
    assert (pa.circle_ok, pa.circle_witness) == (False, 0.0)
    assert pa.circle_gap == pytest.approx(-3.0)
    phi = build_phi(scalar_factorization(1.0, 1.0, 1.5))
    w = np.array([0.0, 1.0, 3.0])
    gaps, _, _ = return_difference_gap(np.array([[-0.5]]), system.B[0], profile.K[0], w)
    assert gaps[:, 0, 0].real == pytest.approx(-0.75 / (w * w + 0.25))
    assert [phi.eval(1j * x).real[0, 0] for x in w] == pytest.approx([-0.75] * 3)
    # A circle test that holds has no witness and no gap.
    pa = analyze_player(*scalar_game(1.0, 1.0, 3.0), 0)
    assert (pa.circle_ok, pa.circle_witness, pa.circle_gap) == (True, None, None)


def test_check_builds_no_polynomial_matrix_when_phi_has_full_rank(monkeypatch, capsys):
    created = []
    init = PolyMatrix.__init__

    def counting(self, *args, **kwargs):
        created.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PolyMatrix, "__init__", counting)
    code = cli_main(["check", str(DATA / "ladder_r2_n8_N2_m1.json")])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["verdict_frequency"], report["verdict_oracle"]) == (
        0, "inducible", "inducible")
    assert [p["p"] for p in report["players"]] == [1, 1]
    assert created == []
    # Nor does remark2's player 0 (p = 1 < m = 2): one route for every player.
    analyze_player(*remark2_game(), 0)
    assert created == []
