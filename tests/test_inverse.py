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
from nashinduce.feasibility import _kalman_map, pinned_block, pinned_verdict
from nashinduce.forward import verify_nash
from nashinduce.inverse import (
    analyze_phi,
    build_phi,
    check_rank_condition,
    circle_criterion,
    return_difference_circle,
    return_difference_gap,
    return_difference_rank,
    riccati_costs,
    riccati_hamiltonian,
    solve_kalman_general,
    solve_kalman_Q,
)
from nashinduce.numerics import NumericalFailureError, nullspace, psd_project
from nashinduce.polymat import PolyMatrix
from nashinduce.problems import BUNDLED
from nashinduce.realization import (
    attach_feedback,
    closed_loop,
    reduced_system,
    right_coprime_factorization,
)

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


# The games of the 28 benchmark-corpus files (round, n, N, m) whose pencil
# probe counts moved between two closed-loop sums 1e-16 apart (FOUND line 131
# of CHANGES.md): ladder-recipe games, closed-form games (each the game of two
# files, its true and doubled Q_1) and one fixture.
ROUND_OFF_LADDER = ((0, 12, 2, 2), (0, 4, 3, 2), (0, 4, 3, 3), (0, 8, 3, 3), (1, 12, 3, 2),
                    (1, 12, 3, 3), (1, 16, 2, 2), (1, 16, 3, 2), (2, 16, 2, 3), (2, 2, 2, 2),
                    (2, 2, 3, 2))
ROUND_OFF_CLOSED = ((0, 24, 2, 2), (0, 32, 3, 2), (0, 8, 2, 3), (0, 8, 3, 1), (1, 16, 2, 3),
                    (1, 24, 3, 3), (2, 16, 2, 2), (2, 16, 3, 3))


def test_circle_probes_do_not_move_with_round_off():
    # Each player's pinned block is definite, so its crossings are its Riccati
    # Hamiltonian's eigenvalues, which a perturbation of A_cl at 1e-16
    # (relative) moves by round-off only.  The pencil's spurious pair near
    # eps^-1/2 moves in and out of the axis band: read off the pencil, the
    # probe counts of 45 of these 60 perturbed games move.
    games = _bench_games()
    seed = 20220712  # perfbench's CORPUS_SEED
    drawn = [games.ladder_nash((seed, r, 1), n, N, m) for r, n, N, m in ROUND_OFF_LADDER]
    drawn += [games.closed_form_nash((seed, r, 2), n, N, m) for r, n, N, m in ROUND_OFF_CLOSED]
    systems = [(GameSystem(g.A, g.B), g.K) for g in drawn]
    system, profile, _, _ = load_problem(str(DATA / "closed_form_n8_N3_m1.json"))
    systems.append((system, profile.K))
    for system, K in systems:
        profile = StrategyProfile.stabilizing(system, K)
        A_cl = closed_loop(system, profile.K)
        assert all(pinned_verdict(*pinned_block(A_cl, B, K_i)) == "definite"
                   for B, K_i in zip(system.B, profile.K))
        players = [analyze_player(system, profile, i) for i in range(system.num_players)]
        assert all(pa.circle_ok for pa in players)
        for draw in range(3):
            E = np.random.default_rng(draw).standard_normal(A_cl.shape)
            moved = GameSystem(system.A + 1e-16 * np.linalg.norm(A_cl) / np.linalg.norm(E) * E,
                               system.B)
            profile_moved = StrategyProfile.stabilizing(moved, K)
            assert [analyze_player(moved, profile_moved, i).probes
                    for i in range(system.num_players)] == [pa.probes for pa in players]


def test_definite_players_read_full_rank_and_the_pencil_verdict():
    # On near-boundary Nash games, every player whose pinned block is
    # definite reads p = m_i, and its circle verdict, read off its Riccati
    # Hamiltonian, is the one the pencil (return_difference_circle at the
    # sampled rank) gives.
    definite = 0
    for system, profile in near_boundary_games(600):
        A_cl = closed_loop(system, profile.K)
        for i, (B, K) in enumerate(zip(system.B, profile.K)):
            if pinned_verdict(*pinned_block(A_cl, B, K)) != "definite":
                continue
            definite += 1
            pa = analyze_player(system, profile, i)
            k = B.shape[1] - return_difference_rank(A_cl, B, K)
            assert (pa.p, pa.riccati.declined) == (B.shape[1], None)
            assert pa.circle_ok == return_difference_circle(A_cl, B, K, k)[0]
    assert definite == 890


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


# ---------------------------------------------------------------------------
# The Kalman equation in closed form (riccati_hamiltonian, riccati_costs)
# ---------------------------------------------------------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NASH_FIXTURES = ("closed_form_n8_N3_m1", "ladder_r0_n12_N2_m1", "ladder_r0_n8_N3_m2",
                 "ladder_r2_n8_N2_m1", "nearest_r2_n4_N3_m1")


def test_closed_form_costs_are_nash(nash_games):
    # On every Nash fixture of tests/data, every nash_games game and the
    # closed-form Nash games at n = 24 and 32, riccati_hamiltonian declines
    # no player, and riccati_costs builds Q = D'D of rank m; the costs
    # (Q_i, R_ii = I) pass verify_nash and perfbench/checker.is_nash, whose
    # Lyapunov solutions P meet the stationarity B'P = K'.
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import checker
    import games

    cases = [(name, *load_problem(str(DATA / f"{name}.json"))[:2]) for name in NASH_FIXTURES]
    cases += [(f"nash_games[{k}]", system, profile)
              for k, (system, _, profile, _) in enumerate(nash_games)]
    for n in (24, 32):
        game = games.closed_form_nash((1, 0, 7), n, 2, 1)
        system = GameSystem(game.A, game.B)
        cases.append((f"closed_form_nash n={n}", system,
                      StrategyProfile.stabilizing(system, game.K)))
    for name, system, profile in cases:
        A_cl, Qs = closed_loop(system, profile.K), []
        for i, (B, K) in enumerate(zip(system.B, profile.K)):
            record = riccati_hamiltonian(A_cl, B, K)
            assert record.declined is None, (name, i)
            Q = riccati_costs(record)
            assert Q.shape == A_cl.shape
            assert np.linalg.matrix_rank(Q, tol=1e-9 * np.linalg.norm(Q)) == B.shape[1]
            Qs.append(Q)
        assert verify_nash(system, profile, CostParameters.identity_R(Qs, system.m))[0], name
        R = [[np.eye(mj) if j == i else np.zeros((mj, mj)) for j, mj in enumerate(system.m)]
             for i in range(system.num_players)]
        assert checker.is_nash(system.A, system.B, profile.K, Qs, R).ok, name


def test_closed_form_declines_naming_why():
    # allpass_n3_N1_m2: the pinned block B'QB is not positive definite (its
    # eigenvalues read about -0.115 and +8.5e-10).  A player whose K B is not
    # symmetric has no symmetric P with P B = K'; symmetrizing K makes it
    # answer.  With B = e_1, K = [0, 0.5] and A_cl = [[-1, 0.5], [-1.5,
    # -0.5]], P = [[0, 0.5], [0.5, x]] and Q = [[1.5, 0.75 + 1.5x], [0.75 +
    # 1.5x, x - 0.75]], and Q >= 0 asks 2.25x^2 + 0.75x + 1.6875 <= 0, which
    # no real x meets: the Hamiltonian's eigenvalues lie on the axis.  The
    # first two declines come before the Hamiltonian, so no T is kept; the
    # last comes after its Schur form, which is kept.
    system, profile, _, _ = load_problem(str(DATA / "allpass_n3_N1_m2.json"))
    record = riccati_hamiltonian(closed_loop(system, profile.K), system.B[0], profile.K[0])
    assert (record.declined, record.T) == ("pinned_block", None)
    A_cl = np.array([[-1.0, 0.0], [0.0, -2.0]])
    K = np.array([[1.0, 0.5], [0.0, 1.0]])
    record = riccati_hamiltonian(A_cl, np.eye(2), K)
    assert (record.declined, record.T) == ("asymmetric", None)
    assert riccati_hamiltonian(A_cl, np.eye(2), 0.5 * (K + K.T)).declined is None
    record = riccati_hamiltonian(*axis_game())
    assert record.declined == "riccati" and record.T.shape == (2, 2)


def axis_game():
    """(A_cl, B, K) of test_closed_form_declines_naming_why's 2-state player
    whose Riccati Hamiltonian has its eigenvalues on the imaginary axis."""
    return np.array([[-1.0, 0.5], [-1.5, -0.5]]), np.eye(2)[:, :1], np.array([[0.0, 0.5]])


def test_an_axis_hamiltonian_declines_in_the_frequency_step():
    # The axis game as a one-player problem: its pinned block is definite,
    # so the circle test reads the Hamiltonian's crossings (one, so two
    # probes), and the decline that the split fails is named in the record
    # analyze_player keeps, before any costs are built.
    A_cl, B, K = axis_game()
    system = GameSystem(A_cl + B @ K, [B])
    pa = analyze_player(system, StrategyProfile.stabilizing(system, [K]), 0)
    assert pa.riccati.declined == "riccati"
    assert (pa.circle_ok, pa.circle_witness, pa.probes, pa.p) == (False, 0.0, 2, 1)


def near_boundary_games(count):
    """(system, profile) of `count` seeded Nash games (R_ii = I) near the
    boundary of the cone, drawn from numpy's default_rng(3): per game n in
    2..8, N in {1, 2} and m in {1, 2}; per player P_i = C'C/n + 10^u I (C
    standard normal, u in [-3, 0]), K_i standard normal times 10^v (v in
    [-1, 1.5]) and B_i = P_i^-1 K_i'; A_cl = -cI + S with S = G - G' (G
    standard normal) and c = c*(1 + 10^e), e in [-12, -2], where c* is the
    least c at which every Q_i = -(A_cl'P_i + P_i A_cl) - K_i'K_i >= 0: with
    P_i = L L', c* is the largest half of lambda_max(L^-1 (S'P_i + P_i S +
    K_i'K_i) L^-T).  So at c some Q_i is singular to about 10^e."""
    rng = np.random.default_rng(3)
    for _ in range(count):
        n, N, m = int(rng.integers(2, 9)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
        Ps, Ks = [], []
        for _ in range(N):
            C = rng.standard_normal((n, n))
            Ps.append(C.T @ C / n + 10.0 ** rng.uniform(-3, 0) * np.eye(n))
            Ks.append(rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-1, 1.5))
        G = rng.standard_normal((n, n))
        S = G - G.T
        c_star = 0.0
        for P, K in zip(Ps, Ks):
            L_inv = np.linalg.inv(np.linalg.cholesky(P))
            c_star = max(c_star, 0.5 * np.linalg.eigvalsh(
                L_inv @ (S.T @ P + P @ S + K.T @ K) @ L_inv.T)[-1])
        Bs = [np.linalg.solve(P, K.T) for P, K in zip(Ps, Ks)]
        A_cl = -c_star * (1.0 + 10.0 ** rng.uniform(-12, -2)) * np.eye(n) + S
        system = GameSystem(A_cl + sum(B @ K for B, K in zip(Bs, Ks)), Bs)
        yield system, StrategyProfile.stabilizing(system, Ks)


def test_closed_form_costs_are_nash_near_the_boundary():
    # Wherever the closed form answers every player of a near-boundary Nash
    # game, its costs pass verify_nash; where it declines one, the pinned
    # block is why (one Q_i within 10^e of singular).  So solve's one Nash
    # check needs no search to fall back on.  Of these 600 draws 581 are
    # answered; of the first 3000, 2926 were, all verified, and 74 declined.
    count, answered = 600, 0
    for system, profile in near_boundary_games(count):
        A_cl = closed_loop(system, profile.K)
        records = [riccati_hamiltonian(A_cl, B, K) for B, K in zip(system.B, profile.K)]
        if any(record.declined for record in records):
            assert {record.declined for record in records} <= {None, "pinned_block"}
            continue
        answered += 1
        costs = CostParameters.identity_R([riccati_costs(r) for r in records], system.m)
        assert verify_nash(system, profile, costs)[0]
    assert answered >= 0.9 * count


def test_a_closed_form_that_answers_passes_both_frequency_tests(nash_games):
    # The KYP fact the oracle step's all-or-nothing closed form rests on: a
    # player whose record does not decline passes the circle test and the
    # rank condition, so a player failing either has a record that declines
    # and no game with a failing player reaches riccati_costs.  Here on the
    # first 600 near-boundary draws, every nash_games game, the fixtures of
    # tests/data and the bundled examples; on 3000 draws and the CLI corpus
    # it held for 5097 answering players and 53 failing ones.
    games = [(system, profile) for system, profile in near_boundary_games(600)]
    games += [(system, profile) for system, _, profile, _ in nash_games]
    games += [load_problem(str(path))[:2] for path in sorted(DATA.glob("*.json"))]
    games += [(system, profile) for _, system, profile in _bundled_games()]
    answering = failing = 0
    for system, profile in games:
        for i in range(system.num_players):
            pa = analyze_player(system, profile, i)
            answering += pa.riccati.declined is None
            failing += not pa.inducible
            # Either way round: an answering record passes, a failing player declines.
            assert pa.riccati.declined is not None or (pa.circle_ok and pa.rank_ok)
    assert answering >= 950 and failing >= 10  # 989 and 14 players here
