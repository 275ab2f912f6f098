import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from nashinduce import (
    CostParameters,
    GameSystem,
    StrategyProfile,
    fold_cross_penalties,
    nearest_params,
    solve_feasibility_projection,
    unfold_cross_penalties,
    verify_nash,
)
from nashinduce import cli, feasibility, inverse, numerics
from nashinduce.cli import load_problem
from nashinduce.feasibility import (
    _player_nullspace,
    _stationarity_map,
    build_vectorized_system,
    pinned_fails,
    stationarity_maps,
)
from nashinduce.numerics import (
    POINT_SLACK,
    DimensionError,
    PROJECTION_CAP,
    PROJECTION_TOL,
    R_FLOOR,
    affine_slice,
    cone_project,
    cone_verdict,
    nullspace,
    project_affine_cone,
    row_basis,
    sym_blocks,
    sym_dim,
    sym_pack,
)
from nashinduce.problems import BUNDLED
from nashinduce.realization import closed_loop, reduced_system

from conftest import (
    converged_nash_games,
    dykstra_nearest,
    gees_calls,
    max_principal_sine,
    kronecker_player_feasibility,
    kronecker_rows,
    least_squares_kalman_Q,
    loop_project_affine_cone,
    original_stationarity_map,
    random_pd,
    random_psd,
    svd_row_basis,
)

DATA = Path(__file__).parent / "data"


def scalar_game(k):
    system = GameSystem(np.array([[1.0]]), [np.array([[1.0]])])
    prof = StrategyProfile.stabilizing(system, [np.array([[k]])])
    return system, prof


def test_build_vectorized_system_scalar():
    system, prof = scalar_game(3.0)
    M = build_vectorized_system(system, prof, 0)
    # rows: Riccati identity then stationarity; columns (q, r, p)
    assert np.allclose(M, [[1.0, 9.0, -4.0], [0.0, 3.0, -1.0]])


def test_player_nullspace_scalar():
    system, prof = scalar_game(3.0)
    Z, dims = _player_nullspace(system, prof, 0)
    assert dims == (1, 1, 1)
    assert Z.shape == (3, 1)
    direction = Z[:, 0] / Z[1, 0]
    assert np.allclose(direction, [3.0, 1.0, 3.0], atol=1e-9)


def oracle_slice(system, prof, i, rho=1e-6):
    """The oracle's trace-normalized affine set, as (point, constraint-row
    basis), and block layout for player i."""
    m = system.m[i]
    V, trace_row = kronecker_rows(system, prof, i)
    return (affine_slice(V, [trace_row], [m])[:2],
            [(system.n, 0.0), (m, rho), (system.n, 0.0)])


def test_projection_kernel_stop_reasons(monkeypatch):
    # One-dimensional kernel: the normalized slice is a single point, its
    # constraint rows span the whole space.
    (x_p, V), layout = oracle_slice(*scalar_game(3.0), 0)
    assert V.shape == (3, 3)
    x, reason, iterations, gap = project_affine_cone(x_p, V, layout)
    assert (reason, iterations, gap) == ("point", 0, 0.0)
    assert np.allclose(x, [3.0, 1.0, 3.0])
    assert cone_verdict(x, reason, layout) is True
    # Known-Nash game with a larger kernel: converges, or stops at the cap.
    system, _, prof, _ = converged_nash_games(seed=7, count=1)[0]
    (x_p, V), layout = oracle_slice(system, prof, 0)
    assert V.shape[0] - V.shape[1] > 1
    x, reason, iterations, gap = project_affine_cone(x_p, V, layout)
    assert reason == "converged" and 0 < iterations < PROJECTION_CAP
    assert gap <= PROJECTION_TOL
    assert cone_verdict(x, reason, layout) is True
    monkeypatch.setattr(numerics, "PROJECTION_CAP", 1)
    x, reason, iterations, gap = project_affine_cone(x_p, V, layout)
    assert (reason, iterations) == ("cap", 1) and gap > PROJECTION_TOL
    assert cone_verdict(x, reason, layout) is None


def test_projection_kernel_matches_per_block_loop(monkeypatch):
    slices = [oracle_slice(*scalar_game(3.0), 0)]
    for system, _, prof, _ in converged_nash_games(seed=7, count=4):
        slices += [oracle_slice(system, prof, i) for i in range(system.num_players)]
    total, total_ref = 0, 0
    for (x_p, V), layout in slices:
        # The first step, from an empty history, is the plain one.
        monkeypatch.setattr(numerics, "PROJECTION_CAP", 1)
        x, reason, _, _ = project_affine_cone(x_p, V, layout)
        x_ref, reason_ref, _ = loop_project_affine_cone(x_p, V, layout, 1, PROJECTION_TOL)
        assert reason == reason_ref and np.array_equal(x, x_ref)
        for cap, tol in ((PROJECTION_CAP, PROJECTION_TOL), (500, 1e-14)):
            monkeypatch.setattr(numerics, "PROJECTION_CAP", cap)
            monkeypatch.setattr(numerics, "PROJECTION_TOL", tol)
            x, reason, its, gap = project_affine_cone(x_p, V, layout)
            x_ref, reason_ref, its_ref = loop_project_affine_cone(x_p, V, layout, cap, tol)
            scale = max(1.0, float(np.linalg.norm(x)))
            assert np.linalg.norm(V.T @ (x - x_p)) <= 1e-12 * scale
            if reason_ref == "converged":
                assert reason == "converged"
            if reason == "converged":
                assert gap <= tol
                assert np.linalg.norm(x - cone_project(x, layout)) <= tol * scale
            verdict_ref = cone_verdict(x_ref, reason_ref, layout)
            if verdict_ref is not None:
                assert cone_verdict(x, reason, layout) == verdict_ref
            if cap == PROJECTION_CAP:
                total, total_ref = total + its, total_ref + its_ref
    assert 5 * total <= total_ref, (total, total_ref)


def test_projection_kernel_stalls_like_plain_loop_outside_cones(monkeypatch):
    # 3 x 3 symmetric matrices with trace -1 miss the PSD cone: both loops run
    # to the cap at the same nearest pair, -I/3 and 0.
    x_p = sym_pack(-np.eye(3) / 3.0)
    V = row_basis(x_p[None, :])
    layout = [(3, 0.0)]
    monkeypatch.setattr(numerics, "PROJECTION_CAP", 50)
    x, reason, its, gap = project_affine_cone(x_p, V, layout)
    x_ref, reason_ref, its_ref = loop_project_affine_cone(x_p, V, layout, 50, PROJECTION_TOL)
    assert (reason, its) == (reason_ref, its_ref) == ("cap", 50)
    assert np.allclose(x, x_ref, atol=1e-12)
    assert gap == pytest.approx(float(np.linalg.norm(x_ref)), rel=1e-12)
    assert cone_verdict(x, reason, layout) is None


def test_projection_kernel_returns_at_an_exact_fixed_point(monkeypatch):
    # The line {(-1, t)} misses the cones {x_1 >= 0, x_2 >= 0}; its nearest
    # point to them is x_p itself, so the first plain step leaves z at 0.
    calls = []

    def counting(x, layout):
        calls.append(1)
        return cone_project(x, layout)

    monkeypatch.setattr(numerics, "cone_project", counting)
    x_p, V = np.array([-1.0, 0.0]), np.array([[1.0], [0.0]])
    x, reason, its, gap = project_affine_cone(x_p, V, [(1, 0.0), (1, 0.0)])
    assert (reason, its, gap) == ("cap", PROJECTION_CAP, 1.0)
    assert np.array_equal(x, x_p)
    assert len(calls) <= 2


def test_identity_start_is_the_projected_identity_fit():
    # Full-rank V'E: alpha is the least-squares fit of V'E alpha to V'x_p,
    # clipped at 0, and the start the projection of E alpha_+ onto the set.
    rng = np.random.default_rng(3)
    layout = [(3, 0.0), (2, R_FLOOR)]
    E = np.zeros((9, 2))
    E[[0, 3, 5], 0] = E[[6, 8], 1] = 1.0  # packed I_3 and I_2
    for _ in range(20):
        V = np.linalg.qr(rng.standard_normal((9, 4)))[0]
        x_p = V @ rng.standard_normal(4)
        alpha = np.maximum(np.linalg.lstsq(V.T @ E, V.T @ x_p, rcond=None)[0], 0.0)
        c = E @ alpha
        z0 = numerics._identity_start(x_p, V, layout)
        assert np.allclose(z0, c - V @ (V.T @ c) + x_p, atol=1e-12)
        assert np.linalg.norm(V.T @ (z0 - x_p)) <= 1e-12 * max(1.0, np.linalg.norm(z0))


def test_identity_start_falls_back_to_x_p_when_no_identity_reaches_the_rows(monkeypatch):
    # diag(1, -1) is orthogonal to I, so V'E is a zero column (exactly, or to
    # round-off from an SVD): no error, and the start is x_p, whose first step
    # is then the plain one from x_p.
    x_p = sym_pack(np.diag([1.0, -1.0]))
    layout = [(2, 0.0)]
    E = numerics._identity_columns(tuple(layout))
    for V in ((x_p / np.linalg.norm(x_p))[:, None], row_basis(x_p[None, :])):
        assert np.abs(V.T @ E).max() <= 1e-15
        assert np.array_equal(numerics._identity_start(x_p, V, layout), x_p)
        c = cone_project(x_p, layout)
        monkeypatch.setattr(numerics, "PROJECTION_CAP", 1)
        x, reason, _, _ = project_affine_cone(x_p, V, layout)
        assert reason == "cap" and np.array_equal(x, c - V @ (V.T @ c) + x_p)
    # A second block: the zero column gets coefficient 0, and the other
    # block's fit is negative and clipped, so again the start is x_p.
    layout = [(2, 0.0), (1, 0.0)]
    V = np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [0.0, np.sqrt(2.0)]]) / np.sqrt(2.0)
    x_p = V @ np.array([1.0, -1.0])
    assert np.array_equal(V.T @ numerics._identity_columns(tuple(layout)),
                          [[0.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(numerics._identity_start(x_p, V, layout), x_p)


def oracle_games(nash_games, tmp_path):
    """(name, system, profile) of every nash_games game, tests/data fixture
    and bundled example."""
    games = [(f"nash_games[{k}]", system, profile)
             for k, (system, _, profile, _) in enumerate(nash_games)]
    paths = sorted(DATA.glob("*.json"))
    for name, blob in BUNDLED.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(blob)
    return games + [(path.stem, *load_problem(str(path))[:2]) for path in paths]


def test_qr_row_basis_matches_the_svd_reference_on_every_kalman_map(nash_games, tmp_path):
    # Both matrices each cone search takes a row basis of, the whole map
    # (nearest_params) and its Q_i and R_ii columns (player_feasibility), on
    # every nash_games game, tests/data fixture and bundled example: the QR
    # basis has the SVD reference's rank and spans its space to 1e-10.
    # (All of them have full row rank: the basis is the QR factor itself.)
    for name, system, profile in oracle_games(nash_games, tmp_path):
        maps, _ = stationarity_maps(system, profile)
        for i, M in enumerate(maps):
            for A in (M, np.hstack(feasibility._kalman_map(system, i, M))):
                basis, ref = row_basis(A), svd_row_basis(A)
                assert basis.shape == ref.shape, (name, i)
                assert max_principal_sine(basis, ref) <= 1e-10, (name, i)


def x_p_start(x_p, V, layout):
    return x_p


def test_identity_start_keeps_every_kalman_status(nash_games, tmp_path, monkeypatch):
    # solve_kalman_general and solve_kalman_Q answer with the identity-weight
    # start as they do from x_p, on every nash_games player, tests/data fixture
    # and bundled example.
    games = oracle_games(nash_games, tmp_path)

    def statuses():
        return [(name, i, inverse.solve_kalman_general(system, profile, i).status,
                 inverse.solve_kalman_Q(system, profile, i).status)
                for name, system, profile in games for i in range(system.num_players)]

    identity = statuses()
    monkeypatch.setattr(numerics, "_identity_start", x_p_start)
    assert identity == statuses()
    assert {o for *_, o, _ in identity} == {"solved", "infeasible", "indeterminate"}


def test_identity_start_halves_ladder_iterations(monkeypatch):
    # The tests/data ladder-recipe games: both Kalman searches take at most half
    # the iterations of the same loops started at x_p.
    games = [load_problem(str(path))[:2] for path in sorted(DATA.glob("ladder_*.json"))]

    def totals():
        pairs = [(inverse.solve_kalman_general(system, profile, i).iterations,
                  inverse.solve_kalman_Q(system, profile, i).iterations)
                 for system, profile in games for i in range(system.num_players)]
        return np.sum(pairs, axis=0)

    identity = totals()
    monkeypatch.setattr(numerics, "_identity_start", x_p_start)
    from_x_p = totals()
    assert (2 * identity <= from_x_p).all(), (identity, from_x_p)


def test_q_only_slice_keeps_least_squares_statuses(nash_games, tmp_path):
    # The cone search on the R_ii = I slice answers as the retired
    # least-squares q-only solve did, status and kernel_dim, on every
    # nash_games player, tests/data fixture and bundled example.  The
    # reference has no certificate: where the pinned block fails, the search
    # says "infeasible" and the reference never says "solved".
    answers = [((s := inverse.solve_kalman_Q(system, profile, i)).status, s.kernel_dim,
                least_squares_kalman_Q(system, profile, i), pinned_fails(system, profile, i))
               for _, system, profile in oracle_games(nash_games, tmp_path)
               for i in range(system.num_players)]
    for status, dim, (ref, ref_dim), fails in answers:
        assert dim == ref_dim
        if fails:
            assert status == "infeasible" and ref != "solved"
        else:
            assert status == ref
    assert {status for status, _, _, _ in answers} >= {"solved", "infeasible"}
    assert any(fails for _, _, _, fails in answers)


def test_pinned_block_matches_the_q_only_slice_and_spares_nash_players(nash_games, tmp_path):
    # Guard against a false certificate, on every nash_games player, tests/data
    # fixture and bundled example: B_i' Q_i B_i at the q-only slice point
    # (R_ii = I) equals the closed form -(M + M') - L'L, M = K_i Acl B_i and
    # L = K_i B_i, to 1e-9 relative to the scale of its terms; pinned_fails
    # reads that block's least eigenvalue on that scale; no player of a Nash
    # game fails it; and remark2's player 0, whose block reads exactly 0,
    # stays on the search (check exits 4 there).
    not_nash = {"allpass_n3_N1_m2", "infeasible_r1_n3_N3_m1", "scalar_infeasible"}
    failing = []
    for name, system, profile in oracle_games(nash_games, tmp_path):
        Acl = closed_loop(system, profile.K)
        for i in range(system.num_players):
            n, m, Ki, Bi = system.n, system.m[i], profile.K[i], system.B[i]
            M, L = Ki @ Acl @ Bi, Ki @ Bi
            block = -(M + M.T) - L.T @ L
            scale = max(1.0, np.linalg.norm(M + M.T), np.linalg.norm(L) ** 2)
            V = row_basis(np.hstack(feasibility._kalman_map(
                system, i, original_stationarity_map(system, profile, i))))
            eye = sym_pack(np.eye(m))
            pins = np.hstack([np.zeros((eye.size, sym_dim(n))), np.eye(eye.size)])
            x_p = affine_slice(V, pins, eye)[0]
            Q = sym_blocks(x_p, [(n, 0.0), (m, R_FLOOR)])[0]
            assert np.linalg.norm(Bi.T @ Q @ Bi - block) <= 1e-9 * scale, (name, i)
            least = float(np.linalg.eigvalsh(block).min())
            assert pinned_fails(system, profile, i) == (least < -POINT_SLACK * scale), (name, i)
            if pinned_fails(system, profile, i):
                failing.append((name, i))
            if (name, i) == ("remark2", 0):
                assert least == 0.0
    assert failing and {name for name, _ in failing} <= not_nash, failing


def test_modes_agree_bitwise_on_single_input_players(nash_games, tmp_path):
    # With m_i = 1 the trace slice trace(R_ii) = 1 is the pin R_ii = 1: both
    # modes run the same search, to bitwise the same Q and iterations.  q-only
    # reports its pinned R exactly; the general R is 1 to round-off.
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    if str(bench) not in sys.path:
        sys.path.insert(0, str(bench))
    import games
    closed = [games.closed_form_nash((1,), n, 2, 1) for n in (8, 12, 16)]
    players = [(system, profile, i)
               for _, system, profile in oracle_games(nash_games, tmp_path)
               for i in range(system.num_players) if system.m[i] == 1]
    for game in closed:
        system = GameSystem(game.A, game.B)
        profile = StrategyProfile.stabilizing(system, game.K)
        players += [(system, profile, i) for i in range(system.num_players)]
    statuses = set()
    for system, profile, i in players:
        q = inverse.solve_kalman_Q(system, profile, i)
        g = inverse.solve_kalman_general(system, profile, i)
        assert {"no_solution": "infeasible"}.get(q.status, q.status) == g.status
        assert np.array_equal(q.Q, g.Q) and q.iterations == g.iterations
        assert np.array_equal(q.R, [[1.0]])
        if g.status == "solved":
            assert abs(g.R[0, 0] - 1.0) <= 4 * np.finfo(float).eps
        statuses.add(q.status)
    assert len(players) > 50 and "solved" in statuses


def test_q_only_reports_no_solution_when_no_q_reaches_the_pin(tmp_path, capsys):
    # A random single-player game, n = 2, m = 2: the Kalman equation with
    # R = I has four rows in three unknowns, and no Q solves it.
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    K = np.linalg.solve(B, A + np.eye(2)) + 0.1 * rng.standard_normal((2, 2))
    system = GameSystem(A, [B])
    profile = StrategyProfile.stabilizing(system, [K])
    sol = inverse.solve_kalman_Q(system, profile, 0)
    assert (sol.status, sol.kernel_dim, sol.psd_ok) == ("no_solution", 0, False)
    # The identities certify it, as they do an "infeasible" player.
    res = solve_feasibility_projection(system, profile, mode="q-only")
    assert (res.status, res.solutions[0].status) == ("infeasible_certified_by_identity",
                                                      "no_solution")
    assert np.array_equal(sol.R, np.eye(2))
    # The residual is the relative miss of the first pin no point reaches,
    # not the 0.0 of a perfect fit.
    assert sol.residual > 0.1
    path = tmp_path / "no_solution.json"
    path.write_text(json.dumps({"schema_version": "1", "A": A.tolist(),
                                "players": [{"B": B.tolist(), "K_dagger": K.tolist()}]}))
    code = cli.main(["solve", str(path), "--mode", "q-only"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["status"], report["kalman_status"]) == (1, "infeasible", "no_solution")
    assert report["players"][0]["kalman"]["residual"] == pytest.approx(sol.residual, rel=1e-11)


def test_affine_slice_reports_the_miss_of_an_unreachable_row():
    # V fixes x_0 = 0; the row x_1 = 2 cuts the set, x_0 = 3 misses it by 3
    # relative to max(1, |x_p|) = 2, and x_0 = 1e-9 is reached to round-off.
    V = np.array([[1.0], [0.0], [0.0]])
    rows = [np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])]
    x_p, Va, miss = affine_slice(V, rows, [2.0, 3.0])
    assert (x_p, Va.shape, miss) == (None, (3, 2), 1.5)
    x_p, Va, miss = affine_slice(V, rows, [2.0, 1e-9])
    assert np.array_equal(x_p, [0.0, 2.0, 0.0]) and miss == 0.0


def test_per_game_maps_match_the_one_player_maps(nash_games, tmp_path):
    # One adjoint stack for all players (swept when tall) gives each player's
    # map within 1e-12 of its own stack, and the cone searches of both modes
    # on it keep their status and kernel_dim, on every nash_games player,
    # tests/data fixture and bundled example.
    for name, system, profile in oracle_games(nash_games, tmp_path):
        maps, U = feasibility.stationarity_maps(system, profile)
        assert len(maps) == system.num_players
        for i, M in enumerate(maps):
            ref, U_ref = _stationarity_map(system, profile, i)
            assert np.array_equal(U, U_ref), (name, i)
            assert np.linalg.norm(M - ref) <= 1e-12 * np.linalg.norm(ref), (name, i)
            for mode in ("general", "q-only"):
                a = feasibility.player_feasibility(system, profile, i, mode, M, U)
                b = feasibility.player_feasibility(system, profile, i, mode, ref, U)
                assert (a.status, a.kernel_dim) == (b.status, b.kernel_dim), (name, i, mode)


def test_each_command_factors_acl_once_for_the_kalman_stage(tmp_path, monkeypatch, capsys):
    # check (with and without the oracle), solve, solve --nearest and verify
    # on a 3-player game make one real Schur factorization each, of Acl',
    # while the problem loads: the Hurwitz test, every player's Kalman map
    # and solve's final verify_nash all read it.
    path = str(DATA / "ladder_r0_n8_N3_m2.json")
    system, profile, _, _ = load_problem(path)
    costs0 = tmp_path / "costs0.json"
    costs0.write_text(json.dumps({
        "Q": [np.eye(system.n).tolist()] * 3,
        "R": [[(np.eye(2) if i == j else np.zeros((2, 2))).tolist() for j in range(3)]
              for i in range(3)]}))
    factored = gees_calls(monkeypatch)
    for argv in (["check", path], ["check", path, "--no-oracle"], ["solve", path],
                 ["solve", path, "--nearest", str(costs0)], ["verify", path]):
        factored.clear()
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert len(factored) == 1, argv
        assert np.array_equal(factored[0], closed_loop(system, profile.K).T)


def found_costs(res):
    """The block-diagonal costs of a feasible oracle result."""
    return CostParameters.diagonal_R([s.Q for s in res.solutions], [s.R for s in res.solutions])


def test_feasibility_projection_scalar():
    system, prof = scalar_game(3.0)
    res = solve_feasibility_projection(system, prof)
    assert res.status == "feasible"
    ok, cert = verify_nash(system, prof, found_costs(res))
    assert ok
    # Solutions on the normalized slice trace(R) = 1 reduce to (3, 1, 3).
    assert np.allclose(res.solutions[0].Q, [[3.0]], atol=1e-6)
    assert np.allclose(cert.P[0], [[3.0]], atol=1e-6)


def test_feasibility_projection_infeasible_scalar():
    system, prof = scalar_game(1.5)
    for mode in ("general", "q-only"):
        res = solve_feasibility_projection(system, prof, mode=mode)
        assert res.status == "infeasible_certified_by_identity"
        assert [s.status for s in res.solutions] == ["infeasible"]


def test_searches_reject_an_unknown_mode_and_bad_players():
    # Both are input errors with their own message, raised before any search
    # runs or the stack's stage is labelled with the first listed player.
    system, profile, _, _ = load_problem(str(DATA / "ladder_r0_n8_N3_m2.json"))
    message = "^mode must be 'general' or 'q-only', got 'Q-only'$"
    with pytest.raises(ValueError, match=message):
        solve_feasibility_projection(system, profile, mode="Q-only")
    with pytest.raises(ValueError, match=message):
        feasibility.player_feasibility(system, profile, 0, "Q-only",
                                       *_stationarity_map(system, profile, 0))
    for players, message in (([], "at least one player required"),
                             ([0, 5], "player index 5 out of range"),
                             ([-1], "player index -1 out of range")):
        for search in (stationarity_maps, solve_feasibility_projection):
            with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
                search(system, profile, players)
    # One player's search checks its index before _kalman_map reads column
    # offsets by it: 5 would raise a bare IndexError there, and -1 would read
    # player 0's map at player 2's offsets.
    M, U = _stationarity_map(system, profile, 0)
    for i in (5, -1):
        for mode in ("general", "q-only"):
            with pytest.raises(DimensionError, match=f"^player index {i} out of range$"):
                feasibility.player_feasibility(system, profile, i, mode, M, U)
        # The reference identities and a player's reduced system share the check.
        for view in (feasibility.build_vectorized_system, reduced_system):
            with pytest.raises(DimensionError, match=f"^player index {i} out of range$"):
                view(system, profile, i)


def test_feasibility_agrees_with_forward_construction(nash_games):
    # The costs found pass verify_nash.
    games = [(system, profile) for system, _, profile, _ in nash_games]
    for name in ("closed_form_n8_N3_m1", "ladder_r0_n12_N2_m1", "ladder_r0_n8_N3_m2",
                 "ladder_r2_n8_N2_m1", "nearest_r2_n4_N3_m1"):
        games.append(load_problem(str(DATA / f"{name}.json"))[:2])
    for system, profile in games:
        res = solve_feasibility_projection(system, profile)
        assert res.status == "feasible"
        assert verify_nash(system, profile, found_costs(res))[0]


def test_membership_cone_scaling_and_convexity(nash_games):
    # Membership is verify_nash, which solves for P; P is linear in the costs.
    checked = 0
    for system, costs, profile, P in nash_games:
        if not verify_nash(system, profile, costs)[0]:
            continue
        for alpha in (0.1, 10.0):
            assert verify_nash(system, profile, costs.scaled(alpha))[0]
        checked += 1
        if checked >= 20:
            break
    assert checked >= 20


def test_nearest_params_scalar_oracle():
    # Reference Q0=5, R0=1 at k=3; the feasible ray is (3r, r), and the
    # Frobenius-nearest point is (4.8, 1.6) at squared distance 0.4.
    system, prof = scalar_game(3.0)
    costs0 = CostParameters([np.array([[5.0]])], [[np.array([[1.0]])]])
    res = nearest_params(costs0, system, prof)
    assert res.status == "feasible"
    assert np.allclose(res.costs.Q[0], [[4.8]], atol=1e-6)
    assert np.allclose(res.costs.R[0][0], [[1.6]], atol=1e-6)
    assert res.distance == pytest.approx(np.sqrt(0.4), abs=1e-6)


def test_nearest_params_infeasible():
    system, prof = scalar_game(1.5)
    costs0 = CostParameters([np.array([[1.0]])], [[np.array([[1.0]])]])
    res = nearest_params(costs0, system, prof)
    # The kernel is the one line q = -0.75 r, on which Q and R never share a
    # sign: the pinned block b'Qb = -0.75 certifies infeasibility before any
    # loop runs.
    assert res.status == "infeasible_certified_by_identity"
    assert res.iterations == (0,)
    assert res.costs is None


def ray_nearest(system, profile, x0):
    """The closed-form projection of x0 = (q0, r0) onto the feasible ray
    {t z : t >= R_FLOOR} of a scalar one-player game, z the kernel's point
    with R = 1, or None when that point misses the cones."""
    V = row_basis(original_stationarity_map(system, profile, 0))
    z = affine_slice(V, [np.array([0.0, 1.0])], [1.0])[0]
    if z is None or not cone_verdict(z, "point", [(1, 0.0), (1, R_FLOOR)]):
        return None
    return max(R_FLOOR, float(z @ x0) / float(z @ z)) * z


def test_nearest_params_one_dimensional_kernel_matches_douglas_rachford(tmp_path):
    # Bundled scalar_feasible, a one-dimensional kernel whose ray meets the
    # cones: the Douglas-Rachford loop's answer lies as far from the reference
    # costs as the clipped scalar projection onto the ray.
    path = tmp_path / "scalar_feasible.json"
    path.write_text(BUNDLED["scalar_feasible"])
    system, profile, _, _ = load_problem(str(path))
    costs0 = CostParameters([np.array([[5.0]])], [[np.array([[1.0]])]])
    res = nearest_params(costs0, system, profile)
    assert res.status == "feasible" and res.gaps[0] <= PROJECTION_TOL
    x0 = np.array([5.0, 1.0])
    y = ray_nearest(system, profile, x0)
    assert res.distance == pytest.approx(float(np.linalg.norm(y - x0)), rel=1e-9)
    assert res.distance == pytest.approx(np.sqrt(0.4), rel=1e-9)


def identity_costs(system):
    N = system.num_players
    return CostParameters([np.eye(system.n)] * N,
                          [[np.eye(mj) if j == i else np.zeros((mj, mj))
                            for j, mj in enumerate(system.m)] for i in range(N)])


def packed_row(costs, i):
    return np.concatenate([sym_pack(costs.Q[i])] + [sym_pack(Rij) for Rij in costs.R[i]])


def test_only_scalar_one_player_games_have_a_one_dimensional_kernel():
    # Player i's map has sym_dim(n) + sum_j sym_dim(m_j) columns and n m_i
    # rows, so its kernel has dimension at least ((n - m_i)^2 + n + m_i)/2 +
    # sum_{j != i} m_j(m_j + 1)/2 >= 1, which is 1 only when n = m_i = N = 1.
    rng = np.random.default_rng(27)
    shapes = [(1, [1])] + [(n, list(rng.integers(1, min(n, 3) + 1, size=rng.integers(1, 4))))
                           for n in rng.integers(1, 7, size=60)]
    for n, m in shapes:
        B = [rng.standard_normal((n, mj)) for mj in m]
        K = [0.3 * rng.standard_normal((mj, n)) for mj in m]
        G = rng.standard_normal((n, n))
        shift = np.linalg.norm(G, 2) + sum(np.linalg.norm(b @ k, 2) for b, k in zip(B, K)) + 1.0
        system = GameSystem(G - shift * np.eye(n), B)
        profile = StrategyProfile.stabilizing(system, K)
        for i, M in enumerate(stationarity_maps(system, profile)[0]):
            bound = ((n - m[i]) ** 2 + n + m[i]) // 2 + sum(
                mj * (mj + 1) // 2 for j, mj in enumerate(m) if j != i)
            assert bound == M.shape[1] - M.shape[0], (n, m, i)
            kernel_dim = M.shape[1] - row_basis(M).shape[1]
            assert kernel_dim >= bound, (n, m, i)
            assert (kernel_dim == 1) == (n == m[i] == len(m) == 1), (n, m, i)


def test_scalar_nearest_params_agrees_with_the_oracle():
    # On the one-dimensional kernel of a scalar one-player game, nearest_params
    # decides feasibility exactly as the oracle's single-point slice does, and
    # a feasible answer lies as far from the reference as the ray's.
    rng = np.random.default_rng(11)
    statuses = set()
    for _ in range(200):
        a, acl = 2.0 * rng.standard_normal(), -rng.uniform(0.1, 3.0)
        b = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        system = GameSystem(np.array([[a]]), [np.array([[b]])])
        profile = StrategyProfile.stabilizing(system, [np.array([[(a - acl) / b]])])
        costs0 = CostParameters([np.array([[rng.uniform(0.0, 5.0)]])],
                                [[np.array([[rng.uniform(0.1, 5.0)]])]])
        res = nearest_params(costs0, system, profile)
        oracle = solve_feasibility_projection(system, profile).status
        assert (res.status == "feasible") == (oracle == "feasible"), (a, b, acl)
        assert res.status in ("feasible", "infeasible_certified_by_identity")
        x0 = np.array([costs0.Q[0][0, 0], costs0.R[0][0][0, 0]])
        y = ray_nearest(system, profile, x0)
        if res.status == "feasible":
            assert res.distance == pytest.approx(float(np.linalg.norm(y - x0)), rel=1e-9)
        else:
            assert (y, res.iterations, res.gaps) == (None, (0,), (0.0,))
        statuses.add(res.status)
    assert statuses == {"feasible", "infeasible_certified_by_identity"}


def test_a_converged_nearest_answer_lies_on_the_kernel(tmp_path, monkeypatch):
    # nearest_params accepts its Douglas-Rachford answer y by cone_verdict
    # alone.  y needs no test of its own on the kernel: x = u - V(V'u) lies on
    # it and the stop rule bounds |y - x|, so |V'y| is round-off against the
    # cones' CONVERGED_SLACK.  Checked on ladder-recipe games and the bundled
    # examples, from identity costs and from each ladder game's own costs.
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    if str(bench) not in sys.path:
        sys.path.insert(0, str(bench))
    import games
    from workloads import CORPUS_SEED
    problems = []
    for cell in ((4, 2, 1), (4, 3, 1), (6, 2, 2), (8, 2, 1), (8, 3, 2), (12, 2, 1)):
        game = games.ladder_nash((CORPUS_SEED, 0, 1), *cell)
        system = GameSystem(game.A, game.B)
        profile = StrategyProfile.stabilizing(system, game.K)
        problems += [(system, profile, identity_costs(system)),
                     (system, profile, CostParameters(game.Q, game.R))]
    for name, blob in BUNDLED.items():
        path = tmp_path / f"{name}.json"
        path.write_text(blob)
        system, profile, _, _ = load_problem(str(path))
        problems.append((system, profile, identity_costs(system)))
    runs = []  # [V, y, reason] of each player searched

    def recording_basis(M):
        runs.append([row_basis(M)])
        return runs[-1][0]

    def recording_verdict(y, reason, layout):
        runs[-1] += [y, reason]
        return cone_verdict(y, reason, layout)

    monkeypatch.setattr(feasibility, "row_basis", recording_basis)
    monkeypatch.setattr(feasibility, "cone_verdict", recording_verdict)
    for system, profile, costs0 in problems:
        nearest_params(costs0, system, profile)
    # A player certified by its pinned block runs no loop: its run holds V alone.
    converged = [(run[0], run[1]) for run in runs if run[2:] == ["converged"]]
    assert len(converged) >= 25
    for V, y in converged:
        scale = max(1.0, float(np.linalg.norm(y)))
        assert float(np.linalg.norm(V.T @ y)) <= 10 * PROJECTION_TOL * scale


def test_nearest_params_matches_dykstra_reference(nash_games):
    # Douglas-Rachford and Dykstra reach the same projection of identity costs
    # wherever the Dykstra loop converges.
    compared = 0
    for system, _, profile, _ in nash_games:
        costs0 = identity_costs(system)
        res = nearest_params(costs0, system, profile)
        assert res.status == "feasible"
        assert len(res.gaps) == system.num_players
        assert all(gap <= PROJECTION_TOL for gap in res.gaps)
        for i in range(system.num_players):
            Z = nullspace(original_stationarity_map(system, profile, i))
            layout = [(system.n, 0.0)] + [(mj, R_FLOOR if j == i else 0.0)
                                          for j, mj in enumerate(system.m)]
            x0 = packed_row(costs0, i)
            x_ref, converged, _ = dykstra_nearest(x0, Z, layout, PROJECTION_CAP, PROJECTION_TOL)
            if not converged:
                continue
            dist = float(np.linalg.norm(packed_row(res.costs, i) - x0))
            assert dist == pytest.approx(float(np.linalg.norm(x_ref - x0)), rel=1e-7, abs=1e-12)
            compared += 1
    assert compared >= 50


def test_nearest_params_no_farther_than_scaled_nash_costs():
    # Every positive multiple of a game's Nash costs is feasible, so the
    # projection of identity costs is at least as close as the best multiple.
    for name in ("closed_form_n8_N3_m1", "ladder_r0_n12_N2_m1", "ladder_r0_n8_N3_m2",
                 "ladder_r2_n8_N2_m1", "nearest_r2_n4_N3_m1"):
        system, profile, costs, _ = load_problem(str(DATA / f"{name}.json"))
        costs0 = identity_costs(system)
        res = nearest_params(costs0, system, profile)
        assert res.status == "feasible", name
        best2 = 0.0
        for i in range(system.num_players):
            c, x0 = packed_row(costs, i), packed_row(costs0, i)
            alpha = max(R_FLOOR, float(c @ x0) / float(c @ c))
            best2 += float(np.linalg.norm(alpha * c - x0)) ** 2
        assert res.distance <= np.sqrt(best2) * (1.0 + 1e-9), name


def test_stalled_loops_stop_at_once(monkeypatch):
    # Game r2-infeasible-n4-N2-m2 of the benchmark corpus: the general-mode
    # cone search of player 1 (m_i = 2, so no slice fixes R_ii and no pinned
    # block decides) stalls outside the cones after a few iterations, with
    # |f| round-off but not 0, and can no longer converge before the cap.
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    if str(bench) not in sys.path:
        sys.path.insert(0, str(bench))
    import games
    from workloads import CORPUS_SEED
    game = games.infeasible((CORPUS_SEED, 2, 3), 2, 2)
    system = GameSystem(game.A, game.B)
    profile = StrategyProfile.stabilizing(system, game.K)
    calls, loops = [], []

    def counting(x, layout):
        calls.append(1)
        return cone_project(x, layout)

    def recording(*args):
        out = project_affine_cone(*args)
        loops.append((out[1], out[2], len(calls)))
        return out

    monkeypatch.setattr(numerics, "cone_project", counting)
    monkeypatch.setattr(feasibility, "project_affine_cone", recording)
    last = system.num_players - 1
    kalman = inverse.solve_kalman_general(system, profile, last)
    assert (kalman.status, kalman.iterations) == ("indeterminate", PROJECTION_CAP)
    search = feasibility.player_feasibility(system, profile, last, "general",
                                            *_stationarity_map(system, profile, last))
    assert (search.status, search.iterations) == ("indeterminate", PROJECTION_CAP)
    (reason_k, its_k, calls_k), (reason_o, its_o, calls_o) = loops
    assert (reason_k, its_k) == (reason_o, its_o) == ("cap", PROJECTION_CAP)
    assert calls_k < 100 and calls_o - calls_k == calls_k


def test_one_search_matches_kronecker_reference(nash_games, tmp_path):
    # The (Q_i, R_ii) search with P_i eliminated answers as the (Q_i, R_ii, P_i)
    # search over the vectorized system did, player by player, on every
    # nash_games game, tests/data fixture and bundled example.  The reference
    # has no certificate: where a single-input player's pinned block fails,
    # the search says "infeasible" and the reference never says "solved".
    games = oracle_games(nash_games, tmp_path)
    statuses, certified = [], 0
    for name, system, profile in games:
        for i in range(system.num_players):
            status = inverse.solve_kalman_general(system, profile, i).status
            ref = kronecker_player_feasibility(system, profile, i)[0]
            if system.m[i] == 1 and pinned_fails(system, profile, i):
                assert status == "infeasible" and ref != "solved", (name, i)
                certified += 1
            else:
                assert status == ref, (name, i)
            statuses.append(status)
    assert set(statuses) == {"solved", "infeasible", "indeterminate"} and certified


def test_fold_unfold_round_trip(nash_games):
    rng = np.random.default_rng(14)
    count = 0
    for system, costs, profile, P in nash_games:
        if system.num_players < 2:
            continue
        N = system.num_players
        strict = CostParameters(
            [np.asarray(Q) + 0.5 * np.eye(system.n) for Q in costs.Q], costs.R)
        R_choice = [[random_psd(rng, system.m[j]) if i != j else None
                     for j in range(N)] for i in range(N)]
        unfolded = unfold_cross_penalties(strict, profile, R_choice)
        refolded = fold_cross_penalties(unfolded, profile)
        lam = refolded.R[0][0][0, 0] / strict.R[0][0][0, 0]
        assert lam >= 1.0 - 1e-12
        for i in range(N):
            assert np.allclose(refolded.Q[i], lam * strict.Q[i], atol=1e-9)
            for j in range(N):
                assert np.allclose(refolded.R[i][j], lam * strict.R[i][j], atol=1e-9)
        count += 1
        if count >= 10:
            break
    assert count >= 5


def test_unfold_requires_positive_definite_q():
    system, prof = scalar_game(3.0)
    system2 = GameSystem(np.array([[1.0]]), [np.array([[1.0]]), np.array([[1.0]])])
    prof2 = StrategyProfile.stabilizing(system2, [np.array([[1.0]]), np.array([[1.0]])])
    costs = CostParameters([np.zeros((1, 1)), np.eye(1)],
                           [[np.eye(1), np.zeros((1, 1))],
                            [np.zeros((1, 1)), np.eye(1)]])
    with pytest.raises(ValueError):
        unfold_cross_penalties(costs, prof2, [[None, np.eye(1)], [np.eye(1), None]])


def test_fold_preserves_nash(nash_games):
    # Folding the cross penalties leaves the equilibrium verification intact.
    rng = np.random.default_rng(15)
    for system, costs, profile, P in nash_games[:10]:
        if system.num_players < 2:
            continue
        N = system.num_players
        cross = [[random_psd(rng, system.m[j]) if i != j else costs.R[i][i]
                  for j in range(N)] for i in range(N)]
        with_cross = CostParameters(costs.Q, cross)
        # The profile is Nash for costs (zero cross terms); fold of a
        # cross-term variant changes Q but keeps the verification structure.
        folded = fold_cross_penalties(with_cross, profile)
        for i in range(N):
            for j in range(N):
                if i != j:
                    assert np.allclose(folded.R[i][j], 0.0)


def test_oracle_decides_ladder_n12_game():
    # Game r0-ladder-n12-N2-m1 of the benchmark corpus (perfbench at CORPUS_SEED), Nash
    # by construction; plain alternating projections stop at the 10k cap on player 0.
    system, profile, _, _ = load_problem(str(DATA / "ladder_r0_n12_N2_m1.json"))
    res = solve_feasibility_projection(system, profile)
    assert res.status == "feasible"
    assert verify_nash(system, profile, found_costs(res))[0]
