from pathlib import Path

import numpy as np
import pytest

from nashinduce import (
    CostParameters,
    GameSystem,
    StrategyProfile,
    coupled_are_residuals,
    equilibrium_cost,
    newton_kleinman,
    solve_coupled_are,
    verify_nash,
)
from nashinduce.cli import load_problem
from nashinduce.forward import _coupled_jacobian, _coupled_residual_mats
from nashinduce.realization import closed_loop
from nashinduce.numerics import DimensionError, sym_dim, sym_pack, sym_unpack


def scalar_system():
    return GameSystem(np.array([[1.0]]), [np.array([[1.0]])])


def two_player_scalar():
    system = GameSystem(np.array([[1.0]]), [np.array([[1.0]]), np.array([[1.0]])])
    costs = CostParameters.identity_R([np.eye(1), np.eye(1)], system.m)
    return system, costs


def test_cost_parameters_validation():
    system = scalar_system()
    costs = CostParameters([np.array([[1.0]])], [[np.array([[1.0]])]])
    costs.validate(system)
    bad_q = CostParameters([np.array([[-1.0]])], [[np.array([[1.0]])]])
    with pytest.raises(ValueError):
        bad_q.validate(system)
    bad_r = CostParameters([np.array([[1.0]])], [[np.array([[0.0]])]])
    with pytest.raises(ValueError):
        bad_r.validate(system)


def test_verify_nash_scalar_closed_form():
    # a=1, b=1, k=3: ARE 2p - p^2 + q = 0 with stationarity p = k gives q = 3.
    system = scalar_system()
    prof = StrategyProfile.stabilizing(system, [np.array([[3.0]])])
    costs = CostParameters([np.array([[3.0]])], [[np.array([[1.0]])]])
    ok, cert = verify_nash(system, prof, costs)
    assert ok
    assert np.allclose(cert.P[0], [[3.0]], atol=1e-12)
    assert cert.hurwitz_margin > 0


def _eig_margin(system, profile):
    Acl = closed_loop(system, profile.K)
    return -float(np.max(np.linalg.eigvals(Acl).real)), max(1.0, float(np.linalg.norm(Acl)))


def test_hurwitz_margin_is_the_eigenvalue_margin(nash_games):
    # verify_nash reads the margin off the Lyapunov solve's Schur form; it
    # must agree with -max Re eig(Acl), also where complex pairs set it.
    games = [(system, profile, costs) for system, costs, profile, _ in nash_games]
    for path in sorted((Path(__file__).parent / "data").glob("*.json")):
        system, profile, costs, _ = load_problem(str(path))
        if costs is not None:
            games.append((system, profile, costs))
    rng = np.random.default_rng(3)
    for _ in range(20):  # top eigenvalues a complex pair, in nonnormal coordinates
        V = rng.standard_normal((5, 5))
        D = np.diag([-0.3, -1.0, -2.0, -2.5, -4.0])
        D[0, 1], D[1, 0], D[0, 0], D[1, 1] = 3.0, -3.0, -0.1, -0.1
        system = GameSystem(V @ D @ np.linalg.inv(V), [np.eye(5)])
        games.append((system, StrategyProfile([np.zeros((5, 5))]),
                      CostParameters.identity_R([np.eye(5)], system.m)))
    complex_top = 0
    for system, profile, costs in games:
        margin, scale = _eig_margin(system, profile)
        assert abs(verify_nash(system, profile, costs)[1].hurwitz_margin - margin) <= 1e-12 * scale
        w = np.linalg.eigvals(closed_loop(system, profile.K))
        complex_top += abs(w[np.argmax(w.real)].imag) > 0
    assert complex_top >= 20


def test_verify_nash_factors_acl_once_and_calls_no_eig(monkeypatch):
    import scipy.linalg
    system, profile, costs, _ = load_problem(str(Path(__file__).parent / "data"
                                                 / "closed_form_n8_N3_m1.json"))
    calls = []
    schur, eigvals = scipy.linalg.schur, np.linalg.eigvals
    monkeypatch.setattr(scipy.linalg, "schur",
                        lambda *a, **k: calls.append("schur") or schur(*a, **k))
    monkeypatch.setattr(np.linalg, "eigvals", lambda *a: calls.append("eig") or eigvals(*a))
    assert verify_nash(system, profile, costs)[0]
    assert calls == ["schur"]


@pytest.mark.parametrize("k", [0.5, 1.0])
def test_verify_nash_rejects_a_non_hurwitz_closed_loop_in_the_lyapunov_solve(k):
    system = scalar_system()
    costs = CostParameters([np.array([[1.0]])], [[np.array([[1.0]])]])
    with pytest.raises(ValueError, match="Acl must be Hurwitz for a Lyapunov solve"):
        verify_nash(system, StrategyProfile([np.array([[k]])]), costs)


def test_verify_nash_rejects_wrong_q():
    system = scalar_system()
    prof = StrategyProfile.stabilizing(system, [np.array([[3.0]])])
    costs = CostParameters([np.array([[2.7]])], [[np.array([[1.0]])]])
    ok, cert = verify_nash(system, prof, costs)
    assert not ok
    assert max(cert.are_residuals) > 1e-3


def test_verify_nash_two_player_scalar():
    system, costs = two_player_scalar()
    prof = StrategyProfile.stabilizing(
        system, [np.array([[1.0]]), np.array([[1.0]])])
    ok, cert = verify_nash(system, prof, costs)
    assert ok
    assert np.allclose(cert.P[0], [[1.0]], atol=1e-12)
    assert np.allclose(cert.P[1], [[1.0]], atol=1e-12)


def test_newton_kleinman_scalar():
    # Single-player LQR: p solves 2p - p^2 + 1 = 0, stabilizing root 1+sqrt(2).
    K, P = newton_kleinman(np.array([[1.0]]), np.array([[1.0]]),
                           np.eye(1), np.eye(1), np.array([[2.0]]))
    assert abs(P[0, 0] - (1.0 + np.sqrt(2.0))) <= 1e-10
    assert np.allclose(K, P)


def test_newton_kleinman_needs_stabilizing_seed():
    with pytest.raises(ValueError):
        newton_kleinman(np.array([[1.0]]), np.array([[1.0]]),
                        np.eye(1), np.eye(1), np.array([[0.5]]))


def test_newton_kleinman_matches_lyapunov_fixed_point():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n, m = 3, 2
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        Q = rng.standard_normal((n, n))
        Q = Q @ Q.T + 0.1 * np.eye(n)
        R = np.eye(m)
        beta = float(np.linalg.norm(A, 2)) + 1.0
        # crude stabilizing seed by eigenvalue shift
        from nashinduce.numerics import solve_lyapunov
        X = solve_lyapunov(-(A + beta * np.eye(n)).T, 2.0 * B @ B.T)
        K0 = B.T @ np.linalg.inv(X)
        K, P = newton_kleinman(A, B, Q, R, K0)
        res = Q + P @ A + A.T @ P - P @ B @ np.linalg.inv(R) @ B.T @ P
        assert np.linalg.norm(res) <= 1e-8 * max(1.0, np.linalg.norm(P))
        assert np.allclose(K, np.linalg.inv(R) @ B.T @ P)


def test_solve_coupled_are_two_player_scalar():
    # Symmetric solution: p solves 3p^2 - 2p - 1 = 0, stabilizing root p = 1.
    system, costs = two_player_scalar()
    seed = StrategyProfile.stabilizing(
        system, [np.array([[1.5]]), np.array([[1.5]])])
    profile, P, converged = solve_coupled_are(system, costs, seed)
    assert converged
    # The root is degenerate along the antisymmetric direction, so the
    # iterate is residual-accurate rather than gain-accurate.
    assert abs(profile.K[0][0, 0] - 1.0) <= 1e-3
    assert abs(profile.K[1][0, 0] - 1.0) <= 1e-3
    res = coupled_are_residuals(system, costs, profile.K, P)
    assert max(res) <= 1e-8
    ok, _ = verify_nash(system, profile, costs)
    assert ok


def test_solve_coupled_are_needs_stabilizing_seed():
    system, costs = two_player_scalar()
    seed = StrategyProfile([np.array([[0.2]]), np.array([[0.2]])])
    with pytest.raises(ValueError):
        solve_coupled_are(system, costs, seed)


def test_solve_coupled_are_random_games(nash_games):
    for system, costs, profile, P in nash_games[:10]:
        res = coupled_are_residuals(system, costs, profile.K, P)
        scale = max(1.0, max(np.linalg.norm(Pi) for Pi in P))
        assert max(res) <= 1e-8 * scale
        ok, _ = verify_nash(system, profile, costs)
        assert ok


def probe_jacobian(system, costs, P):
    """Reference Jacobian of the packed residuals: column k of block j is the
    directional derivative of every F_i along the k-th packed unit matrix dP_j."""
    N, n = system.num_players, system.n
    dim = sym_dim(n)
    _, G, Acl = _coupled_residual_mats(system, costs, P)
    J = np.zeros((N * dim, N * dim))
    for j in range(N):
        Rjj_invBt = np.linalg.solve(costs.R[j][j], system.B[j].T)
        for k in range(dim):
            dPj = sym_unpack(np.eye(dim)[k], n)
            dGj = Rjj_invBt @ dPj
            dAcl = -system.B[j] @ dGj
            for i in range(N):
                dF = P[i] @ dAcl + dAcl.T @ P[i]
                if i == j:
                    dF += dPj @ Acl + Acl.T @ dPj
                dF += dGj.T @ costs.R[i][j] @ G[j] + G[j].T @ costs.R[i][j] @ dGj
                J[i * dim:(i + 1) * dim, j * dim + k] = sym_pack(0.5 * (dF + dF.T))
    return J


def random_cross_penalty_game(rng, n, N, m):
    """Random plant, values P and costs with R_jj != I and R_ij != 0."""
    system = GameSystem(rng.standard_normal((n, n)),
                        [rng.standard_normal((n, m)) for _ in range(N)])

    def psd(k):
        C = rng.standard_normal((k, k))
        return C @ C.T

    costs = CostParameters(
        [psd(n) for _ in range(N)],
        [[psd(m) + (0.5 * np.eye(m) if i == j else 0.0) for j in range(N)]
         for i in range(N)])
    return system, costs, [psd(n) for _ in range(N)]


@pytest.mark.parametrize("N", [1, 2, 3])
def test_coupled_jacobian_matches_probe(N):
    rng = np.random.default_rng(500 + N)
    for n in range(1, 9):
        for m in range(1, min(n, 3) + 1):
            system, costs, P = random_cross_penalty_game(rng, n, N, m)
            _, G, Acl = _coupled_residual_mats(system, costs, P)
            J = _coupled_jacobian(system, costs, P, G, Acl)
            ref = probe_jacobian(system, costs, P)
            assert J.shape == ref.shape == (N * sym_dim(n), N * sym_dim(n))
            assert np.max(np.abs(J - ref)) <= 1e-12 * np.max(np.abs(ref)), (n, N, m)


def test_probe_jacobian_is_the_residual_derivative():
    # F is quadratic in P, so a central difference with a unit step is exact.
    rng = np.random.default_rng(77)
    for n, N, m in [(1, 1, 1), (3, 2, 2), (5, 3, 1), (4, 2, 3)]:
        system, costs, P = random_cross_penalty_game(rng, n, N, m)
        dim = sym_dim(n)

        def packed(Plist):
            F, _, _ = _coupled_residual_mats(system, costs, Plist)
            return np.concatenate([sym_pack(Fi) for Fi in F])

        ref = probe_jacobian(system, costs, P)
        for col in range(N * dim):
            j, k = divmod(col, dim)
            E = sym_unpack(np.eye(dim)[k], n)
            up = [Pi + E if i == j else Pi for i, Pi in enumerate(P)]
            down = [Pi - E if i == j else Pi for i, Pi in enumerate(P)]
            diff = 0.5 * (packed(up) - packed(down))
            assert np.allclose(diff, ref[:, col], rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))


def test_equilibrium_cost():
    P = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert equilibrium_cost(P, [1.0, 1.0]) == pytest.approx(6.0)
    with pytest.raises(DimensionError):
        equilibrium_cost(P, [1.0])
