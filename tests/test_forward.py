import itertools
import sys
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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def semidefinite_at(M, tol, strict=False):
    """is_psd (is_pd when strict) of an exactly symmetric M at tolerance tol:
    its least eigenvalue against the floor tol * max(1, |M|_F)."""
    w, floor = np.linalg.eigvalsh(M).min(), tol * max(1.0, float(np.linalg.norm(M)))
    return bool(w > floor if strict else w >= -floor)


def loop_validate(costs, system, tol=1e-8):
    """Per-block reference of CostParameters.validate: is_psd / is_pd on each
    block in turn, each shape checked as it comes."""
    N = system.num_players
    if len(costs.Q) != N or len(costs.R) != N:
        raise DimensionError("cost parameters must cover every player")
    for i in range(N):
        if costs.Q[i].shape != (system.n, system.n):
            raise DimensionError(f"Q[{i}] has wrong shape")
        if not semidefinite_at(costs.Q[i], tol):
            raise ValueError(f"Q[{i}] is not positive semidefinite")
        for j in range(N):
            if costs.R[i][j].shape != (system.m[j], system.m[j]):
                raise DimensionError(f"R[{i}][{j}] has wrong shape")
        if not semidefinite_at(costs.R[i][i], tol, strict=True):
            raise ValueError(f"R[{i}][{i}] is not positive definite")
        for j in range(N):
            if j != i and not semidefinite_at(costs.R[i][j], tol):
                raise ValueError(f"R[{i}][{j}] is not positive semidefinite")


def _validation(check, *args):
    """None if check(*args) passes, else the type and message it raised."""
    try:
        check(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def _threshold_blocks(size, tol):
    """Blocks of one size (<= 4) whose least eigenvalue sits at, one ulp beyond
    and one ulp short of the PD floor +tol and the PSD floor -tol (their
    norm is below 1, so the floors are tol * max(1, |M|) = tol), diagonal so
    that eigvalsh reads it exactly; and relatively 1e-6 off either floor in
    rotated coordinates."""
    rest = np.full(size - 1, 0.5)
    exact = [x for g in (tol, -tol) for x in (g, np.nextafter(g, np.inf), np.nextafter(g, -np.inf))]
    V = np.linalg.qr(np.random.default_rng(size).standard_normal((size, size)))[0]
    blocks = [(t, np.diag(np.r_[t, rest])) for t in exact + [0.0]]
    blocks += [(None, V @ np.diag(np.r_[c * tol, rest]) @ V.T)
               for c in (1 + 1e-6, 1 - 1e-6, -1 + 1e-6, -1 - 1e-6)]
    return blocks


def test_validate_agrees_with_the_per_block_reference(nash_games):
    # Every cost set of the tests, then blocks at the floors put at each
    # position of a game with mixed input widths: pass or the same first error.
    sets = [(system, costs) for system, costs, _, _ in nash_games]
    for path in sorted((Path(__file__).parent / "data").glob("*.json")):
        system, _, costs, _ = load_problem(str(path))
        if costs is not None:
            sets.append((system, costs))
    sets.append(two_player_scalar())
    rng = np.random.default_rng(5)
    system = GameSystem(-np.eye(3), [rng.standard_normal((3, 1)), rng.standard_normal((3, 2))])
    N, m = system.num_players, system.m
    base_Q = [np.eye(3)] * N
    base_R = [[np.eye(m[j]) if i == j else np.zeros((m[j], m[j])) for j in range(N)]
              for i in range(N)]
    positions = [("Q", i, None) for i in range(N)] + [("R", i, j) for i in range(N) for j in range(N)]
    for tol in (1e-8, 1e-6):
        for kind, i, j in positions:
            for t, M in _threshold_blocks(3 if kind == "Q" else m[j], tol):
                Q, R = list(base_Q), [list(row) for row in base_R]
                if kind == "Q":
                    Q[i] = M
                else:
                    R[i][j] = M
                costs = CostParameters(Q, R)
                got = _validation(costs.validate, system, tol)
                assert got == _validation(loop_validate, costs, system, tol), (kind, i, j, t)
                if t is not None:  # at the floors: > tol for R_ii, >= -tol otherwise
                    assert (got is None) == (t > tol if kind == "R" and i == j else t >= -tol)
        # Two failing blocks: the first in player order is reported.
        for (k1, i1, j1), (k2, i2, j2) in itertools.permutations(positions, 2):
            Q, R = list(base_Q), [list(row) for row in base_R]
            for kind, i, j in ((k1, i1, j1), (k2, i2, j2)):
                size = 3 if kind == "Q" else m[j]
                if kind == "Q":
                    Q[i] = -np.eye(size)
                else:
                    R[i][j] = -np.eye(size)
            costs = CostParameters(Q, R)
            got = _validation(costs.validate, system, tol)
            assert got is not None and got == _validation(loop_validate, costs, system, tol)
    for system, costs in sets:
        for tol in (1e-8, 1e-6):
            assert _validation(costs.validate, system, tol) == \
                _validation(loop_validate, costs, system, tol) is None


def test_verify_nash_psd_flags_are_is_psd(tmp_path, nash_games):
    # P_psd comes from one eigvalsh of the P stack; it must be is_psd(P_i, tol)
    # on the Nash games, on closed-form games with Q_1 doubled, and on games
    # whose P is singular, where round-off decides the flag at tiny tolerances.
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import games
    cases = [(system, profile, costs) for system, costs, profile, _ in nash_games]
    for n, N, m in ((4, 2, 1), (8, 3, 1), (8, 2, 2), (16, 2, 1)):
        path = tmp_path / f"doubled_{n}_{N}_{m}.json"
        path.write_text(games.closed_form_nash((5,), n, N, m, doubled_q=True).problem_json())
        cases.append(load_problem(str(path))[:3])
    rng = np.random.default_rng(11)
    for n in (3, 5, 8) * 5:
        # x_2..x_n never reach x_1 and the weight is K'K with K along e_1, so
        # P = diag(p, 0): least eigenvalue exactly 0 as given, round-off in
        # rotated coordinates V.
        A = rng.standard_normal((n, n))
        A[0, 1:] = 0.0
        A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
        for V in (np.eye(n), np.linalg.qr(rng.standard_normal((n, n)))[0]):
            system = GameSystem(V @ A @ V.T, [V[:, :1]])
            cases.append((system, StrategyProfile([0.5 * V[:, :1].T]),
                          CostParameters.identity_R([np.zeros((n, n))], system.m)))
    flags = []
    for system, profile, costs in cases:
        for tol in (1e-8, 1e-17, 0.0):
            try:
                _, cert = verify_nash(system, profile, costs, tol)
            except ValueError:  # costs rejected at a tiny tolerance
                continue
            assert list(cert.psd_ok) == [semidefinite_at(P, tol) for P in cert.P]
            flags += cert.psd_ok
    assert flags.count(False) >= 10 and flags.count(True) >= 200


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
