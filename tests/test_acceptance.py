"""Acceptance suite: ten end-to-end criteria, one printed verdict line each.

Run with `pytest -v -s` to see the verdict lines.
"""

import json

import numpy as np
import pytest

from nashinduce import (
    CostParameters,
    GameSystem,
    StrategyProfile,
    analyze_player,
    fold_cross_penalties,
    solve_feasibility_projection,
    unfold_cross_penalties,
    verify_nash,
)
from nashinduce.cli import main as cli_main
from nashinduce.feasibility import _player_nullspace, build_vectorized_system
from nashinduce.inverse import (
    analyze_phi,
    build_phi,
    check_rank_condition,
    circle_criterion,
    solve_kalman_general,
    solve_kalman_Q,
)
from nashinduce.numerics import kron, kron_sum, vec
from nashinduce.polymat import PolyMatrix
from nashinduce.problems import BUNDLED
from nashinduce.realization import attach_feedback, reduced_system, right_coprime_factorization

from conftest import bass_seed, random_pd, random_psd


def report(num, ok, summary):
    print(f"ACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, f"criterion {num} failed: {summary}"


def remark2():
    A = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    B1 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    B2 = np.array([[1.0], [0.0], [0.0]])
    r2 = 1.0 + np.sqrt(2.0)
    K1 = np.array([[1.0, 0.0, 1.0], [0.0, r2, r2]])
    K2 = np.array([[1.0, 0.0, 0.0]])
    system = GameSystem(A, [B1, B2])
    profile = StrategyProfile.stabilizing(system, [K1, K2])
    return system, profile


def remark2_player1_factorization():
    system, profile = remark2()
    A_tilde, _ = reduced_system(system, profile, 0)
    fac = right_coprime_factorization(A_tilde, system.B[0])
    return attach_feedback(fac, profile.K[0]), system, profile


def scalar_game(k):
    system = GameSystem(np.array([[1.0]]), [np.array([[1.0]])])
    profile = StrategyProfile.stabilizing(system, [np.array([[k]])])
    return system, profile


def test_criterion_1_worked_example_factorization():
    fac, _, _ = remark2_player1_factorization()
    S_expected = PolyMatrix.from_entries(
        [[[1.0], [0.0]], [[0.0], [0.0, 1.0]], [[0.0], [1.0]]])
    D_expected = PolyMatrix.from_entries(
        [[[0.0, 1.0], [-1.0]], [[0.0], [-1.0, 0.0, 1.0]]])
    r2 = np.sqrt(2.0)
    Dt_expected = PolyMatrix.from_entries([
        [[1.0, 1.0], [0.0]],
        [[0.0], [r2, 1.0 + r2, 1.0]],
    ])
    ok = (fac.S.allclose(S_expected, tol=1e-10)
          and fac.D.allclose(D_expected, tol=1e-10)
          and fac.D_tilde.allclose(Dt_expected, tol=1e-9))
    report(1, ok, "right-coprime factors S, D and feedback factor D-tilde "
                  "match the worked three-state example")


def test_criterion_2_worked_example_phi():
    fac, _, _ = remark2_player1_factorization()
    phi = build_phi(fac)
    eval_ok = all(
        np.linalg.norm(phi.eval(1j * w)
                       - np.array([[1.0, -1j * w], [1j * w, w * w]])) <= 1e-10
        for w in (0.0, 1.0, -1.0, 10.0, -10.0))
    circle_ok, _, _ = circle_criterion(phi)
    rank_ok = phi.poly_rank() == 1
    report(2, eval_ok and circle_ok and rank_ok,
           "Phi(jw) values, circle criterion, and polynomial rank 1 "
           "on the worked example")


def test_criterion_3_worked_example_rank_certificate():
    fac, _, _ = remark2_player1_factorization()
    analysis = analyze_phi(fac)
    cert = check_rank_condition(fac, analysis)
    ok = not cert.satisfied and len(cert.violations) == 1
    if ok:
        v = cert.violations[0]
        ok = (abs(v.s0 - 1.0) <= 1e-7
              and v.real_v_available
              and np.max(np.abs(np.imag(v.v))) <= 1e-9
              and abs(v.v[0]) <= 1e-9  # leading p = 1 entries vanish
              and np.linalg.norm((fac.D @ analysis.L).eval(v.s0) @ v.v) <= 1e-6)
    # The production route, in state space: the same violation, with the unit
    # eigenvector of A_tilde at s0 = 1 as its real witness.
    pa = analyze_player(*remark2(), 0)
    ok = ok and not pa.rank_ok and len(pa.violations) == 1
    if ok:
        v = pa.violations[0]
        ok = (abs(v.s0 - 1.0) <= 1e-9 and np.isrealobj(v.x)
              and np.linalg.norm(v.x - np.ones(3) / np.sqrt(3.0)) <= 1e-9)
    report(3, ok, "closed-RHP rank violation located at s0 = 1 with a real "
                  "witness whose leading entry vanishes, and in state space "
                  "with the real witness x = [1, 1, 1] / sqrt(3)")


def test_criterion_4_discrepancy_surfacing(tmp_path, capsys):
    system, profile = remark2()
    sol = solve_kalman_Q(system, profile, 0)
    family_ok = (sol.residual <= 1e-8 and sol.psd_ok and np.allclose(
        [sol.Q[0, 0], sol.Q[0, 1], sol.Q[1, 1], sol.Q[0, 2], sol.Q[2, 2]],
        [1.0, -1.0, 1.0, 0.0, 0.0], atol=1e-8))

    sol2 = solve_kalman_Q(system, profile, 1)
    costs = CostParameters.identity_R([sol.Q, sol2.Q], system.m)
    vok, cert = verify_nash(system, profile, costs)
    verify_ok = (vok and cert.are_residuals[0] <= 1e-9
                 and cert.stationarity_residuals[0] <= 1e-9)

    path = tmp_path / "remark2.json"
    path.write_text(BUNDLED["remark2"])
    code = cli_main(["check", str(path)])
    out = capsys.readouterr().out
    cli_report = json.loads(out)
    cli_ok = code == 4 and cli_report["disagreement"] is True
    report(4, family_ok and verify_ok and cli_ok,
           "identity-weight Kalman solve finds a PSD state weight that "
           "verifies, while the check command reports the disagreement (exit 4)")


def test_criterion_5_scalar_closed_forms():
    system, profile = scalar_game(3.0)
    pa = analyze_player(system, profile, 0)
    sol = solve_feasibility_projection(system, profile).solutions[0]
    costs = CostParameters.identity_R([sol.Q], system.m)
    _, cert = verify_nash(system, profile, costs)
    good_ok = (pa.inducible
               and abs(sol.Q[0, 0] - 3.0) <= 1e-9
               and abs(cert.P[0][0, 0] - 3.0) <= 1e-9)

    system_b, profile_b = scalar_game(1.5)
    pa = analyze_player(system_b, profile_b, 0)
    # The state-space route decides this player; the polynomial Phi is the
    # reference for its value.
    fac = attach_feedback(right_coprime_factorization(system_b.A, system_b.B[0]),
                          profile_b.K[0])
    phi_val = build_phi(fac).eval(0.0).real[0, 0]
    feas = solve_feasibility_projection(system_b, profile_b)
    # The gap at the witness: -0.75 / (w^2 + 0.25) at w = 0, Phi's sign.
    bad_ok = (not pa.circle_ok
              and pa.circle_witness == 0.0
              and abs(phi_val + 0.75) <= 1e-12
              and pa.circle_gap == -3.0
              and feas.status == "infeasible_certified_by_identity")
    report(5, good_ok and bad_ok,
           "scalar closed forms: k=3 inducible with Q=3, P=3; k=1.5 fails the "
           "circle criterion (Phi=-0.75) and the time-domain oracle agrees")


def test_criterion_6_round_trip_random_games(nash_games):
    assert len(nash_games) >= 50
    determinate = 0
    failures = []
    for gi, (system, costs, profile, P) in enumerate(nash_games):
        N = system.num_players
        Qs, Rs = [], []
        indeterminate = False
        for i in range(N):
            pa = analyze_player(system, profile, i)
            if not (pa.circle_ok and pa.rank_ok):
                failures.append((gi, i, "frequency verdict"))
                break
            kalman = solve_kalman_general(system, profile, i)
            if kalman.status == "indeterminate":
                indeterminate = True
                break
            if kalman.status != "solved" or kalman.residual > 1e-8:
                failures.append((gi, i, "kalman recovery"))
                break
            Qs.append(kalman.Q)
            Rs.append(kalman.R)
        else:
            R = [[Rs[i] if i == j else np.zeros((system.m[j],) * 2)
                  for j in range(N)] for i in range(N)]
            vok, _ = verify_nash(system, profile, CostParameters(Qs, R))
            if not vok:
                failures.append((gi, "verification"))
            else:
                determinate += 1
            continue
        if indeterminate:
            continue
    ok = not failures and determinate >= 50
    report(6, ok, f"inverse pipeline round-trips {determinate} forward-"
                  f"constructed Nash games with zero failures")


def test_criterion_7_cone_and_convexity(nash_games):
    rng = np.random.default_rng(16)
    tested = 0
    failures = 0
    # Membership is verify_nash: it solves for each P_i, which is linear in
    # the costs, so scaled and mixed costs carry scaled and mixed P_i.
    for system, costs, profile, P in nash_games:
        if not verify_nash(system, profile, costs)[0]:
            continue
        # second member point: the normalized Kalman recovery
        N = system.num_players
        Qs, Rs = [], []
        for i in range(N):
            sol = solve_kalman_general(system, profile, i)
            if sol.status != "solved":
                break
            Qs.append(sol.Q)
            Rs.append(sol.R)
        else:
            R = [[Rs[i] if i == j else np.zeros((system.m[j],) * 2)
                  for j in range(N)] for i in range(N)]
            costs2 = CostParameters(Qs, R)
            if verify_nash(system, profile, costs2)[0]:
                for pt in (costs, costs2):
                    for alpha in (0.1, 10.0):
                        tested += 1
                        if not verify_nash(system, profile, pt.scaled(alpha))[0]:
                            failures += 1
                lam = float(rng.uniform(0.1, 0.9))
                mix = CostParameters(
                    [lam * q1 + (1 - lam) * q2 for q1, q2 in zip(costs.Q, costs2.Q)],
                    [[lam * r1 + (1 - lam) * r2 for r1, r2 in zip(row1, row2)]
                     for row1, row2 in zip(costs.R, costs2.R)])
                tested += 1
                if not verify_nash(system, profile, mix)[0]:
                    failures += 1
        if tested >= 100:
            break
    ok = failures == 0 and tested >= 100
    report(7, ok, f"{tested} membership checks under scaling and convex "
                  f"combination, {failures} failures")


def test_criterion_8_oracle_equivalence(nash_games):
    disagreements = []
    for gi, (system, costs, profile, P) in enumerate(nash_games):
        inducible = all(analyze_player(system, profile, i).inducible
                        for i in range(system.num_players))
        feas = solve_feasibility_projection(system, profile)
        fverdict = "inducible" if inducible else "not_inducible"
        overdict = {"feasible": "inducible",
                    "infeasible_certified_by_identity": "not_inducible",
                    "indeterminate": "indeterminate"}[feas.status]
        if "indeterminate" in (fverdict, overdict):
            continue
        if fverdict != overdict:
            disagreements.append((gi, fverdict, overdict))
    report(8, not disagreements,
           f"frequency-domain and time-domain verdicts agree on all "
           f"determinate instances ({len(nash_games)} games)")


def test_criterion_9_cross_penalty_round_trip():
    rng = np.random.default_rng(17)
    checked = 0
    ok = True
    while checked < 50 and ok:
        n = int(rng.integers(1, 5))
        ms = [int(rng.integers(1, 3)) for _ in range(2)]
        A = rng.standard_normal((n, n))
        Bs = [rng.standard_normal((n, min(m, n))) for m in ms]
        try:
            Kall = bass_seed(A, np.hstack(Bs))
        except (ValueError, np.linalg.LinAlgError):
            continue
        Ks, r = [], 0
        for B in Bs:
            Ks.append(Kall[r:r + B.shape[1]])
            r += B.shape[1]
        system = GameSystem(A, Bs)
        try:
            profile = StrategyProfile.stabilizing(system, Ks)
        except ValueError:
            continue
        strict = CostParameters(
            [random_pd(rng, n) for _ in range(2)],
            [[random_pd(rng, system.m[j]) if i == j
              else np.zeros((system.m[j],) * 2) for j in range(2)]
             for i in range(2)])
        R_choice = [[random_psd(rng, system.m[j]) if i != j else None
                     for j in range(2)] for i in range(2)]
        unfolded = unfold_cross_penalties(strict, profile, R_choice)
        refolded = fold_cross_penalties(unfolded, profile)
        lam = np.trace(refolded.R[0][0]) / np.trace(strict.R[0][0])
        for i in range(2):
            if not np.allclose(refolded.Q[i], lam * strict.Q[i], atol=1e-9 * max(1.0, lam)):
                ok = False
            for j in range(2):
                if not np.allclose(refolded.R[i][j], lam * strict.R[i][j],
                                   atol=1e-9 * max(1.0, lam)):
                    ok = False

        # Folding preserves the per-player frequency-domain identity value.
        for i in range(2):
            A_tilde, _ = reduced_system(system, profile, i)
            fac = attach_feedback(
                right_coprime_factorization(A_tilde, system.B[i]), profile.K[i])

            def identity_value(Q, R):
                Rc = PolyMatrix.constant(R)
                lhs = fac.D_tilde.paraconjugate() @ Rc @ fac.D_tilde \
                    - fac.D.paraconjugate() @ Rc @ fac.D
                rhs = fac.S.paraconjugate() @ PolyMatrix.constant(Q) @ fac.S
                return lhs - rhs

            Qt = unfolded.Q[i].copy()
            for j in range(2):
                if j != i:
                    Qt = Qt + profile.K[j].T @ unfolded.R[i][j] @ profile.K[j]
            before = identity_value(0.5 * (Qt + Qt.T), unfolded.R[i][i])
            after = identity_value(refolded.Q[i] / 1.0, refolded.R[i][i])
            scale = max(1.0, before.coeff_norm())
            if (before - after).coeff_norm() > 1e-10 * scale:
                ok = False
        checked += 1
    report(9, ok and checked >= 50,
           f"fold(unfold(costs)) = lambda * costs on {checked} strict "
           f"instances, with the per-player identity value preserved")


def test_criterion_10_kronecker_identities():
    rng = np.random.default_rng(18)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        M = rng.standard_normal((n, m))
        V = rng.standard_normal((m, n))
        N = rng.standard_normal((n, n))
        lhs = vec(M @ V @ N)
        rhs = kron(N.T, M) @ vec(V)
        if np.linalg.norm(lhs - rhs) > 1e-12 * max(1.0, np.linalg.norm(lhs)):
            ok = False
        A = rng.standard_normal((n, n))
        W = rng.standard_normal((n, n))
        lhs2 = kron_sum(N.T, A) @ vec(W)
        rhs2 = vec(A @ W + W @ N)
        if np.linalg.norm(lhs2 - rhs2) > 1e-12 * max(1.0, np.linalg.norm(rhs2)):
            ok = False

    system, profile = scalar_game(3.0)
    M = build_vectorized_system(system, profile, 0)
    Z, dims = _player_nullspace(system, profile, 0)
    span_ok = Z.shape == (3, 1)
    if span_ok:
        direction = Z[:, 0] / Z[1, 0]
        span_ok = np.allclose(direction, [3.0, 1.0, 3.0], atol=1e-9)
    resid_ok = np.linalg.norm(M @ np.array([3.0, 1.0, 3.0])) <= 1e-9
    report(10, ok and span_ok and resid_ok,
           "vec/Kronecker identities hold to 1e-12 and the scalar vectorized "
           "system has nullspace spanned by (3, 1, 3)")
