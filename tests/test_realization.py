import numpy as np
import pytest

from nashinduce import (
    GameSystem,
    StrategyProfile,
    attach_feedback,
    closed_loop,
    is_stabilizing,
    reduced_system,
    right_coprime_factorization,
)
from nashinduce.numerics import HURWITZ_MARGIN, DimensionError, eig, matrix_rank
from nashinduce.realization import _pbh_stabilizable
from nashinduce.polymat import PolyMatrix


def coprimeness_ok(fac, tol: float = 1e-7) -> bool:
    """PBH-style check: [S; D] keeps full column rank at eigenvalues of A_tilde."""
    stacked = fac.S.vstack(fac.D)
    for lam in eig(fac.A_tilde):
        s = np.linalg.svd(stacked.eval(lam), compute_uv=False)
        if np.sum(s > tol * max(1.0, s[0])) < fac.m:  # the rank rule, at tol
            return False
    return True


def remark2_data():
    A = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    B1 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    B2 = np.array([[1.0], [0.0], [0.0]])
    r2 = 1.0 + np.sqrt(2.0)
    K1 = np.array([[1.0, 0.0, 1.0], [0.0, r2, r2]])
    K2 = np.array([[1.0, 0.0, 0.0]])
    return A, B1, B2, K1, K2


def test_game_system_validation():
    with pytest.raises(DimensionError):
        GameSystem(np.zeros((2, 3)), [np.zeros((2, 1))])
    with pytest.raises(ValueError):
        # B without full column rank
        GameSystem(np.eye(2), [np.zeros((2, 1))])
    with pytest.raises(ValueError):
        # unstabilizable: unstable mode not reachable
        GameSystem(np.diag([1.0, -1.0]), [np.array([[0.0], [1.0]])])


def loop_pbh_stabilizable(A, Ball):
    """Per-eigenvalue reference of the batched PBH test: one matrix_rank each."""
    n = A.shape[0]
    return all(matrix_rank(np.hstack([lam * np.eye(n) - A, Ball])) >= n
               for lam in eig(A) if lam.real >= -HURWITZ_MARGIN)


def test_batched_pbh_matches_per_eigenvalue_loop():
    rng = np.random.default_rng(31)
    verdicts = []
    for n in (1, 2, 3, 5, 8, 16):
        for _ in range(6):
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, int(rng.integers(1, n + 1))))
            # Unstabilizable: an unstable mode (eigenvalue 1 or the pair 1 +- 2j)
            # that B cannot reach, hidden by a similarity transform.
            k = 1 if n == 1 else 2
            A[:k, k:], B[:k] = 0.0, 0.0
            A[:k, :k] = [[1.0]] if k == 1 else [[1.0, 2.0], [-2.0, 1.0]]
            T = rng.standard_normal((n, n)) + n * np.eye(n)
            A_hidden, B_hidden = T @ A @ np.linalg.inv(T), T @ B
            for A_, B_ in ((A, B), (A_hidden, B_hidden), (A, rng.standard_normal(B.shape)),
                           (-np.eye(n) - A @ A.T, B), (np.zeros((n, n)), np.eye(n))):
                verdict = _pbh_stabilizable(A_, B_)
                assert verdict == loop_pbh_stabilizable(A_, B_), (n, A_, B_)
                verdicts.append(verdict)
    assert set(verdicts) == {True, False}


def test_profile_validation():
    system = GameSystem(np.array([[1.0]]), [np.array([[1.0]])])
    with pytest.raises(ValueError):
        StrategyProfile.stabilizing(system, [np.array([[0.5]])])  # 1 - 0.5 > 0
    prof = StrategyProfile.stabilizing(system, [np.array([[3.0]])])
    assert is_stabilizing(system, prof.K)


def test_closed_loop_and_reduced_system():
    A, B1, B2, K1, K2 = remark2_data()
    system = GameSystem(A, [B1, B2])
    prof = StrategyProfile.stabilizing(system, [K1, K2])
    Acl = closed_loop(system, prof.K)
    assert np.allclose(Acl, A - B1 @ K1 - B2 @ K2)
    A_tilde, Acl2 = reduced_system(system, prof, 0)
    assert np.allclose(A_tilde, A - B2 @ K2)
    assert np.allclose(Acl2, Acl)
    with pytest.raises(DimensionError):
        reduced_system(system, prof, 5)


def test_remark2_factorization_values():
    A, B1, B2, K1, K2 = remark2_data()
    A_tilde = A - B2 @ K2
    fac = right_coprime_factorization(A_tilde, B1)
    S_expected = PolyMatrix.from_entries(
        [[[1.0], [0.0]], [[0.0], [0.0, 1.0]], [[0.0], [1.0]]])
    D_expected = PolyMatrix.from_entries(
        [[[0.0, 1.0], [-1.0]], [[0.0], [-1.0, 0.0, 1.0]]])
    assert fac.S.allclose(S_expected, tol=1e-10)
    assert fac.D.allclose(D_expected, tol=1e-10)
    assert fac.sigma == (1, 2)
    assert fac.controllable


def test_factorization_identity_random():
    rng = np.random.default_rng(10)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, min(n, 3) + 1))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        fac = right_coprime_factorization(A, B)
        # (sI - A) S(s) = B D(s) at random evaluation points
        for _ in range(3):
            s = complex(rng.standard_normal(), rng.standard_normal())
            lhs = (s * np.eye(n) - A) @ fac.S.eval(s)
            rhs = B @ fac.D.eval(s)
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))
        assert fac.D.is_column_reduced()
        assert tuple(int(d) for d in fac.D.column_degrees()) == fac.sigma
        assert sum(fac.sigma) == n or not fac.controllable
        assert coprimeness_ok(fac)


def test_transfer_function_agreement():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, m = 4, 2
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        fac = right_coprime_factorization(A, B)
        s = 2.0 + 1.3j
        G = np.linalg.solve(s * np.eye(n) - A, B)
        assert np.allclose(G, fac.S.eval(s) @ np.linalg.inv(fac.D.eval(s)), atol=1e-8)


def test_uncontrollable_pair_flagged():
    # Second state unreachable.
    A = np.diag([-1.0, -2.0])
    B = np.array([[1.0], [0.0]])
    fac = right_coprime_factorization(A, B)
    assert not fac.controllable
    assert fac.sigma == (1,)
    # Factorization identity still holds on the controllable part.
    s = 0.7
    lhs = (s * np.eye(2) - A) @ fac.S.eval(s)
    assert np.allclose(lhs, B @ fac.D.eval(s), atol=1e-9)


def test_attach_feedback_remark2():
    A, B1, B2, K1, K2 = remark2_data()
    fac = right_coprime_factorization(A - B2 @ K2, B1)
    fac = attach_feedback(fac, K1)
    r2 = np.sqrt(2.0)
    Dt_expected = PolyMatrix.from_entries([
        [[1.0, 1.0], [0.0]],
        [[0.0], [r2, 1.0 + r2, 1.0]],  # (s+1)(s+sqrt2)
    ])
    assert fac.D_tilde.allclose(Dt_expected, tol=1e-9)


def test_attach_feedback_dimension_check():
    fac = right_coprime_factorization(np.array([[1.0]]), np.array([[1.0]]))
    with pytest.raises(DimensionError):
        attach_feedback(fac, np.zeros((2, 1)))
