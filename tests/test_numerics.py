import numpy as np
import pytest
import scipy.linalg

from nashinduce import numerics
from nashinduce.numerics import (
    HURWITZ_MARGIN,
    R_FLOOR,
    DimensionError,
    NumericalFailureError,
    cone_ok,
    cone_project,
    eig,
    is_hurwitz,
    is_pd,
    is_psd,
    kron,
    kron_sum,
    matrix_rank,
    nullspace,
    psd_project,
    solve_lyapunov,
    sym_blocks,
    sym_dim,
    sym_pack,
    sym_unpack,
    symmetrize,
    unvec,
    vec,
)

from conftest import loop_cone_project, loop_sym_blocks, psd_sqrt_factor


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 5))
    assert np.array_equal(unvec(vec(M), 3, 5), M)


def test_vec_is_column_stacking():
    M = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(M), np.array([1.0, 2.0, 3.0, 4.0]))


def test_vec_kron_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        M = rng.standard_normal((3, 4))
        V = rng.standard_normal((4, 2))
        N = rng.standard_normal((2, 5))
        lhs = vec(M @ V @ N)
        rhs = kron(N.T, M) @ vec(V)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(lhs))


def test_kron_sum_acts_like_sylvester_operator():
    rng = np.random.default_rng(2)
    for _ in range(20):
        A = rng.standard_normal((4, 4))
        N = rng.standard_normal((4, 4))
        V = rng.standard_normal((4, 4))
        lhs = kron_sum(N.T, A) @ vec(V)
        rhs = vec(A @ V + V @ N)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_solve_lyapunov_residual():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((n, n))
        A -= (max(0.0, eig(A).real.max()) + 0.5) * np.eye(n)
        W = rng.standard_normal((n, n))
        W = W @ W.T
        P = solve_lyapunov(A, W)
        assert np.allclose(P, P.T)
        assert np.linalg.norm(P @ A + A.T @ P + W) <= 1e-8 * max(1.0, np.linalg.norm(W))
        assert is_psd(P)


def test_solve_lyapunov_rejects_unstable():
    with pytest.raises(ValueError):
        solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))


# Reference: the dense n^2 x n^2 Kronecker system solve_lyapunov replaced.
def kron_lyapunov(A, W):
    n = A.shape[0]
    P = unvec(np.linalg.solve(kron_sum(A.T, A.T), -vec(W)), n, n)
    return 0.5 * (P + P.T)


def _rotated(rng, T):
    Q = np.linalg.qr(rng.standard_normal(T.shape))[0]
    return Q @ T @ Q.T


def _stable(rng, kind, n):
    """A Hurwitz n x n matrix with real spectrum, complex pairs (2x2 Schur
    blocks), or with a strictly upper triangular part of 1.5 times the
    Frobenius norm of its diagonal (n >= 2), all in rotated coordinates."""
    if kind == "real":
        V = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
        return V @ np.diag(-rng.uniform(0.1, 5.0, n)) @ np.linalg.inv(V)
    if kind == "complex":
        T = np.diag(-rng.uniform(0.1, 2.0, n))
        for k in range(0, n - 1, 2):
            T[k, k + 1] = rng.uniform(0.5, 5.0)
            T[k + 1, k], T[k + 1, k + 1] = -T[k, k + 1], T[k, k]
        return _rotated(rng, T)
    D = np.diag(-rng.uniform(0.5, 2.0, n))
    N = np.triu(rng.standard_normal((n, n)), 1)
    return _rotated(rng, D + 1.5 * np.linalg.norm(D) / max(np.linalg.norm(N), 1.0) * N)


@pytest.mark.parametrize("kind", ["real", "complex", "nonnormal"])
def test_solve_lyapunov_matches_kronecker(kind):
    rng = np.random.default_rng(6)
    for n in range(1, 33):
        A = _stable(rng, kind, n)
        W = rng.standard_normal((n, n))
        W = 10.0 ** (n % 5 * 4 - 8) * (W + W.T)  # 1e-8 ... 1e8
        P, ref = solve_lyapunov(A, W), kron_lyapunov(A, W)
        assert np.array_equal(P, P.T)
        assert np.linalg.norm(P - ref) <= 1e-12 * np.linalg.norm(ref)


def test_schur_hurwitz_test_rejects_what_is_hurwitz_rejects():
    """An eigenvalue or a complex pair's real part at 0 or -margin/2 is
    rejected by both; at -2 margin both accept (W = 0 gives P = 0)."""
    rng = np.random.default_rng(7)

    def pair(a):  # eigenvalues a +- i, a 2x2 Schur block
        return np.array([[a, 1.0], [-1.0, a]])

    cases = [np.diag([0.0, -1.0, -2.0]),
             np.diag([-HURWITZ_MARGIN / 2, -1.0, -2.0]),
             scipy.linalg.block_diag(pair(0.0), -1.0),
             scipy.linalg.block_diag(pair(-HURWITZ_MARGIN / 2), -1.0),
             np.diag([-2 * HURWITZ_MARGIN, -1.0, -2.0]),
             scipy.linalg.block_diag(pair(-2 * HURWITZ_MARGIN), -1.0)]
    verdicts = []
    for T in cases:
        A = _rotated(rng, T)
        verdicts.append(is_hurwitz(A))
        if verdicts[-1]:
            assert np.array_equal(solve_lyapunov(A, np.zeros((3, 3))), np.zeros((3, 3)))
        else:
            with pytest.raises(ValueError, match="Hurwitz"):
                solve_lyapunov(A, np.zeros((3, 3)))
    assert verdicts == [False] * 4 + [True] * 2


def test_solve_lyapunov_failures_raise(monkeypatch):
    rng = np.random.default_rng(8)
    A, W = _stable(rng, "complex", 6), np.eye(6)
    trsyl = scipy.linalg.lapack.dtrsyl
    monkeypatch.setattr(scipy.linalg.lapack, "dtrsyl",
                        lambda *a, **k: (2.0 * trsyl(*a, **k)[0], 1.0, 0))
    with pytest.raises(NumericalFailureError, match="residual"):
        solve_lyapunov(A, W)
    monkeypatch.setattr(scipy.linalg.lapack, "dtrsyl", lambda *a, **k: (None, 1.0, -3))
    with pytest.raises(NumericalFailureError, match="argument 3"):
        solve_lyapunov(A, W)


def test_lyapunov_margin_comes_with_the_same_solution_from_one_factorization(monkeypatch):
    # with_margin adds -max diag(T) to the answer and changes nothing else,
    # on the trsyl path and the column sweep alike.  Against eigvals, the two
    # backward-stable spectra agree to round-off times the eigenvector
    # condition number (Bauer-Fike), which the nonnormal kind makes large.
    rng = np.random.default_rng(12)
    schur = scipy.linalg.schur
    factorizations = []
    monkeypatch.setattr(scipy.linalg, "schur",
                        lambda *a, **k: factorizations.append(1) or schur(*a, **k))
    for kind in ("real", "complex", "nonnormal"):
        for n, k in ((1, 1), (2, 3), (5, 0), (12, 3), (16, 32), (32, 64)):
            A = _stable(rng, kind, n)
            W = np.stack([(lambda C: C.T @ C)(rng.standard_normal((n, n)))
                          for _ in range(max(k, 1))])
            W = W if k else W[0]
            factorizations.clear()
            P, margin = solve_lyapunov(A, W, with_margin=True)
            assert len(factorizations) == 1
            assert np.array_equal(P, solve_lyapunov(A, W))
            T = schur(A.T, lwork=numerics._schur_lwork(n), check_finite=False)[0]
            assert margin == -T.diagonal().max()
            w, V = np.linalg.eig(A)
            bound = 1e-12 * max(1.0, np.linalg.norm(A)) * np.linalg.cond(V)
            assert abs(margin + w.real.max()) <= bound, (kind, n)
    with pytest.raises(ValueError, match="Hurwitz"):
        solve_lyapunov(np.array([[0.0]]), np.array([[1.0]]), with_margin=True)


def test_stacked_lyapunov_is_bitwise_per_matrix(monkeypatch):
    rng = np.random.default_rng(9)
    schur = scipy.linalg.schur
    factorizations = []
    monkeypatch.setattr(scipy.linalg, "schur",
                        lambda *a, **k: factorizations.append(1) or schur(*a, **k))
    for kind in ("real", "complex", "nonnormal"):
        for n in (1, 2, 5, 12, 32):
            A = _stable(rng, kind, n)
            W = np.stack([(lambda C: C.T @ C)(rng.standard_normal((n, n))) for _ in range(3)])
            factorizations.clear()
            P = solve_lyapunov(A, W)
            assert len(factorizations) == 1
            assert P.shape == (3, n, n)
            assert np.array_equal(P, np.stack([solve_lyapunov(A, Wk) for Wk in W]))
    with pytest.raises(DimensionError):
        solve_lyapunov(-np.eye(3), np.zeros((2, 2, 2)))


def trsyl_lyapunov(A, W):
    """solve_lyapunov's per-slice trsyl path for one right-hand side, spelled
    out operation by operation: the arithmetic of the committed benchmark
    corpus, which solve_coupled_are generates through single-matrix solves."""
    Ws = W[None]
    Ws = 0.5 * (Ws + Ws.transpose(0, 2, 1))
    T, U = scipy.linalg.schur(A.T, lwork=numerics._schur_lwork(len(A)), check_finite=False)
    C = -(U.T @ (Ws @ U))
    Y, scale, _ = scipy.linalg.lapack.dtrsyl(T, T, C[0], tranb="T")
    C[0] = Y / scale
    P = U @ C @ U.T
    return (0.5 * (P + P.transpose(0, 2, 1)))[0]


def test_single_and_short_stacks_are_bitwise_the_trsyl_path():
    rng = np.random.default_rng(14)
    for kind in ("real", "complex", "nonnormal"):
        for n in (1, 2, 3, 5, 8, 12, 16, 24, 32):
            A = _stable(rng, kind, n)
            k = max(2 * n, 32) - 1  # the longest stack left to trsyl
            assert not numerics._swept(k, n) and numerics._swept(k + 1, n)
            W = np.stack([(lambda C: C + C.T)(rng.standard_normal((n, n))) for _ in range(k)])
            refs = [trsyl_lyapunov(A, Wk) for Wk in W]
            assert np.array_equal(solve_lyapunov(A, W[0]), refs[0])
            assert np.array_equal(solve_lyapunov(A, W), np.stack(refs))


@pytest.mark.parametrize("kind", ["real", "complex", "nonnormal"])
def test_swept_stack_matches_per_slice_trsyl(kind, monkeypatch):
    # Every stack here is swept, also those the shape rule leaves to trsyl.
    monkeypatch.setattr(numerics, "_swept", lambda k, n: k > 1)
    rng = np.random.default_rng(15)
    for n in (8, 12, 16, 24, 32):
        A = _stable(rng, kind, n)
        for k in (2 * n, 3 * n, 9 * n):
            W = np.stack([(lambda C: C + C.T)(rng.standard_normal((n, n))) for _ in range(k)])
            W *= 10.0 ** rng.uniform(-4, 4, k)[:, None, None]
            P = solve_lyapunov(A, W)
            for Pk, Wk in zip(P, W):
                ref = trsyl_lyapunov(A, Wk)
                assert np.array_equal(Pk, Pk.T)
                assert np.linalg.norm(Pk - ref) <= 1e-12 * np.linalg.norm(ref)


def test_stacked_lyapunov_rejects_a_bad_slice_as_it_would_alone(monkeypatch):
    # One bad slice in a stack of good ones raises the error it raises alone:
    # asymmetric or non-finite W before any solve, a corrupted trsyl result
    # from its own residual check, a trsyl argument error at once.  The same
    # holds for a swept stack (n = 8, 32 slices) and its gesv calls.
    rng = np.random.default_rng(10)
    A = _stable(rng, "complex", 5)
    good = np.stack([np.eye(5), np.diag(np.arange(1.0, 6.0)), np.ones((5, 5))])
    A8 = _stable(rng, "complex", 8)
    tall = np.stack([(lambda C: C + C.T)(rng.standard_normal((8, 8))) for _ in range(32)])
    assert not numerics._swept(*good.shape[:2]) and numerics._swept(*tall.shape[:2])
    for A_, stack, bad in ((A, good, 1), (A, good, 2), (A8, tall, 27)):
        asymmetric, nonfinite = stack.copy(), stack.copy()
        asymmetric[bad, 0, 1] += 1e-3
        nonfinite[bad, 3, 3] = np.inf
        for W, match in ((asymmetric, "W is not symmetric within tolerance 1e-08"),
                         (nonfinite, "W contains non-finite entries")):
            for Ws in (W, W[bad]):
                with pytest.raises(ValueError, match=match):
                    solve_lyapunov(A_, Ws)
    with pytest.raises(ValueError, match="Hurwitz"):
        solve_lyapunov(-A8, tall)
    gesv = scipy.linalg.lapack.dgesv
    for info, match in ((0, "residual"), (-3, "argument 3"), (2, "singular")):
        def slice_27_corrupted(*a, **k):  # every column of slice 27, or every call's info
            lu, piv, y, _ = gesv(*a, **k)
            y[:, 27] *= 2.0
            return lu, piv, y, info

        monkeypatch.setattr(scipy.linalg.lapack, "dgesv", slice_27_corrupted)
        with pytest.raises(NumericalFailureError, match=match):
            solve_lyapunov(A8, tall)
    trsyl = scipy.linalg.lapack.dtrsyl
    for corrupt, match in ((lambda Y, scale, info: (2.0 * Y, scale, info), "residual"),
                           (lambda Y, scale, info: (Y, scale, -3), "argument 3")):
        calls = []

        def second_slice_corrupted(*a, **k):
            calls.append(1)
            out = trsyl(*a, **k)
            return corrupt(*out) if len(calls) == 2 else out

        monkeypatch.setattr(scipy.linalg.lapack, "dtrsyl", second_slice_corrupted)
        with pytest.raises(NumericalFailureError, match=match):
            solve_lyapunov(A, good)
        calls[:] = [1]  # alone, the slice is the second call
        with pytest.raises(NumericalFailureError, match=match):
            solve_lyapunov(A, good[1])


def _random_layout(rng):
    """1-5 blocks of sizes 1..32 (often repeated) with floors mixed per block."""
    pool = rng.integers(1, 33, size=int(rng.integers(1, 4)))
    return [(int(rng.choice(pool)), float(rng.choice([0.0, R_FLOOR, 0.5, 3.0])))
            for _ in range(int(rng.integers(1, 6)))]


def test_cone_project_is_bitwise_the_per_block_loop():
    rng = np.random.default_rng(12)
    layouts = ([_random_layout(rng) for _ in range(150)]
               + [[(s, 0.0), (s, 1.0), (s, R_FLOOR)] for s in range(1, 33)])
    for layout in layouts:
        dim = sum(sym_dim(size) for size, _ in layout)
        x = rng.standard_normal(dim) * 10.0 ** rng.uniform(-8, 8)
        assert np.array_equal(cone_project(x, layout), loop_cone_project(x, layout))
        for X, Xref in zip(sym_blocks(x, layout), loop_sym_blocks(x, layout), strict=True):
            assert np.array_equal(X, Xref)


def test_cone_project_lands_in_the_cones():
    rng = np.random.default_rng(13)
    for _ in range(40):
        layout = _random_layout(rng)
        x = rng.standard_normal(sum(sym_dim(size) for size, _ in layout))
        assert cone_ok(cone_project(x, layout), layout)


def test_cone_project_rejects_bad_input():
    layout = [(2, 0.0), (1, R_FLOOR)]
    for bad in (np.nan, np.inf):
        x = np.ones(4)
        x[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            cone_project(x, layout)
    with pytest.raises(DimensionError):
        cone_project(np.ones(5), layout)


def test_is_hurwitz():
    assert is_hurwitz(np.array([[-1.0, 100.0], [0.0, -0.5]]))
    assert not is_hurwitz(np.array([[0.0]]))
    assert not is_hurwitz(np.diag([-1.0, 1e-3]))


def test_psd_checks():
    assert is_psd(np.zeros((2, 2)))
    assert is_psd(np.eye(2))
    assert not is_psd(np.diag([1.0, -1.0]))
    assert is_pd(np.eye(2))
    assert not is_pd(np.zeros((2, 2)))


def test_psd_project_floor():
    M = np.diag([2.0, -1.0])
    assert np.allclose(psd_project(M), np.diag([2.0, 0.0]))
    assert np.allclose(psd_project(M, floor=0.5), np.diag([2.0, 0.5]))


def test_psd_sqrt_factor():
    rng = np.random.default_rng(4)
    for r in range(0, 4):
        C0 = rng.standard_normal((r, 4))
        Q = C0.T @ C0
        C = psd_sqrt_factor(Q)
        assert C.shape == (r, 4)
        assert np.linalg.norm(C.T @ C - Q) <= 1e-9 * max(1.0, np.linalg.norm(Q))


def test_nullspace_and_rank():
    M = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    Z = nullspace(M)
    assert Z.shape == (3, 2)
    assert np.linalg.norm(M @ Z) <= 1e-9
    assert matrix_rank(M) == 1


def test_sym_pack_is_isometric():
    rng = np.random.default_rng(5)
    for n in range(1, 5):
        M = rng.standard_normal((n, n))
        M = M + M.T
        v = sym_pack(M)
        assert v.size == sym_dim(n)
        assert abs(np.linalg.norm(v) - np.linalg.norm(M)) <= 1e-12 * np.linalg.norm(M)
        assert np.allclose(sym_unpack(v, n), M)


def test_symmetrize_rejects_asymmetric():
    with pytest.raises(ValueError):
        symmetrize(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_norm_is_numpy_norm_until_it_overflows():
    rng = np.random.default_rng(4)
    for scale in (1e-300, 1.0, 1e150, 1e153):
        M = scale * rng.standard_normal((5, 5))
        assert numerics._norm(M) == float(np.linalg.norm(M))
        x = M.ravel()
        assert numerics._fro(M[None]) == [float(np.sqrt(np.einsum("i,i->", x, x)))]
    for scale in (1e160, 1e300):
        M = scale * rng.standard_normal((5, 5))
        expected = scale * float(np.linalg.norm(M / scale))
        assert numerics._norm(M) == pytest.approx(expected, rel=1e-15)
        assert numerics._fro(np.stack([M, np.eye(5)])) == pytest.approx([expected, np.sqrt(5.0)],
                                                                         rel=1e-15)
    assert numerics._norm(np.full((2, 2), 1.5e308)) == np.inf


def test_symmetrize_never_overflows_on_finite_input():
    assert numerics.symmetrize(np.array([[1e300, 2e300], [2e300, 1e300]]))[0, 1] == 2e300
    # (M + M')/2 of [[1.5e308]] would be inf; the norm of the second passes the range.
    for M in (np.array([[1.5e308]]), np.array([[0.0, 1.5e308], [-1.5e308, 0.0]])):
        with pytest.raises(ValueError, match="^Q overflows the float range$"):
            numerics.symmetrize(M, name="Q")
    with pytest.raises(ValueError, match="not symmetric"):
        numerics.symmetrize(np.array([[0.0, 1e308], [-1e308, 0.0]]))


def test_semidefinite_floors_stay_finite_on_huge_input():
    # |M|^2 overflows here: the floors were -inf and +inf.
    assert not numerics.is_psd(np.array([[-1e160]]))
    assert numerics.is_pd(np.array([[1e160]]))


def test_solve_lyapunov_checks_huge_right_hand_sides():
    # The squared norm of W = 1e160 I overflows; its residual bound stays finite.
    P = numerics.solve_lyapunov(-np.eye(2), 1e160 * np.eye(2))
    assert np.array_equal(P, 5e159 * np.eye(2))


def test_dimension_errors():
    with pytest.raises(DimensionError):
        unvec(np.zeros(5), 2, 3)
