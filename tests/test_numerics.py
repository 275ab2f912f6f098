import numpy as np
import pytest
import scipy.linalg

from nashinduce import CostParameters, GameSystem, numerics
from nashinduce.numerics import (
    CONVERGED_SLACK,
    HURWITZ_MARGIN,
    R_FLOOR,
    RANK_TOL,
    DimensionError,
    NumericalFailureError,
    cone_project,
    cone_verdict,
    is_hurwitz,
    kron,
    kron_sum,
    matrix_rank,
    nullspace,
    psd_project,
    row_basis,
    solve_lyapunov,
    sym_blocks,
    sym_dim,
    sym_pack,
    sym_unpack,
    symmetrize,
    vec,
)

from conftest import (
    loop_cone_project,
    loop_sym_blocks,
    max_principal_sine,
    psd_sqrt_factor,
    svd_row_basis,
)


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 5))
    assert np.array_equal(vec(M).reshape((3, 5), order="F"), M)


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
        A -= (max(0.0, np.linalg.eigvals(A).real.max()) + 0.5) * np.eye(n)
        W = rng.standard_normal((n, n))
        W = W @ W.T
        P = solve_lyapunov(A, W)
        assert np.allclose(P, P.T)
        assert np.linalg.norm(P @ A + A.T @ P + W) <= 1e-8 * max(1.0, np.linalg.norm(W))
        assert np.linalg.eigvalsh(P).min() >= -1e-8 * max(1.0, np.linalg.norm(P))


def test_solve_lyapunov_rejects_unstable():
    with pytest.raises(ValueError):
        solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))


# Reference: the dense n^2 x n^2 Kronecker system solve_lyapunov replaced.
def kron_lyapunov(A, W):
    n = A.shape[0]
    P = np.linalg.solve(kron_sum(A.T, A.T), -vec(W)).reshape((n, n), order="F")
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


def test_schur_is_scipy_schur_bitwise():
    # solve_lyapunov's one factorization calls gees directly with the cached
    # workspace: the same T and U as scipy.linalg.schur, stable or not.
    rng = np.random.default_rng(16)
    for kind in ("real", "complex", "nonnormal"):
        for n in (1, 2, 3, 5, 8, 16, 32, 48):
            for A in (_stable(rng, kind, n), rng.standard_normal((n, n))):
                T, U = numerics._schur(A.T)
                ref = scipy.linalg.schur(A.T, lwork=numerics._schur_lwork(n), check_finite=False)
                assert np.array_equal(T, ref[0]) and np.array_equal(U, ref[1])


def test_non_hurwitz_solve_raises_not_hurwitz_error():
    # The error newton_kleinman reads as "not stable": a ValueError with the
    # message verify_nash has always reported.
    assert issubclass(numerics.NotHurwitzError, ValueError)
    for A in (np.array([[0.0]]), np.diag([-1.0, 1e-3]), np.array([[1e-3, 1.0], [-1.0, 1e-3]])):
        with pytest.raises(numerics.NotHurwitzError, match="^Acl must be Hurwitz for a Lyapunov solve$"):
            solve_lyapunov(A, np.eye(len(A)))


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
    # schur_lyapunov on a factorization made once, A' = U T U', answers
    # bitwise as solve_lyapunov, which factors A itself, on the trsyl path
    # and the column sweep alike, and factors nothing more; hurwitz_margin
    # reads -max Re eig(A) off that T.  Against eigvals, the two
    # backward-stable spectra agree to round-off times the eigenvector
    # condition number (Bauer-Fike), which the nonnormal kind makes large.
    rng = np.random.default_rng(12)
    schur = numerics._schur
    factorizations = []
    monkeypatch.setattr(numerics, "_schur", lambda a: factorizations.append(1) or schur(a))
    for kind in ("real", "complex", "nonnormal"):
        for n, k in ((1, 1), (2, 3), (5, 0), (12, 3), (16, 32), (32, 64)):
            A = _stable(rng, kind, n)
            W = np.stack([(lambda C: C.T @ C)(rng.standard_normal((n, n)))
                          for _ in range(max(k, 1))])
            W = W if k else W[0]
            T, U = schur(A.T)
            factorizations.clear()
            P = numerics.schur_lyapunov(A, T, U, W)
            assert not factorizations
            assert np.array_equal(P, solve_lyapunov(A, W))
            margin = numerics.hurwitz_margin(T)
            assert margin == -T.diagonal().max()
            w, V = np.linalg.eig(A)
            bound = 1e-12 * max(1.0, np.linalg.norm(A)) * np.linalg.cond(V)
            assert abs(margin + w.real.max()) <= bound, (kind, n)
    T, U = schur(np.array([[0.0]]))
    with pytest.raises(numerics.NotHurwitzError, match="Hurwitz"):
        numerics.schur_lyapunov(np.array([[0.0]]), T, U, np.array([[1.0]]))


def test_stacked_lyapunov_is_bitwise_per_matrix(monkeypatch):
    rng = np.random.default_rng(9)
    schur = numerics._schur
    factorizations = []
    monkeypatch.setattr(numerics, "_schur", lambda a: factorizations.append(1) or schur(a))
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
            k = 23  # the longest stack left to trsyl
            assert not numerics._swept(k) and numerics._swept(k + 1)
            W = np.stack([(lambda C: C + C.T)(rng.standard_normal((n, n))) for _ in range(k)])
            refs = [trsyl_lyapunov(A, Wk) for Wk in W]
            assert np.array_equal(solve_lyapunov(A, W[0]), refs[0])
            assert np.array_equal(solve_lyapunov(A, W), np.stack(refs))


@pytest.mark.parametrize("kind", ["real", "complex", "nonnormal"])
def test_swept_stack_matches_per_slice_trsyl(kind, monkeypatch):
    # Every stack here is swept, also those the shape rule leaves to trsyl.
    monkeypatch.setattr(numerics, "_swept", lambda k: k > 1)
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
    assert not numerics._swept(len(good)) and numerics._swept(len(tall))
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
        assert cone_verdict(cone_project(x, layout), "point", layout)


def test_a_positive_floor_gives_only_the_slack():
    # A block with floor R_FLOOR passes down to R_FLOOR - slack and no lower:
    # POINT_SLACK (1e-9) for a single point, CONVERGED_SLACK for a converged one.
    layout = [(1, 0.0), (1, R_FLOOR)]
    for below, ok in ((0.5e-9, True), (1.5e-9, False)):
        assert cone_verdict(np.array([1.0, R_FLOOR - below]), "point", layout) is ok
    for below, verdict in ((0.5 * CONVERGED_SLACK, True), (1.5 * CONVERGED_SLACK, None)):
        assert cone_verdict(np.array([1.0, R_FLOOR - below]), "converged", layout) is verdict
    assert cone_verdict(np.array([1.0, R_FLOOR]), "cap", layout) is None


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
    # |M|^2 overflows here: with np.linalg.norm the floors of CostParameters'
    # semidefinite tests would be -inf (Q) and +inf (R_ii).
    system = GameSystem(np.array([[-1.0]]), [np.array([[1.0]])])
    huge = np.array([[1e160]])
    CostParameters([huge], [[huge]]).validate(system)
    with pytest.raises(ValueError, match=r"^Q\[0\] is not positive semidefinite$"):
        CostParameters([-huge], [[huge]]).validate(system)


def test_solve_lyapunov_checks_huge_right_hand_sides():
    # The squared norm of W = 1e160 I overflows; its residual bound stays finite.
    P = numerics.solve_lyapunov(-np.eye(2), 1e160 * np.eye(2))
    assert np.array_equal(P, 5e159 * np.eye(2))


def test_as_matrix_names_the_block():
    with pytest.raises(DimensionError, match=r"^X must be 2-dimensional, got shape \(2, 1, 1\)$"):
        numerics.as_matrix(np.zeros((2, 1, 1)), "X")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"^Q\[0\] contains non-finite entries$"):
            numerics.as_matrix([[1.0, bad]], "Q[0]")


def test_dimension_errors():
    with pytest.raises(DimensionError):
        numerics.require_square(np.zeros((2, 3)))


@pytest.mark.parametrize("rows, cols", [(3, 7), (12, 30), (48, 154)])
def test_qr_row_basis_keeps_the_svd_rank_at_the_rank_rule(rows, cols):
    # Random wide M = U diag(s) V' whose trailing singular value sits at 10x
    # or 0.1x of the rank rule's floor RANK_TOL max(1, s_0): the QR basis has
    # the SVD reference's rank.  Where the floor cuts the tail (0.1x) the two
    # span the same row space to 1e-10.  A kept singular value s_r at 10x the
    # floor leaves the row space itself determined only to about
    # eps s_0 / s_r, near 1e-8 (Wedin's sin-theta bound), for either
    # factorization, so there the bound is 100 eps s_0 / s_r.
    rng = np.random.default_rng([rows, cols])
    eps = np.finfo(float).eps
    for s0 in (1e-2, 1.0, 1e3):
        for factor in (10.0, 0.1):
            for _ in range(5):
                U = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
                V = np.linalg.qr(rng.standard_normal((cols, rows)))[0]
                s = s0 * np.logspace(0, -3, rows)
                s[-1] = factor * RANK_TOL * max(1.0, s0)
                M = (U * s) @ V.T
                basis, ref = row_basis(M), svd_row_basis(M)
                assert basis.shape == ref.shape == (cols, rows - (factor < 1))
                kept = s[basis.shape[1] - 1]
                bound = max(1e-10, 100 * eps * s0 / kept)
                assert max_principal_sine(basis, ref) <= bound, (s0, factor)
                assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), rtol=0, atol=1e-14)


def test_qr_row_basis_of_one_row_and_of_tall_matrices():
    # A single row spans its own direction; a zero row spans nothing.  A tall
    # M, and one whose zero column makes it rank deficient, keep the SVD
    # reference's rank and space.
    rng = np.random.default_rng(3)
    a = rng.standard_normal((1, 9))
    basis = row_basis(a)
    assert basis.shape == svd_row_basis(a).shape == (9, 1)
    assert max_principal_sine(basis, svd_row_basis(a)) <= 1e-15
    assert max_principal_sine(basis, (a / np.linalg.norm(a)).T) <= 1e-15
    assert row_basis(np.zeros((1, 9))).shape == svd_row_basis(np.zeros((1, 9))).shape == (9, 0)
    for rows, cols in ((7, 3), (5, 5), (4, 9)):
        M = rng.standard_normal((rows, cols))
        for rank in (min(rows, cols), min(rows, cols) - 1):
            M[:, rank:] = 0.0
            basis, ref = row_basis(M), svd_row_basis(M)
            assert basis.shape == ref.shape == (cols, rank)
            assert max_principal_sine(basis, ref) <= 1e-14
