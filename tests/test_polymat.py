import numpy as np
import pytest

from nashinduce.polymat import (
    PolyMatrix,
    compress_columns,
    is_zero_poly,
    poly_degree,
    poly_roots,
    poly_trim,
    rhp_roots_matrix,
    rhp_roots_poly,
    unimodular_det_constant,
)


def random_polymatrix(rng, rows, cols, deg):
    return PolyMatrix(rng.standard_normal((deg + 1, rows, cols)))


def test_poly_trim_and_degree():
    assert np.array_equal(poly_trim([1.0, 2.0, 0.0, 1e-15]), np.array([1.0, 2.0]))
    assert poly_degree([1.0, 0.0, 3.0]) == 2
    assert poly_degree([0.0]) == -np.inf
    assert is_zero_poly([0.0, 0.0])
    assert is_zero_poly([1e-12, 1.0]) is False


def test_poly_roots():
    r = np.sort_complex(poly_roots([-1.0, 0.0, 1.0]))  # s^2 - 1
    assert np.allclose(r, [-1.0, 1.0], atol=1e-10)


def test_eval_horner():
    # P(s) = [[s^2 + 1, s], [0, 2]]
    P = PolyMatrix.from_entries([[[1.0, 0.0, 1.0], [0.0, 1.0]], [[0.0], [2.0]]])
    V = P.eval(2.0)
    assert np.allclose(V, [[5.0, 2.0], [0.0, 2.0]])
    V = P.eval(1j)
    assert np.allclose(V, [[0.0, 1j], [0.0, 2.0]])


def test_arithmetic_matches_pointwise_evaluation():
    rng = np.random.default_rng(6)
    for _ in range(10):
        A = random_polymatrix(rng, 3, 3, 2)
        B = random_polymatrix(rng, 3, 3, 3)
        s = complex(rng.standard_normal(), rng.standard_normal())
        assert np.allclose((A + B).eval(s), A.eval(s) + B.eval(s))
        assert np.allclose((A - B).eval(s), A.eval(s) - B.eval(s))
        assert np.allclose((A @ B).eval(s), A.eval(s) @ B.eval(s))
        assert np.allclose((A * 2.5).eval(s), 2.5 * A.eval(s))


def test_paraconjugate():
    rng = np.random.default_rng(7)
    A = random_polymatrix(rng, 2, 3, 3)
    s = 0.3 + 1.7j
    assert np.allclose(A.paraconjugate().eval(s), A.eval(-s).T)
    # paraconjugate is an involution
    assert A.paraconjugate().paraconjugate().allclose(A, tol=1e-12)


def test_column_degrees_and_reducedness():
    D = PolyMatrix.from_entries([[[0.0, 1.0], [-1.0]], [[0.0], [-1.0, 0.0, 1.0]]])
    assert D.column_degrees() == [1, 2]
    assert D.is_column_reduced()
    # [[s, s], [1, 1]] has singular leading column matrix
    bad = PolyMatrix.from_entries([[[0.0, 1.0], [0.0, 1.0]], [[1.0], [1.0]]])
    assert not bad.is_column_reduced()


def test_poly_rank():
    # [[1, -s], [s, -s^2]] = [1, s]'[1, -s] has rank 1.
    phi = PolyMatrix.from_entries([[[1.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0, -1.0]]])
    assert phi.poly_rank() == 1
    assert PolyMatrix.identity(3).poly_rank() == 3
    assert PolyMatrix.zeros(2, 2).poly_rank() == 0


def test_determinant():
    D = PolyMatrix.from_entries([[[0.0, 1.0], [-1.0]], [[0.0], [-1.0, 0.0, 1.0]]])
    det = poly_trim(D.determinant())
    # det = s(s^2-1) = -s + s^3
    assert np.allclose(det, [0.0, -1.0, 0.0, 1.0], atol=1e-12)


def test_compress_columns_rank_deficient():
    # [[1, -s], [s, -s^2]]: second column is -s times the first.
    phi = PolyMatrix.from_entries([[[1.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0, -1.0]]])
    L, P_tilde, p = compress_columns(phi)
    assert p == 1
    prod = phi @ L
    # trailing column is annihilated
    trailing = prod.select_columns([1])
    assert trailing.coeff_norm() <= 1e-8 * max(1.0, phi.coeff_norm())
    assert P_tilde.poly_rank() == 1
    unimodular_det_constant(L)  # must not raise


def test_compress_columns_full_rank_is_identityish():
    rng = np.random.default_rng(8)
    D = random_polymatrix(rng, 3, 3, 2)
    L, P_tilde, p = compress_columns(D)
    assert p == 3
    c = unimodular_det_constant(L)
    assert abs(c) > 1e-8


def test_compress_columns_random_low_rank():
    rng = np.random.default_rng(9)
    for _ in range(10):
        # Build rank-r product of polynomial factors.
        r = int(rng.integers(1, 3))
        A = random_polymatrix(rng, 3, r, 1)
        B = random_polymatrix(rng, r, 3, 1)
        P = A @ B
        L, P_tilde, p = compress_columns(P)
        assert p == r
        prod = P @ L
        tail = prod.select_columns(range(p, 3))
        assert tail.coeff_norm() <= 1e-7 * max(1.0, P.coeff_norm())


def test_rhp_roots_poly():
    # (s-1)(s+2)(s-3j)(s+3j) -> RHP roots: 1 and the boundary pair +-3j.
    c = np.polynomial.polynomial.polyfromroots([1.0, -2.0, 3j, -3j]).real
    roots = rhp_roots_poly(c)
    locs = sorted((r.location.real, r.location.imag) for r in roots)
    assert any(abs(r.location - 1.0) < 1e-8 and not r.boundary for r in roots)
    assert sum(1 for r in roots if r.boundary) == 2
    with pytest.raises(ValueError):
        rhp_roots_poly([0.0])


def test_rhp_roots_poly_multiplicity():
    c = np.polynomial.polynomial.polyfromroots([2.0, 2.0, -1.0]).real
    roots = rhp_roots_poly(c)
    assert len(roots) == 1
    assert roots[0].multiplicity == 2


def test_rhp_roots_matrix():
    # T(s) = [s-1; s^2-1] loses rank only at s=1 in the closed RHP.
    T = PolyMatrix.from_entries([[[-1.0, 1.0]], [[-1.0, 0.0, 1.0]]])
    roots = rhp_roots_matrix(T)
    assert len(roots) == 1
    assert abs(roots[0].location - 1.0) <= 1e-7
    v = roots[0].null_direction
    assert np.linalg.norm(T.eval(roots[0].location) @ v) <= 1e-6


def test_rhp_roots_matrix_no_common_zero():
    T = PolyMatrix.from_entries([[[2.0, 1.0]], [[3.0, 1.0]]])  # s+2, s+3
    assert rhp_roots_matrix(T) == []


def test_rhp_roots_matrix_degenerate():
    with pytest.raises(ValueError):
        rhp_roots_matrix(PolyMatrix.zeros(2, 1))


def test_unimodular_det_constant_rejects_nonunimodular():
    D = PolyMatrix.from_entries([[[0.0, 1.0]]])  # det = s
    with pytest.raises(ValueError):
        unimodular_det_constant(D)
