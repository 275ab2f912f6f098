"""The characteristic-polynomial kernel against reference implementations.

`PolyMatrix.charpoly` (Faddeev-LeVerrier on coefficient tensors) replaced a
cofactor determinant, an enumeration of principal minors and a gcd over all
full-size minors.  Those stay here as references: the product helper must
equal the double loop it replaced, every e_k must equal the sum of its
principal minors, the determinant the cofactor expansion, and the rank drops
found through one determinant the roots of the gcd of all minors.  The circle
criterion, now exact for every input count, is checked as a property at
m = 4, 5.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from nashinduce.inverse import check_rank_condition, circle_criterion
from nashinduce.polymat import (
    PolyMatrix,
    is_zero_poly,
    poly_degree,
    poly_roots,
    poly_trim,
    rhp_roots_matrix,
    rhp_roots_poly,
)

# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------


def loop_matmul(A: PolyMatrix, B: PolyMatrix) -> np.ndarray:
    da, db = A.coeffs.shape[0], B.coeffs.shape[0]
    C = np.zeros((da + db - 1, A.rows, B.cols))
    for i in range(da):
        for j in range(db):
            C[i + j] += A.coeffs[i] @ B.coeffs[j]
    return C


def cofactor_det(P: PolyMatrix) -> np.ndarray:
    n = P.rows
    if n == 1:
        return P.entry(0, 0)
    det = np.zeros(1)
    rest = list(range(1, n))
    for j in range(n):
        minor = cofactor_det(P.select_rows(rest).select_columns([c for c in range(n) if c != j]))
        term = npoly.polymul(P.entry(0, j), minor)
        det = npoly.polyadd(det, term if j % 2 == 0 else -term)
    return poly_trim(det)


def principal_minor_sums(P: PolyMatrix) -> list:
    e = [np.ones(1)]
    for k in range(1, P.rows + 1):
        total = np.zeros(1)
        for idx in itertools.combinations(range(P.rows), k):
            total = npoly.polyadd(total, cofactor_det(P.select_rows(idx).select_columns(idx)))
        e.append(total)
    return e


def minors(P: PolyMatrix, k: int) -> list:
    return [cofactor_det(P.select_rows(r).select_columns(c))
            for r in itertools.combinations(range(P.rows), k)
            for c in itertools.combinations(range(P.cols), k)]


def poly_monic(c) -> np.ndarray:
    a = poly_trim(c)
    return a if is_zero_poly(a) else a / a[-1]


def poly_gcd(a, b, tol: float = 1e-8) -> np.ndarray:
    """Monic gcd via the Euclidean algorithm with tolerant remainder trim."""
    f, g = poly_trim(a), poly_trim(b)
    if is_zero_poly(f):
        return poly_monic(g)
    while not is_zero_poly(g, tol):
        _, r = npoly.polydiv(f, g)
        f, g = g, poly_trim(r, tol)
    return poly_monic(f)


def common_roots(polys, tol: float = 1e-6) -> list:
    """Roots of the lowest-degree member at which every member nearly vanishes."""
    ps = sorted((poly_trim(p) for p in polys if not is_zero_poly(p)), key=len)
    out = []
    for r in poly_roots(ps[0]) if ps else []:
        if all(abs(npoly.polyval(r, p))
               <= tol * max(1.0, float(np.max(np.abs(p))) * max(1.0, abs(r)) ** (p.size - 1))
               for p in ps):
            out.append(complex(r))
    return out


def gcd_rank_drops(T: PolyMatrix, delta: float = 1e-7, tol: float = 1e-7) -> list:
    """Closed-RHP rank drops of a tall T from the gcd of its full-size minors,
    cross-checked by common roots, each confirmed by an SVD of T there."""
    q = T.cols
    scale = max(1.0, T.coeff_norm())
    ms = [d for d in minors(T, q) if not is_zero_poly(d / scale**q)]
    g = ms[0]
    for d in ms[1:]:
        g = poly_gcd(g, d)
    cands = [r.location for r in rhp_roots_poly(g, delta)] if poly_degree(g) > 0 else []
    cands += [r for r in common_roots(ms)
              if r.real >= -delta and all(abs(r - c) > 1e-6 for c in cands)]
    out = []
    for s0 in cands:
        sv = np.linalg.svd(T.eval(s0), compute_uv=False)
        if sv[-1] <= tol * max(1.0, sv[0]):
            out.append(complex(s0))
    return out


def random_polymatrix(rng, rows, cols, deg):
    return PolyMatrix(rng.standard_normal((deg + 1, rows, cols)))


# ---------------------------------------------------------------------------
# The references themselves
# ---------------------------------------------------------------------------


def test_poly_gcd_known_factor():
    # (s+1)(s-2) and (s+1)(s-3) share the factor (s+1).
    g = poly_gcd([-2.0, -1.0, 1.0], [-3.0, -2.0, 1.0])
    assert np.allclose(g, [1.0, 1.0], atol=1e-10)


def test_poly_gcd_coprime_is_constant():
    assert poly_degree(poly_gcd([1.0, 1.0], [2.0, 1.0])) == 0


def test_common_roots():
    roots = common_roots([np.array([-1.0, 1.0]), np.array([-1.0, 0.0, 1.0])])  # s-1, s^2-1
    assert any(abs(r - 1.0) < 1e-8 for r in roots)
    assert all(abs(r + 1.0) > 1e-6 for r in roots)


# ---------------------------------------------------------------------------
# The kernel against the references
# ---------------------------------------------------------------------------


def test_matmul_equals_double_loop():
    rng = np.random.default_rng(30)
    for _ in range(200):
        r, k, c = rng.integers(1, 6, size=3)
        A = PolyMatrix(rng.standard_normal((rng.integers(1, 5), r, k)) * 10.0 ** rng.integers(-6, 7))
        B = PolyMatrix(rng.standard_normal((rng.integers(1, 5), k, c)) * 10.0 ** rng.integers(-6, 7))
        assert np.array_equal((A @ B).coeffs, PolyMatrix(loop_matmul(A, B)).coeffs)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_charpoly_equals_principal_minor_sums(m):
    rng = np.random.default_rng(31 + m)
    for _ in range(8):
        P = random_polymatrix(rng, m, m, int(rng.integers(0, 4)))
        e, ref = P.charpoly(), principal_minor_sums(P)
        assert len(e) == m + 1
        for k in range(m + 1):
            diff = npoly.polysub(e[k], ref[k])
            assert np.max(np.abs(diff)) <= 1e-9 * max(1.0, np.max(np.abs(ref[k])))


def test_determinant_equals_cofactor_expansion():
    rng = np.random.default_rng(36)
    for m in range(1, 6):
        for _ in range(5):
            P = random_polymatrix(rng, m, m, int(rng.integers(0, 4)))
            det, ref = P.determinant(), cofactor_det(P)
            assert det.size == ref.size
            assert np.allclose(det, ref, rtol=0.0, atol=1e-9 * np.max(np.abs(ref)))


def test_poly_rank_beyond_four_columns():
    rng = np.random.default_rng(37)
    for r in (1, 3, 5, 6):
        P = random_polymatrix(rng, 6, r, 1) @ random_polymatrix(rng, r, 6, 1)
        assert P.poly_rank() == r


def _planted(rng, rows, cols, zeros, column_reduced):
    """T = A(s) V1 F(s) V2 with F = diag(f, h_2, .., h_q) and f(s) the monic
    polynomial with roots `zeros`: a random tall A(s) has no zeros, so T
    loses rank exactly at those.  With `column_reduced` the h_j are monic of
    the degree of f with left-half-plane roots and V1, V2 orthogonal;
    otherwise h_j = 1 and V1, V2 are Gaussian: T is then not column reduced
    and far out (|s| ~ 30..230) comes within 1e-8 of rank deficiency at
    points that are not zeros, where det(W T) for a single W can have roots."""
    f = np.ones(1)
    for z in zeros:
        f = npoly.polymul(f, [-z.real, 1.0] if z.imag == 0 else [abs(z) ** 2, -2 * z.real, 1.0])
    F = np.zeros((f.size, cols, cols))
    F[:, 0, 0] = f
    V1, V2 = rng.standard_normal((2, cols, cols))
    for j in range(1, cols):
        if column_reduced:
            F[:, j, j] = npoly.polyfromroots(-rng.uniform(0.2, 3.0, f.size - 1))
        else:
            F[0, j, j] = 1.0
    if column_reduced:
        V1, V2 = np.linalg.qr(V1)[0], np.linalg.qr(V2)[0]
    A = random_polymatrix(rng, rows, cols, int(rng.integers(1, 3)))
    return A @ PolyMatrix.constant(V1) @ PolyMatrix(F) @ PolyMatrix.constant(V2)


def _planted_cases(column_reduced):
    """150 seeded (T, planted closed-RHP zeros) pairs: one real RHP zero, one
    LHP zero and, half the time, a complex RHP pair."""
    rng = np.random.default_rng(41)
    for _ in range(150):
        cols = int(rng.integers(1, 4))
        rows = cols + int(rng.integers(1, 3))
        zeros = [complex(rng.uniform(0.2, 3.0)), complex(-rng.uniform(0.2, 3.0))]
        if rng.random() < 0.5:
            zeros.append(complex(rng.uniform(0.2, 2.0), rng.uniform(0.5, 2.0)))
        planted = [z for z in zeros if z.real > 0]
        planted += [z.conjugate() for z in planted if z.imag]
        yield _planted(rng, rows, cols, zeros, column_reduced), planted


def _close_zero_cases(column_reduced):
    """100 seeded harder cases: up to four columns, RHP zeros from 0.05 to 5,
    often two real ones close together, and complex pairs."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        cols = int(rng.integers(1, 5))
        rows = cols + int(rng.integers(1, 3))
        zeros = [complex(rng.uniform(0.05, 5.0)), complex(-rng.uniform(0.2, 3.0))]
        if rng.random() < 0.5:
            zeros.append(complex(rng.uniform(0.05, 3.0), rng.uniform(0.2, 3.0)))
        if rng.random() < 0.3:
            zeros.append(complex(rng.uniform(0.05, 5.0)))
        planted = [z for z in zeros if z.real > 0]
        planted += [z.conjugate() for z in planted if z.imag]
        yield _planted(rng, rows, cols, zeros, column_reduced), planted


@pytest.mark.parametrize("column_reduced", [True, False])
def test_rank_drops_find_gcd_reference(column_reduced):
    for T, planted in _planted_cases(column_reduced):
        found = [r.location for r in rhp_roots_matrix(T)]
        ref = gcd_rank_drops(T)
        assert len(ref) == len(planted)
        for z in planted:
            assert min(abs(np.array(ref) - z)) <= 1e-6
            assert min(abs(np.array(found) - z)) <= 1e-6
        if column_reduced:
            assert len(found) == len(planted)


def test_rank_drops_only_planted_when_not_column_reduced():
    for T, planted in _planted_cases(False):
        assert len(rhp_roots_matrix(T)) == len(planted)


@pytest.mark.parametrize("column_reduced", [True, False])
def test_rank_drops_of_close_zeros(column_reduced):
    for T, planted in _close_zero_cases(column_reduced):
        found = [r.location for r in rhp_roots_matrix(T)]
        assert len(found) == len(planted)
        for z in planted:
            assert min(abs(np.array(found) - z)) <= 1e-6


def test_rank_drops_double_and_far_zeros():
    """A double zero is one point; zeros near |s| = 60 of a T that is
    ill-conditioned at every moderate |s| are found, not "degenerate"."""
    rng = np.random.default_rng(3)
    cases = [
        (PolyMatrix.from_entries([[npoly.polyfromroots([1, 1])], [npoly.polyfromroots([1, 1, -2])],
                                  [npoly.polyfromroots([1, 1, -3, -0.5])]]), [1.0]),
        (_planted(rng, 5, 2, [1.5, 1.5, -1.0], True), [1.5]),
        (_planted(rng, 5, 3, [0.7, 0.7, complex(2.0, 1.0)], False), [0.7, 2 + 1j, 2 - 1j]),
        (_planted(np.random.default_rng(0), 4, 2, [60.0, -40.0, complex(70, 30)], False),
         [60.0, 70 + 30j, 70 - 30j]),
    ]
    for T, zeros in cases:
        found = np.array([r.location for r in rhp_roots_matrix(T)])
        assert len(found) == len(zeros)
        for z in zeros:
            assert min(abs(found - z)) <= 1e-6 * max(1.0, abs(z))


def test_rank_drops_of_large_coefficient_matrices():
    """Large coefficients, unequal column scales and a T that is not column
    reduced still have full normal rank: the planted zeros come back and no
    "degenerate" is raised; two proportional columns are degenerate."""
    for T, planted in list(_planted_cases(False))[:40]:
        big = PolyMatrix(2.5e6 * T.coeffs * np.logspace(0, 4, T.cols))
        found = [r.location for r in rhp_roots_matrix(big)]
        assert len(found) == len(planted)
        for z in planted:
            assert min(abs(np.array(found) - z)) <= 1e-6
    assert rhp_roots_matrix(PolyMatrix.constant([[1e8, 0.0], [0.0, 1.0], [0.0, 0.0]])) == []
    col = PolyMatrix.from_entries([[[1.0, 2.0]], [[-3.0, 0.0, 1.0]], [[0.5]]])
    with pytest.raises(ValueError, match="degenerate"):
        rhp_roots_matrix(col.hstack(-2.0 * col))


def test_rank_certificates_of_large_coefficient_matrices():
    """Coefficients x2.5e6 with column scales 1...1e4: every rank drop gets a
    real witness, found on the column-scaled T and mapped back to T.  In
    case 38, a single column, |T(s0)| is only about 1e-7 at the zeros."""
    cases = list(_planted_cases(False))[:40]
    assert cases[38][0].cols == 1
    for T, planted in cases:
        big = PolyMatrix(2.5e6 * T.coeffs * np.logspace(0, 4, T.cols))
        p = big.rows - big.cols
        zero = PolyMatrix(np.zeros((big.coeffs.shape[0], big.rows, p)))
        fac = SimpleNamespace(m=big.rows, D=zero.hstack(big))  # D L = [0 | T]
        analysis = SimpleNamespace(p=p, L=PolyMatrix.constant(np.eye(big.rows)))
        cert = check_rank_condition(fac, analysis)
        assert len(cert.violations) == len(planted)
        assert not cert.satisfied
        for v in cert.violations:
            assert v.real_v_available
            scale = big.coeff_norm() * max(1.0, abs(v.s0)) ** big.degree
            assert np.linalg.norm(big.eval(v.s0) @ v.v[p:]) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Circle criterion at m = 4, 5
# ---------------------------------------------------------------------------

SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)


def _phi(rng, m, middle):
    """S~(s) J S(s) for a random m x m polynomial S: PSD on the axis when J is."""
    S = random_polymatrix(rng, m, m, int(rng.integers(1, 3)))
    phi = S.paraconjugate() @ PolyMatrix.constant(middle) @ S
    return 0.5 * (phi + phi.paraconjugate())


def _notch_phi(rng, m, rank, c):
    """V' diag(S~S - c (sI)~(sI), 0) V with S of degree 2 and V orthogonal:
    PSD at w = 0 and for large |w|, negative in between when c is large
    enough, and of normal rank `rank`."""
    S = random_polymatrix(rng, rank, rank, 2)
    sI = PolyMatrix.s_identity(rank)
    block = S.paraconjugate() @ S - c * (sI.paraconjugate() @ sI)
    V = np.linalg.qr(rng.standard_normal((m, m)))[0][:rank]
    phi = PolyMatrix.constant(V.T) @ block @ PolyMatrix.constant(V)
    return 0.5 * (phi + phi.paraconjugate())


def _min_eig(phi, w):
    M = phi.eval(1j * w)
    return np.linalg.eigvalsh(0.5 * (M + M.conj().T)).min()


@PROPERTY
@given(seed=SEEDS, m=st.sampled_from([4, 5]), data=st.data())
def test_circle_accepts_psd_phi(seed, m, data):
    rng = np.random.default_rng(seed)
    rank = data.draw(st.integers(1, m))  # rank < m makes Phi rank deficient
    C = rng.standard_normal((rank, m))
    assert circle_criterion(_phi(rng, m, C.T @ C)) == (True, None, "exact")


@PROPERTY
@given(a=st.floats(0.2, 5.0), gap=st.floats(0.2, 5.0), m=st.sampled_from([4, 5]))
def test_circle_finds_band_of_repeated_eigenvalue(a, gap, m):
    """Phi = f I_m with f(jw) = (w^2 - a^2)(w^2 - b^2): every eigenvalue
    crosses zero at once, so e_k(jw) = C(m, k) f^k has real roots of
    multiplicity k, which round-off can push off the real axis."""
    b = a + gap
    f = npoly.polymul([a * a, 0.0, 1.0], [b * b, 0.0, 1.0])  # s^2 = -w^2
    phi = PolyMatrix(f[:, None, None] * np.eye(m))
    ok, witness, method = circle_criterion(phi)
    assert not ok and method == "exact"
    assert a < abs(witness) < b


def test_circle_finds_negative_tail():
    """Phi = (1 + s^2) I_m is 1 - w^2 on the axis: negative only beyond the
    last root, where the probe past the outermost boundary lies."""
    for m in range(1, 6):
        ok, witness, _ = circle_criterion(PolyMatrix(np.array([1.0, 0.0, 1.0])[:, None, None] * np.eye(m)))
        assert not ok and abs(witness) > 1.0


@PROPERTY
@given(seed=SEEDS, m=st.sampled_from([4, 5]), data=st.data())
def test_circle_witness_and_grid_agree(seed, m, data):
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans()):
        negatives = data.draw(st.integers(1, 2))
        phi = _phi(rng, m, np.diag([-1.0] * negatives + [1.0] * (m - negatives)))
    else:
        phi = _notch_phi(rng, m, data.draw(st.integers(1, m)), data.draw(st.floats(0.1, 10.0)))
    ok, witness, method = circle_criterion(phi)
    assert method == "exact"
    floor = -1e-9 * max(1.0, phi.coeff_norm())
    if not ok:
        assert _min_eig(phi, witness) < floor
    if min(_min_eig(phi, w) for w in np.linspace(-5.0, 5.0, 41)) < floor:
        assert not ok
