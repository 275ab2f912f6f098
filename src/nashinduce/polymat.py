"""Polynomials and polynomial matrices over the reals.

Polynomials are 1-D numpy coefficient arrays in ascending degree.  A
PolyMatrix stores one coefficient matrix per power of s, so entry (i, j) is
the polynomial sum_k coeffs[k][i, j] s^k.  Coefficients are floating point;
trimming uses a relative tolerance so round-off never masquerades as extra
degree.  Reference code: no production path uses it (see inverse).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np
from numpy.polynomial import polynomial as npoly

from .numerics import DimensionError, NumericalFailureError, _rank

POLY_TRIM_TOL = 1e-9
RHP_MARGIN = 1e-7
COEFF_GROWTH_BOUND = 1e12


# ---------------------------------------------------------------------------
# Scalar polynomial helpers
# ---------------------------------------------------------------------------

def poly_trim(c, tol: float = POLY_TRIM_TOL) -> np.ndarray:
    """Drop trailing coefficients below tol * max|c_k|; zero -> [0.]."""
    a = np.atleast_1d(np.asarray(c, dtype=float))
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale == 0.0:
        return np.zeros(1)
    keep = np.nonzero(np.abs(a) > tol * scale)[0]
    if keep.size == 0:
        return np.zeros(1)
    return a[: keep[-1] + 1].copy()


def poly_degree(c) -> float:
    """Degree after trim; -inf for the zero polynomial."""
    a = poly_trim(c)
    if a.size == 1 and a[0] == 0.0:
        return -np.inf
    return float(a.size - 1)


def is_zero_poly(c, tol: float = POLY_TRIM_TOL) -> bool:
    return poly_degree(poly_trim(c, tol)) == -np.inf


def poly_roots(c) -> np.ndarray:
    """Roots via the companion matrix; empty array for constants."""
    a = poly_trim(c)
    if a.size <= 1:
        return np.zeros(0, dtype=complex)
    return np.asarray(npoly.polyroots(a), dtype=complex)


# ---------------------------------------------------------------------------
# Polynomial matrices
# ---------------------------------------------------------------------------

class PolyMatrix:
    """Dense polynomial matrix; coeffs has shape (degree+1, rows, cols)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        C = np.asarray(coeffs, dtype=float)
        if C.ndim == 2:
            C = C[None, :, :]
        if C.ndim != 3:
            raise DimensionError("PolyMatrix expects a (deg+1, rows, cols) array")
        if not np.all(np.isfinite(C)):
            raise ValueError("PolyMatrix coefficients must be finite")
        self.coeffs = _trim_tensor(C)

    # -- construction -----------------------------------------------------
    @classmethod
    def constant(cls, M) -> "PolyMatrix":
        return cls(np.asarray(M, dtype=float)[None, :, :])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "PolyMatrix":
        return cls(np.zeros((1, rows, cols)))

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls(np.eye(n)[None, :, :])

    @classmethod
    def from_entries(cls, grid) -> "PolyMatrix":
        """Build from a nested list of ascending coefficient lists."""
        rows = len(grid)
        cols = len(grid[0])
        deg = max(len(np.atleast_1d(e)) for row in grid for e in row)
        C = np.zeros((deg, rows, cols))
        for i, row in enumerate(grid):
            if len(row) != cols:
                raise DimensionError("ragged entry grid")
            for j, e in enumerate(row):
                e = np.atleast_1d(np.asarray(e, dtype=float))
                C[: e.size, i, j] = e
        return cls(C)

    @classmethod
    def s_identity(cls, n: int) -> "PolyMatrix":
        """The matrix s * I_n."""
        C = np.zeros((2, n, n))
        C[1] = np.eye(n)
        return cls(C)

    # -- basics -----------------------------------------------------------
    @property
    def rows(self) -> int:
        return self.coeffs.shape[1]

    @property
    def cols(self) -> int:
        return self.coeffs.shape[2]

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def degree(self) -> float:
        if self.is_zero():
            return -np.inf
        return float(self.coeffs.shape[0] - 1)

    def coeff_norm(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def is_zero(self, tol: float = POLY_TRIM_TOL) -> bool:
        return bool(np.max(np.abs(self.coeffs)) <= tol * max(1.0, 0.0))

    def entry(self, i: int, j: int) -> np.ndarray:
        return poly_trim(self.coeffs[:, i, j])

    def copy(self) -> "PolyMatrix":
        return PolyMatrix(self.coeffs.copy())

    def __repr__(self):
        return f"PolyMatrix(shape={self.shape}, degree={self.degree})"

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        other = _as_pm(other, self.shape)
        if self.shape != other.shape:
            raise DimensionError(f"add shape mismatch {self.shape} vs {other.shape}")
        d = max(self.coeffs.shape[0], other.coeffs.shape[0])
        C = np.zeros((d, self.rows, self.cols))
        C[: self.coeffs.shape[0]] += self.coeffs
        C[: other.coeffs.shape[0]] += other.coeffs
        return PolyMatrix(C)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (-_as_pm(other, self.shape))

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(-self.coeffs)

    def __matmul__(self, other) -> "PolyMatrix":
        other = _as_pm(other, None)
        if self.cols != other.rows:
            raise DimensionError(f"matmul shape mismatch {self.shape} @ {other.shape}")
        return PolyMatrix(_conv(self.coeffs, other.coeffs))

    def __mul__(self, scalar: float) -> "PolyMatrix":
        return PolyMatrix(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(np.transpose(self.coeffs, (0, 2, 1)))

    def paraconjugate(self) -> "PolyMatrix":
        """P(s) -> P'(-s): transpose with coefficient c_k -> (-1)^k c_k."""
        C = np.transpose(self.coeffs, (0, 2, 1)).copy()
        for k in range(C.shape[0]):
            if k % 2 == 1:
                C[k] = -C[k]
        return PolyMatrix(C)

    def eval(self, s: complex) -> np.ndarray:
        """Horner evaluation at a complex point."""
        s = complex(s)
        out = np.zeros((self.rows, self.cols), dtype=complex)
        for Ck in self.coeffs[::-1]:
            out = out * s + Ck
        return out

    def select_columns(self, idx) -> "PolyMatrix":
        return PolyMatrix(self.coeffs[:, :, list(idx)])

    def select_rows(self, idx) -> "PolyMatrix":
        return PolyMatrix(self.coeffs[:, list(idx), :])

    def hstack(self, other: "PolyMatrix") -> "PolyMatrix":
        other = _as_pm(other, None)
        d = max(self.coeffs.shape[0], other.coeffs.shape[0])
        A = np.zeros((d, self.rows, self.cols))
        B = np.zeros((d, other.rows, other.cols))
        A[: self.coeffs.shape[0]] = self.coeffs
        B[: other.coeffs.shape[0]] = other.coeffs
        return PolyMatrix(np.concatenate([A, B], axis=2))

    def vstack(self, other: "PolyMatrix") -> "PolyMatrix":
        return self.transpose().hstack(other.transpose()).transpose()

    # -- structure --------------------------------------------------------
    def column_degrees(self, tol: float = POLY_TRIM_TOL):
        """Per-column max entry degree (-inf for zero columns)."""
        scale = max(self.coeff_norm(), 1e-300)
        degs = []
        for j in range(self.cols):
            col = self.coeffs[:, :, j]
            nz = np.nonzero(np.max(np.abs(col), axis=1) > tol * scale)[0]
            degs.append(-np.inf if nz.size == 0 else float(nz[-1]))
        return degs

    def leading_column_matrix(self, tol: float = POLY_TRIM_TOL) -> np.ndarray:
        """Highest-column-degree coefficient matrix (zero columns give zeros)."""
        degs = self.column_degrees(tol)
        L = np.zeros((self.rows, self.cols))
        for j, d in enumerate(degs):
            if d != -np.inf:
                L[:, j] = self.coeffs[int(d), :, j]
        return L

    def is_column_reduced(self, tol: float = 1e-9) -> bool:
        s = np.linalg.svd(self.leading_column_matrix(), compute_uv=False)
        return _rank(s, tol) == self.cols

    def poly_rank(self, tol: float = 1e-9) -> int:
        """Normal rank, by sampling cross-checked against the characteristic
        polynomial of P'(s) P(s).

        The 2 deg + 3 sample points lie on the circle of radius 1 + coeff_norm;
        an irrational angle offset keeps them away from structured roots.  By
        Cauchy-Binet e_k(P'P) is the sum of the squares of all k x k minor
        determinants of P, so the largest k with max|e_k| > tol * scale^k is
        the normal rank of P.
        """
        if self.is_zero():
            return 0
        npts = 2 * int(self.degree) + 3
        pts = (1.0 + self.coeff_norm()) * np.exp(1j * (2 * np.pi * np.arange(npts) / npts + 0.5))
        r_sample = max(_rank(np.linalg.svd(self.eval(s), compute_uv=False), tol)
                       for s in pts)
        gram = self.transpose() @ self
        scale = max(1.0, gram.coeff_norm())
        r_gram = max(k for k, c in enumerate(gram.charpoly()) if np.max(np.abs(c)) > tol * scale**k)
        if r_gram != r_sample:
            raise NumericalFailureError(
                f"polynomial rank ambiguous: sampling {r_sample}, characteristic polynomial {r_gram}"
            )
        return r_sample

    def charpoly(self) -> list:
        """[e_0, ..., e_m]: e_k(s) is the sum of the k x k principal minor
        determinants, so e_m is the determinant.

        Faddeev-LeVerrier on coefficient tensors: M_1 = I,
        e_k = (-1)^(k+1) tr(P M_k) / k, M_(k+1) = P M_k + (-1)^k e_k I.
        """
        if self.rows != self.cols:
            raise DimensionError("characteristic polynomial of non-square PolyMatrix")
        m = self.rows
        eye = np.eye(m)
        e = [np.ones(1)]
        M = eye[None]
        for k in range(1, m + 1):
            PM = _conv(self.coeffs, M)
            c = -np.trace(PM, axis1=1, axis2=2) / k
            e.append((-1) ** k * c)
            M = PM + c[:, None, None] * eye
        return e

    def determinant(self) -> np.ndarray:
        return poly_trim(self.charpoly()[-1])

    def allclose(self, other: "PolyMatrix", tol: float = 1e-8) -> bool:
        diff = self - other
        scale = max(1.0, self.coeff_norm(), _as_pm(other, None).coeff_norm())
        return diff.coeff_norm() <= tol * scale


def _as_pm(x, shape) -> PolyMatrix:
    if isinstance(x, PolyMatrix):
        return x
    return PolyMatrix.constant(np.atleast_2d(np.asarray(x, dtype=float)))


def _conv(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Coefficient tensor of the product of two polynomial matrices."""
    db = B.shape[0]
    C = np.zeros((A.shape[0] + db - 1, A.shape[1], B.shape[2]))
    for i in range(A.shape[0]):
        C[i: i + db] += A[i] @ B
    return C


def _trim_tensor(C: np.ndarray, tol: float = POLY_TRIM_TOL) -> np.ndarray:
    scale = float(np.max(np.abs(C))) if C.size else 0.0
    if scale == 0.0:
        return np.zeros((1,) + C.shape[1:])
    C = np.where(np.abs(C) > tol * scale, C, 0.0)
    nz = np.nonzero(np.abs(C).max(axis=(1, 2)) > 0.0)[0]
    last = nz[-1] if nz.size else 0
    return C[: last + 1].copy()


# ---------------------------------------------------------------------------
# Unimodular column compression
# ---------------------------------------------------------------------------

def compress_columns(P: PolyMatrix, tol: float = 1e-9):
    """Find unimodular L with P @ L = [P_tilde  0], P_tilde full column rank.

    Works by iterated column reduction: whenever the leading column
    coefficient matrix of the nonzero columns is rank deficient, a constant
    combination scaled by a power of s cancels the highest-degree column,
    strictly decreasing its degree.  Dependent columns are driven to zero and
    permuted to the right.  A column of starting degree d so takes at most
    d + 1 passes; past that bound NumericalFailureError is raised.
    """
    m = P.cols
    work = P.copy()
    L = PolyMatrix.identity(m)
    scale0 = max(1.0, P.coeff_norm())

    for _ in range(int(sum(d + 1 for d in P.column_degrees() if d != -np.inf)) + 1):
        degs = work.column_degrees()
        active = [j for j in range(m) if degs[j] != -np.inf]
        if not active:
            break
        lead = work.leading_column_matrix()[:, active]
        u, s, vh = np.linalg.svd(lead)
        if s.size and s[-1] > tol * max(1.0, s[0]):
            break  # nonzero columns are column reduced -> independent
        c_active = vh[-1].real
        # Eliminate the active column of highest degree among those involved.
        involved = [k for k in range(len(active)) if abs(c_active[k]) > 1e-12]
        k_star = max(involved, key=lambda k: (degs[active[k]], abs(c_active[k])))
        j_star = active[k_star]
        coef = c_active / c_active[k_star]
        # col_{j*} += sum_{k != k*} coef_k * s^{deg*-deg_k} * col_k
        newcol = work.coeffs[:, :, j_star].copy()
        Lcol_updates = []
        for k in involved:
            if k == k_star:
                continue
            j = active[k]
            shift = int(degs[j_star] - degs[j])
            contrib = coef[k] * work.coeffs[:, :, j]
            newcol[shift: shift + contrib.shape[0]] += contrib[: newcol.shape[0] - shift]
            Lcol_updates.append((j, coef[k], shift))
        Wc = work.coeffs.copy()
        Wc[:, :, j_star] = newcol
        # Re-trim the eliminated column against the matrix scale.
        colmax = np.max(np.abs(Wc[:, :, j_star]))
        if colmax <= tol * scale0:
            Wc[:, :, j_star] = 0.0
        work = PolyMatrix(Wc)
        # Mirror the operation on L.
        Lc = L.coeffs
        dL = Lc.shape[0]
        need = max(dL, max((sh + dL for _, _, sh in Lcol_updates), default=dL))
        LC = np.zeros((need, m, m))
        LC[:dL] = Lc
        for j, ck, shift in Lcol_updates:
            LC[shift: shift + dL, :, j_star] += ck * Lc[:, :, j]
        L = PolyMatrix(LC)
        if work.coeff_norm() > COEFF_GROWTH_BOUND or L.coeff_norm() > COEFF_GROWTH_BOUND:
            raise NumericalFailureError("coefficient growth bound exceeded in column compression")
    else:
        raise NumericalFailureError("column compression exceeded its pass bound")

    degs = work.column_degrees()
    order = [j for j in range(m) if degs[j] != -np.inf] + [
        j for j in range(m) if degs[j] == -np.inf
    ]
    work = work.select_columns(order)
    L = L.select_columns(order)
    p = sum(1 for d in degs if d != -np.inf)
    P_tilde = work.select_columns(range(p)) if p else PolyMatrix.zeros(P.rows, 1)
    return L, P_tilde, p


def unimodular_det_constant(L: PolyMatrix, tol: float = 1e-8) -> float:
    """Return the constant determinant of a unimodular L; raise otherwise."""
    d = L.determinant()
    if is_zero_poly(d):
        raise ValueError("matrix is singular, not unimodular")
    scale = float(np.max(np.abs(d)))
    if d.size > 1 and np.max(np.abs(d[1:])) > tol * scale:
        raise ValueError("determinant is non-constant; matrix not unimodular")
    return float(d[0])


# ---------------------------------------------------------------------------
# Closed right-half-plane root location
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RhpRoot:
    """A root in the closed right half-plane (margin delta on the axis)."""

    location: complex
    multiplicity: int = 1
    boundary: bool = False
    null_direction: np.ndarray | None = field(default=None, compare=False)


def rhp_roots_poly(c, delta: float = RHP_MARGIN):
    """Closed-RHP roots of a scalar polynomial (Re >= -delta)."""
    a = poly_trim(c)
    if is_zero_poly(a):
        raise ValueError("zero polynomial: every point is a root (degenerate)")
    roots = poly_roots(a)
    out = []
    used = np.zeros(roots.size, dtype=bool)
    for i, r in enumerate(roots):
        if used[i] or r.real < -delta:
            continue
        cluster = [k for k in range(roots.size) if not used[k] and abs(roots[k] - r) < 1e-6]
        for k in cluster:
            used[k] = True
        out.append(RhpRoot(complex(r), multiplicity=len(cluster), boundary=abs(r.real) <= delta))
    return out


def unit_columns(T: PolyMatrix):
    """(T diag(1/c), c) with c_j the largest coefficient magnitude of column j.

    The scaling moves no rank drop; a zero column (rank deficient at every s)
    raises ValueError.
    """
    col_norms = np.max(np.abs(T.coeffs), axis=(0, 1))
    if not np.all(col_norms > 0.0):
        raise ValueError("zero column: rank deficient everywhere (degenerate)")
    return T @ PolyMatrix.constant(np.diag(1.0 / col_norms)), col_norms


def rhp_roots_matrix(T: PolyMatrix, delta: float = RHP_MARGIN, tol: float = 1e-7):
    """Closed-RHP rank-deficiency points of a tall polynomial matrix.

    T's columns are first scaled to unit coefficient norm, which moves no
    rank drop.  With W the pseudo-inverse of T at a real sample point s_bar,
    det(W T(s)) vanishes wherever T loses rank and is 1 at s_bar; its roots
    are the eigenvalues of a block companion matrix (`_pencil_roots`).  Where
    T is not column reduced, det(W T) also has roots that are not rank drops,
    some far out where T(s) is rank deficient to machine precision; they move
    with W, so the candidates are the roots for W at the best-conditioned
    sample point that are also roots for W at the second best.  Each is
    confirmed by a singular-value test on the scaled T, and T's null
    direction is attached.
    """
    if T.rows < T.cols:
        raise DimensionError("rhp_roots_matrix expects a tall (m x q, m >= q) matrix")
    Tn, col_norms = unit_columns(T)
    # 2 deg + 3 real points, |s| up to about their count, none at s = 0; ten
    # and a hundred times larger where T is rank deficient at all of them.
    npts = 2 * int(T.degree) + 3
    for scale in (1.0, 10.0, 100.0):
        points = scale * np.tan(np.pi * ((np.arange(npts) + 0.6) / npts - 0.5))
        samples = [Tn.eval(s).real for s in points]
        ratios = [sv[-1] / sv[0] for sv in (np.linalg.svd(M, compute_uv=False) for M in samples)]
        if max(ratios) > tol:
            break
    else:
        # Normal rank < q: rank deficient at every s; flagged as degenerate.
        raise ValueError("matrix has normal rank below its column count (degenerate)")
    best, second = np.argsort(ratios)[::-1][:2]
    W, W2 = np.linalg.pinv(samples[best]), np.linalg.pinv(samples[second])
    dTn = PolyMatrix(Tn.coeffs[1:] * np.arange(1, Tn.coeffs.shape[0])[:, None, None])
    check = _pencil_roots(Tn, W2, points[second])
    out = []
    for s0 in _pencil_roots(Tn, W, points[best]):
        s0 = _newton_polish(W, Tn, dTn, s0)
        near = 1e-4 * max(1.0, abs(s0))
        if s0.real < -delta or any(abs(r.location - s0) <= near for r in out):
            continue
        s2 = _newton_polish(W2, Tn, dTn, check[np.argmin(abs(check - s0))]) if check.size else np.inf
        if not abs(s2 - s0) <= near:
            continue
        u, sv, vh = np.linalg.svd(Tn.eval(s0))
        if sv[-1] > tol * max(1.0, float(sv[0])):
            continue
        v = vh[-1].conj() / col_norms
        out.append(RhpRoot(complex(s0), boundary=abs(s0.real) <= delta,
                           null_direction=v / np.linalg.norm(v)))
    return out


def _pencil_roots(T: PolyMatrix, W: np.ndarray, s_bar: float) -> np.ndarray:
    """Finite roots of det(W T(s)) for W T(s_bar) = I, as eigenvalues.

    With s = s_bar + 1/mu, mu^d W T(s_bar + 1/mu) = sum_j N_j mu^(d-j), where
    N_j are the Taylor coefficients of W T at s_bar and N_0 = I, so the roots
    are s_bar + 1/mu over the eigenvalues mu != 0 of the block companion
    matrix of this monic polynomial; mu = 0 are the roots at infinity.
    """
    d = T.coeffs.shape[0] - 1
    q = T.cols
    if d == 0:
        return np.zeros(0, dtype=complex)
    shift = np.array([[comb(k, j) * s_bar ** (k - j) for k in range(d + 1)] for j in range(d + 1)])
    N = np.einsum("jk,kab->jab", shift, W @ T.coeffs)
    C = np.zeros((q * d, q * d))
    C[:q] = -np.concatenate(N[1:], axis=1)
    C[q:, :-q] = np.eye(q * (d - 1))
    mu = np.linalg.eigvals(C)
    return s_bar + 1.0 / mu[mu != 0.0]


def _newton_polish(W: np.ndarray, T: PolyMatrix, dT: PolyMatrix, s: complex) -> complex:
    """Up to three Newton steps on det(W T(s)), evaluated pointwise by
    Jacobi's formula det(M)' = det(M) tr(M^-1 M'); a step longer than
    1e-3 max(1, |s|) (no root close by) or nan is not taken."""
    for _ in range(3):
        try:
            step = 1.0 / np.trace(np.linalg.solve(W @ T.eval(s), W @ dT.eval(s)))
        except np.linalg.LinAlgError:
            return s  # W T(s) exactly singular: s is a root
        if not abs(step) <= 1e-3 * max(1.0, abs(s)):
            return s
        s -= step
    return s
