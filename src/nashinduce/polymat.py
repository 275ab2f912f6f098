"""Polynomials and polynomial matrices over the reals.

Polynomials are 1-D numpy coefficient arrays in ascending degree.  A
PolyMatrix stores one coefficient matrix per power of s, so entry (i, j) is
the polynomial sum_k coeffs[k][i, j] s^k.  Coefficients are floating point;
trimming uses a relative tolerance so round-off never masquerades as extra
degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .numerics import DimensionError, NumericalFailureError, matrix_rank

POLY_TRIM_TOL = 1e-9
GCD_TOL = 1e-8
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


def poly_divmod(a, b, tol: float = GCD_TOL):
    """Quotient and remainder of a / b with relative-tolerance truncation."""
    a = poly_trim(a)
    b = poly_trim(b)
    if is_zero_poly(b):
        raise ZeroDivisionError("polynomial division by zero")
    q, r = npoly.polydiv(a, b)
    return poly_trim(q, tol), poly_trim(r, tol)


def poly_monic(c) -> np.ndarray:
    a = poly_trim(c)
    if is_zero_poly(a):
        return a
    return a / a[-1]


def poly_gcd(a, b, tol: float = GCD_TOL) -> np.ndarray:
    """Monic gcd via the Euclidean algorithm with tolerant remainder trim."""
    f = poly_trim(a)
    g = poly_trim(b)
    if is_zero_poly(f):
        return poly_monic(g)
    if is_zero_poly(g):
        return poly_monic(f)
    while not is_zero_poly(g, tol):
        _, r = poly_divmod(f, g, tol)
        f, g = g, r
    return poly_monic(f)


def poly_roots(c) -> np.ndarray:
    """Roots via the companion matrix; empty array for constants."""
    a = poly_trim(c)
    if a.size <= 1:
        return np.zeros(0, dtype=complex)
    return np.asarray(npoly.polyroots(a), dtype=complex)


def common_roots(polys, tol: float = 1e-6):
    """Cluster-based common roots of a family of nonzero polynomials.

    A candidate root of the lowest-degree member survives when every other
    member nearly vanishes there (relative to its coefficient scale).
    """
    ps = [poly_trim(p) for p in polys if not is_zero_poly(p)]
    if not ps:
        return []
    ps.sort(key=lambda p: p.size)
    out = []
    for r in poly_roots(ps[0]):
        ok = True
        for p in ps:
            scale = float(np.max(np.abs(p))) * max(1.0, abs(r)) ** (p.size - 1)
            if abs(npoly.polyval(r, p)) > tol * max(1.0, scale):
                ok = False
                break
        if ok:
            out.append(complex(r))
    return out


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
        da, db = self.coeffs.shape[0], other.coeffs.shape[0]
        C = np.zeros((da + db - 1, self.rows, other.cols))
        for i in range(da):
            for j in range(db):
                C[i + j] += self.coeffs[i] @ other.coeffs[j]
        return PolyMatrix(C)

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
        return matrix_rank(self.leading_column_matrix(), tol) == self.cols

    def poly_rank(self, tol: float = 1e-9) -> int:
        """Normal rank via evaluation on a circle of sample points.

        Cross-checked against minor degeneracy for matrices with min
        dimension <= 4 (larger matrices rely on sampling alone).
        """
        if self.is_zero():
            return 0
        maxdeg = int(self.degree)
        npts = 2 * maxdeg + 3
        radius = 1.0 + self.coeff_norm()
        # Irrational angle offset keeps samples away from structured roots.
        pts = radius * np.exp(1j * (2 * np.pi * np.arange(npts) / npts + 0.5))
        r_sample = max(matrix_rank(self.eval(s), tol) for s in pts)
        if min(self.rows, self.cols) <= 4:
            r_minor = self._minor_rank(tol)
            if r_minor != r_sample:
                raise NumericalFailureError(
                    f"polynomial rank ambiguous: sampling {r_sample}, minors {r_minor}"
                )
        return r_sample

    def _minor_rank(self, tol: float = 1e-9) -> int:
        scale = max(1.0, self.coeff_norm())
        for k in range(min(self.rows, self.cols), 0, -1):
            for rows in itertools.combinations(range(self.rows), k):
                for cols in itertools.combinations(range(self.cols), k):
                    d = self.select_rows(rows).select_columns(cols).determinant()
                    if float(np.max(np.abs(d))) > tol * scale**k:
                        return k
        return 0

    def determinant(self) -> np.ndarray:
        """Determinant polynomial by cofactor expansion (small matrices)."""
        if self.rows != self.cols:
            raise DimensionError("determinant of non-square PolyMatrix")
        n = self.rows
        if n == 1:
            return self.entry(0, 0)
        if n == 2:
            a = npoly.polymul(self.entry(0, 0), self.entry(1, 1))
            b = npoly.polymul(self.entry(0, 1), self.entry(1, 0))
            return poly_trim(npoly.polysub(a, b))
        det = np.zeros(1)
        rest = list(range(1, n))
        for j in range(n):
            cols = [c for c in range(n) if c != j]
            minor = self.select_rows(rest).select_columns(cols).determinant()
            term = npoly.polymul(self.entry(0, j), minor)
            det = npoly.polyadd(det, term if j % 2 == 0 else -term)
        return poly_trim(det)

    def minors(self, k: int):
        """All k x k minor determinants (row-combination major order)."""
        if min(self.rows, self.cols) > 4 and k < min(self.rows, self.cols):
            raise DimensionError("minor enumeration supported only for min dim <= 4")
        out = []
        for rows in itertools.combinations(range(self.rows), k):
            for cols in itertools.combinations(range(self.cols), k):
                out.append(self.select_rows(rows).select_columns(cols).determinant())
        return out

    def allclose(self, other: "PolyMatrix", tol: float = 1e-8) -> bool:
        diff = self - other
        scale = max(1.0, self.coeff_norm(), _as_pm(other, None).coeff_norm())
        return diff.coeff_norm() <= tol * scale


def _as_pm(x, shape) -> PolyMatrix:
    if isinstance(x, PolyMatrix):
        return x
    return PolyMatrix.constant(np.atleast_2d(np.asarray(x, dtype=float)))


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
    permuted to the right.
    """
    m = P.cols
    work = P.copy()
    L = PolyMatrix.identity(m)
    scale0 = max(1.0, P.coeff_norm())

    while True:
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


def rhp_roots_matrix(T: PolyMatrix, delta: float = RHP_MARGIN, tol: float = 1e-7):
    """Closed-RHP rank-deficiency points of a tall polynomial matrix.

    Candidates come from the monic gcd of all full-size minors (with a
    root-clustering fallback for numerically fragile Euclid runs); each
    candidate is confirmed by a singular-value test on T evaluated there, and
    the associated null direction is attached.
    """
    if T.rows < T.cols:
        raise DimensionError("rhp_roots_matrix expects a tall (m x q, m >= q) matrix")
    if T.is_zero():
        raise ValueError("zero polynomial matrix is rank deficient everywhere (degenerate)")
    q = T.cols
    scale = max(1.0, T.coeff_norm())
    minors = [d for d in T.minors(q) if not is_zero_poly(d / scale**q)]
    if not minors:
        # Normal rank < q: rank deficient at every s; flagged as degenerate.
        raise ValueError("matrix has normal rank below its column count (degenerate)")
    g = minors[0]
    for d in minors[1:]:
        g = poly_gcd(g, d)
    candidates = [r.location for r in rhp_roots_poly(g, delta)] if poly_degree(g) > 0 else []
    # Cross-check by clustering roots shared by every minor.
    for r in common_roots(minors):
        if r.real >= -delta and all(abs(r - c) > 1e-6 for c in candidates):
            candidates.append(r)
    out = []
    for s0 in candidates:
        M = T.eval(s0)
        u, sv, vh = np.linalg.svd(M)
        if sv[-1] > tol * max(1.0, float(sv[0]) if sv.size else 1.0):
            continue
        v = vh[-1].conj()
        out.append(
            RhpRoot(
                complex(s0),
                multiplicity=1,
                boundary=abs(s0.real) <= delta,
                null_direction=v,
            )
        )
    return out
