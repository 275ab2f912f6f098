"""Dense linear-algebra kernels shared by the rest of the package.

Everything here operates on plain numpy arrays and is a pure function of its
inputs.  Matrices handed to these routines must be finite; constructors and
entry points reject NaN/Inf.

Affine sets are held by their constraint rows: an orthonormal basis V
(row_basis: one Householder QR, under the one rank rule _rank that
nullspace, matrix_rank and realization.controllable_basis share) and a
point x_p in span(V), so that projecting onto the set is c - V(V'c) + x_p at
O(dim * rank) and no kernel basis is formed.  affine_slice cuts such a set
by further rows, one at a time: the one normalization row trace(R) = m, or
one row per pinned entry.  Cone searches over such a set start at its
identity-weight point (_identity_start), the projection of the best
nonnegative multiples of the layout's block identities, not at x_p.
Lyapunov equations are solved by Bartels-Stewart on one real Schur form
A' = U T U' (_schur), which a caller may make once and pass on
(schur_lyapunov; schur_stack solves in Schur coordinates, with no basis
change), for one or a stack of right-hand sides: slice by slice
(LAPACK trsyl), or a tall stack by one column sweep of the triangular form
with all slices as right-hand sides (_swept, _schur_sweep).  Stability is
read off the diagonal of the same form by the one predicate _unstable.
Symmetric matrices are packed by one rule (_sym_layout): sym_pack_stack
packs and _grouped_blocks unpacks, and sym_pack and sym_unpack are their
one-matrix cases.  The Kronecker helpers (kron, kron_sum) serve the
reference identity feasibility.build_vectorized_system only.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np

# The tolerance table: the constants more than one module reads, and those
# of numerics alone.  A constant that one other module reads is defined at the
# top of that module.  Functions read them when called.
PSD_TOL = 1e-8                 # relative skew bound of symmetrize and of a Lyapunov right-hand side
RANK_TOL = 1e-9                # relative singular-value floor of the rank rule _rank
HURWITZ_MARGIN = 1e-9          # Re(eig) >= -HURWITZ_MARGIN is unstable (_unstable, its one reader)
LYAPUNOV_RESIDUAL_TOL = 1e-9   # relative residual bound of every Lyapunov solution
NASH_TOL = 1e-8                # default tolerance of the final Nash check (--tol, the file's tol)
R_FLOOR = 1e-6                 # eigenvalue floor imposed on each R_ii
PROJECTION_CAP = 10_000        # iteration cap of every projection loop
PROJECTION_TOL = 1e-10         # stop rule of every projection loop
CONVERGED_SLACK = 1e-7         # a converged point's relative slack to the cones (cone_verdict)
POINT_SLACK = 1e-9             # a single point's (and a pinned block's) relative slack to the cones
ANDERSON_MEMORY = 5            # residual differences mixed by _anderson
ANDERSON_RESTART = 2.0         # fixed-point residual growth that clears that history
ANDERSON_FLOOR = 1e-14         # relative residual below which mixing fits round-off only
ANDERSON_RCOND = 1e-10         # relative singular-value cutoff of _anderson's least-squares fit
SLICE_SPAN_TOL = 1e-12         # residual norm below which affine_slice's row adds no direction
SLICE_MISS_TOL = 1e-8          # relative miss at which that row's value leaves the slice empty


class DimensionError(ValueError):
    """Incompatible or invalid matrix dimensions."""


class NumericalFailureError(RuntimeError):
    """An iterative or direct solve failed to produce a usable result."""


class NotHurwitzError(ValueError):
    """A Lyapunov solve's matrix has an _unstable eigenvalue (_require_hurwitz)."""


class StageError(NumericalFailureError):
    """A numerical failure in one stage of one player's analysis."""

    def __init__(self, player: int, stage: str, reason: str):
        super().__init__(f"player {player}: {stage}: {reason}")
        self.player, self.stage, self.reason = player, stage, reason


@contextlib.contextmanager
def _stage(i: int, name: str):
    """Re-raise a numerical failure inside the block as StageError(i, name)."""
    try:
        yield
    except (NumericalFailureError, np.linalg.LinAlgError) as exc:
        raise StageError(i, name, str(exc)) from exc


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array, rejecting non-finite entries."""
    A = np.atleast_2d(np.asarray(M, dtype=float))
    if A.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def require_square(M, name: str = "matrix") -> np.ndarray:
    A = as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {A.shape}")
    return A


def _norm(M) -> float:
    """Frobenius norm of a real M: bitwise np.linalg.norm(M) (one BLAS dot,
    but vdot warns of no overflow) until its sum of squares overflows, then
    that of M scaled by its largest entry (inf past the float range)."""
    x = np.ravel(M, order="K")
    r = math.sqrt(np.vdot(x, x))
    if r == math.inf and np.isfinite(x).all():
        big = float(np.abs(x).max())
        r = big * math.sqrt(np.vdot(x / big, x / big))
    return r


def symmetrize(M, name: str = "matrix") -> np.ndarray:
    """Return (M + M')/2, rejecting inputs asymmetric beyond PSD_TOL
    (relative) and those whose norm or M + M' passes the float range."""
    A = require_square(M, name)
    scale = _norm(A)
    # Only past half the float range can M + M' or M - M' overflow.
    with np.errstate(over="ignore") if scale >= 2.0 ** 1023 else contextlib.nullcontext():
        S, D = A + A.T, A - A.T
    if scale == math.inf or not np.isfinite(S).all():
        raise ValueError(f"{name} overflows the float range")
    if _norm(D) > PSD_TOL * max(1.0, scale):
        raise ValueError(f"{name} is not symmetric within tolerance {PSD_TOL}")
    return 0.5 * S


def vec(M) -> np.ndarray:
    """Column-stacking vectorization (column 1 first)."""
    A = as_matrix(M)
    return A.flatten(order="F")


def kron(M, N) -> np.ndarray:
    return np.kron(as_matrix(M), as_matrix(N))


def kron_sum(N, M) -> np.ndarray:
    """Kronecker sum: (N (x) I_m) + (I_n (x) M) for N n x n, M m x m."""
    A = require_square(N, "N")
    B = require_square(M, "M")
    n, m = A.shape[0], B.shape[0]
    return np.kron(A, np.eye(m)) + np.kron(np.eye(n), B)


def _no_sort(*_):
    """gees' eigenvalue selector; unsorted Schur forms never call it."""


def _left(re, _im) -> bool:
    """gees' eigenvalue selector of an ordered Schur form: the open left
    half-plane, which a caller narrows by _unstable on T's diagonal."""
    return re < 0.0


@functools.lru_cache(maxsize=64)
def _schur_lwork(n: int) -> int:
    """LAPACK's optimal workspace of a real Schur factorization of size n,
    which scipy.linalg.schur would otherwise query on every call."""
    from scipy.linalg import lapack
    return int(lapack.dgees(_no_sort, np.zeros((n, n)), lwork=-1)[-2][0])


def _schur(M, stable_first=False):
    """Real Schur form M = U T U' (T standardized, unsorted) by one LAPACK
    gees call with the cached workspace: the factorization
    scipy.linalg.schur(M, lwork=_schur_lwork(n)) computes, bitwise, without
    its argument handling.  The one gees call of the package: a command's
    one factorization, of Acl' (realization.closed_loop_schur), every other
    Hurwitz test (is_hurwitz), and, with stable_first, the ordered form of
    the Hamiltonian of inverse.riccati_hamiltonian, whose eigenvalues in the
    open left half-plane lead T's diagonal (gees sorts them there, LAPACK
    trsen)."""
    from scipy.linalg import lapack
    T, _, _, _, U, _, info = lapack.dgees(_left if stable_first else _no_sort, M,
                                          sort_t=int(stable_first), lwork=_schur_lwork(len(M)))
    if info > len(M):  # sorting only: the reordering failed or moved an eigenvalue across
        raise NumericalFailureError(f"Schur form not ordered (gees info {info})")
    if info:  # pragma: no cover - rare: the QR iteration did not converge
        raise NumericalFailureError("Schur factorization failed: "
                                    "Schur form not found. Possibly ill-conditioned.")
    return T, U


def hurwitz_margin(T) -> float:
    """-max Re eig of a matrix, read off the diagonal of its real Schur form
    T: standardized 2x2 blocks hold the real part of their pair there."""
    return -float(T.diagonal().max())


def _unstable(re):
    """Re lam >= -HURWITZ_MARGIN elementwise, NaN included: the closed right
    half-plane of every stability decision, the one reader of HURWITZ_MARGIN."""
    return ~(np.asarray(re) < -HURWITZ_MARGIN)


def is_hurwitz(M) -> bool:
    """True iff no eigenvalue of M is _unstable, read off _schur's diagonal."""
    return not _unstable(_schur(require_square(M))[0].diagonal()).any()


def _require_hurwitz(T) -> None:
    """Raise NotHurwitzError if a diagonal entry of the Schur form T is _unstable."""
    if _unstable(T.diagonal()).any():
        raise NotHurwitzError("Acl must be Hurwitz for a Lyapunov solve")


def _check_residuals(residuals, scales) -> None:
    """Raise unless each slice's Frobenius norm is within
    LYAPUNOV_RESIDUAL_TOL times its scale."""
    for resid, w in zip(_fro(residuals), scales):
        if resid > LYAPUNOV_RESIDUAL_TOL * w:
            raise NumericalFailureError(f"Lyapunov residual {resid:.3e} above tolerance")


def solve_lyapunov(Acl, W):
    """Solve P Acl + Acl' P = -W for symmetric W and Hurwitz Acl: one real
    Schur form Acl' = U T U' (_schur), then schur_lyapunov."""
    A = require_square(Acl, "Acl")
    return schur_lyapunov(A, *_schur(A.T), W)


def schur_lyapunov(A, T, U, W):
    """Solve P A + A' P = -W for symmetric W, given the real Schur form
    A' = U T U' (_schur(A.T)).

    Bartels-Stewart: T Y + Y T' = -U' W U, then P = U Y U'.  W may also be a
    (k, n, n) stack of right-hand sides: the basis changes run batched over
    the stack, and the k solutions come back as a stack.  Every slice must
    be finite and symmetric within PSD_TOL (relative) and every solution
    passes its own residual check.  The triangular equations go to
    _triangular_lyapunov.  An _unstable diagonal entry of T raises
    NotHurwitzError before anything is solved, so a caller may also use the
    solve itself as its stability test (newton_kleinman does).
    """
    W = np.asarray(W, dtype=float)
    Ws = W if W.ndim == 3 else W[None]
    if Ws.shape[1:] != A.shape:
        raise DimensionError("Acl and W must have the same shape")
    if not np.isfinite(Ws).all():
        raise ValueError("W contains non-finite entries")
    Wt = Ws.transpose(0, 2, 1)
    # |W| and |sym(W)| agree to rounding wherever the skew part passes.
    scales = [max(1.0, w) for w in _fro(Ws)]
    if any(d > PSD_TOL * w for d, w in zip(_fro(Ws - Wt), scales)):
        raise ValueError(f"W is not symmetric within tolerance {PSD_TOL}")
    Ws = 0.5 * (Ws + Wt)
    _require_hurwitz(T)
    P = U @ _triangular_lyapunov(T, -(U.T @ (Ws @ U))) @ U.T
    P = 0.5 * (P + P.transpose(0, 2, 1))
    _check_residuals(P @ A + A.T @ P + Ws, scales)
    return P if W.ndim == 3 else P[0]


def schur_stack(S, C) -> np.ndarray:
    """Solve S Y + Y S' = -C for every slice of a symmetric (k, n, n) stack
    C, S a standardized real Schur form: the equation A P + P A' = -W in the
    Schur coordinates of A = U S U' (Y = U'PU, C = U'WU), with no basis
    change.  Raises NotHurwitzError as schur_lyapunov does, and every slice
    passes its residual check against LYAPUNOV_RESIDUAL_TOL max(1, |C_k|).
    """
    _require_hurwitz(S)
    Y = _triangular_lyapunov(S, -C)
    Y = 0.5 * (Y + Y.transpose(0, 2, 1))
    _check_residuals(S @ Y + Y @ S.T + C, [max(1.0, c) for c in _fro(C)])
    return Y


def _triangular_lyapunov(T, C) -> np.ndarray:
    """Solve T Y + Y T' = C for every slice of a (k, n, n) stack C, T upper
    quasi-triangular with standardized 2x2 blocks: slice by slice by LAPACK
    trsyl, or, for a tall stack (_swept), all at once by one column sweep of
    T (_schur_sweep).  May overwrite C."""
    import scipy.linalg  # deferred: commands that solve no Lyapunov skip it
    if _swept(len(C)):
        return _schur_sweep(T, C)
    for k in range(len(C)):
        Y, scale, info = scipy.linalg.lapack.dtrsyl(T, T, C[k], tranb="T")
        if info < 0:
            raise NumericalFailureError(f"trsyl rejected argument {-info}")
        C[k] = Y / scale
    return C


def _swept(k: int) -> bool:
    """Whether a stack of k right-hand sides is solved by the column sweep
    (_schur_sweep) rather than slice by slice (trsyl): k >= 24, at every n.

    Time of a whole schur_stack call (the Kalman maps' stack, whose
    right-hand sides are rank-one products) with the sweep over that with
    the per-slice trsyl loop, median over five random Hurwitz matrices with
    complex pairs (in-process, one BLAS thread):

        n \\ k     16    20    24    32    64   144
        1       0.53  0.47  0.43  0.37  0.27  0.20
        2       0.91  0.78  0.71  0.63  0.40  0.28
        4       1.05  0.88  0.79  0.66  0.44  0.31
        8       1.07  0.91  0.81  0.69  0.46  0.34
        12      0.98  0.82  0.74  0.64  0.45  0.34
        16      0.94  0.80  0.71  0.61  0.45  0.47
        24      0.96  0.81  0.76  0.65  0.47  0.47
        32      0.98  0.74  0.76  0.62  0.50  0.50

    Below the rule the sweep's n LAPACK calls and their set-up cost about
    as much as the k unblocked trsyl calls they replace, or more.  Single
    right-hand sides and short stacks (verify_nash's N slices, the one-input
    single-player maps of small games) stay on trsyl, bitwise as before.
    """
    return k >= 24


def _schur_sweep(T, C) -> np.ndarray:
    """Solve T Y + Y T' = C for every slice of a (k, n, n) stack C, with T
    upper quasi-triangular (a real Schur form): Bartels & Stewart's back
    substitution (CACM 15(9), 1972) over the columns of Y, last first.

    Column j of Y T' is sum_c T[j, c] y_c over c >= j, so once the later
    columns are known, the columns of one 1x1 or 2x2 diagonal block S of T
    solve (I (x) T + S (x) I) vec(y_j..) = c_j.. - sum_c T[j.., c] y_c:
    one LAPACK gesv per block, with the block's columns of every slice as
    its right-hand sides.  The stack is held as Z[c, slice, r] = C[slice, r, c],
    so column j of every slice is one Fortran-ordered (n, k) matrix that
    gesv overwrites in place.
    """
    from scipy.linalg import lapack
    n, k = len(T), len(C)
    Z = np.ascontiguousarray(C.transpose(2, 0, 1))
    base = {1: np.asfortranarray(T)}  # I (x) T per block size s, Fortran-ordered for gesv
    j = n
    while j > 0:
        s = 2 if j > 1 and T[j - 1, j - 2] != 0.0 else 1
        j -= s
        if j + s < n:
            Z[j:j + s] -= (T[j:j + s, j + s:] @ Z[j + s:].reshape(n - j - s, -1)).reshape(s, k, n)
        if s not in base:
            base[s] = np.asfortranarray(np.kron(np.eye(s), T))
        lhs = base[s].copy(order="F")
        for a in range(s):  # + S (x) I: S[a, b] on the diagonal of block (a, b)
            for b in range(s):
                lhs[a * n:(a + 1) * n, b * n:(b + 1) * n].flat[::n + 1] += T[j + a, j + b]
        rhs = Z[j].T if s == 1 else np.concatenate([Z[j], Z[j + 1]], axis=1).T
        _, _, y, info = lapack.dgesv(lhs, rhs, overwrite_a=1, overwrite_b=1)
        if info < 0:
            raise NumericalFailureError(f"gesv rejected argument {-info}")
        if info > 0:
            raise NumericalFailureError(f"Schur column sweep hit a singular block at column {j}")
        if not np.may_share_memory(y, Z):  # a 1x1 block's columns were solved in place
            Z[j:j + s] = y.T.reshape(k, s, n).transpose(1, 0, 2)
    return Z.transpose(1, 2, 0)


def _fro(X) -> list:
    """Frobenius norm of each matrix of a (k, r, c) stack, as floats; a
    slice whose sum of squares overflows gets _norm's scaled norm."""
    X = X.reshape(len(X), -1)
    norms = np.sqrt(np.einsum("ij,ij->i", X, X)).tolist()  # einsum warns of no overflow
    return [_norm(X[k]) if r == math.inf else r for k, r in enumerate(norms)]


def _rank(s, tol: float) -> int:
    """Numerical rank from singular values s (descending): the number above
    tol * max(1, s[0]).  The one rank rule of nullspace, row_basis and
    matrix_rank."""
    return int(np.sum(s > tol * max(1.0, s[0]))) if s.size else 0


def nullspace(M) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical right nullspace of M.

    Returns an array with zero columns when M has full column rank.
    """
    A = as_matrix(M)
    u, s, vh = np.linalg.svd(A, full_matrices=True)
    return vh[_rank(s, RANK_TOL):].T.conj()


@functools.lru_cache(maxsize=64)
def _qr_lwork(rows: int, cols: int) -> int:
    """LAPACK's optimal workspace of a Householder QR of a rows x cols matrix."""
    from scipy.linalg import lapack
    return max(1, int(lapack.dgeqrf_lwork(rows, cols)[0]))


@functools.lru_cache(maxsize=64)
def _upper(rows: int, cols: int) -> np.ndarray:
    """Read-only mask of the upper triangle of rows x cols."""
    mask = np.triu(np.ones((rows, cols), dtype=bool))
    mask.setflags(write=False)
    return mask


def row_basis(M) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical row space of M, the
    orthogonal complement of nullspace(M) under the same rank rule.

    One LAPACK Householder QR of M' = Q R (geqrf, orgqr; Golub & Van Loan
    5.2): the rank comes from the singular values of R, which are those of
    M (one gesdd without vectors), and the basis is Q at full rank,
    Q U_R[:, :rank] with R = U_R S V_R' otherwise.  A wide M (few
    constraint rows, many unknowns) never pays for a basis of its kernel,
    nor for singular vectors of M.
    """
    from scipy.linalg import lapack
    A = as_matrix(M)
    r, c = A.shape
    k = min(r, c)
    qr, tau, _, info = lapack.dgeqrf(A.T, lwork=_qr_lwork(c, r))
    if info:  # pragma: no cover - geqrf only rejects bad arguments
        raise NumericalFailureError(f"geqrf rejected argument {-info}")
    R = np.where(_upper(k, r), qr[:k], 0.0)
    _, s, _, info = lapack.dgesdd(R, compute_uv=0)
    if info:  # pragma: no cover - rare: the bidiagonal QR did not converge
        raise NumericalFailureError("singular values of R not found")
    rank = _rank(s, RANK_TOL)
    Q, _, info = lapack.dorgqr(qr[:, :k], tau)
    if info:  # pragma: no cover - orgqr only rejects bad arguments
        raise NumericalFailureError(f"orgqr rejected argument {-info}")
    return Q if rank == k else Q @ np.linalg.svd(R)[0][:, :rank]


def matrix_rank(M) -> int:
    A = np.atleast_2d(np.asarray(M))
    return _rank(np.linalg.svd(A, compute_uv=False), RANK_TOL)


def psd_project(M, floor: float = 0.0) -> np.ndarray:
    """Nearest (Frobenius) symmetric matrix with eigenvalues >= floor."""
    A = 0.5 * (as_matrix(M) + as_matrix(M).T)
    w, V = np.linalg.eigh(A)
    w = np.maximum(w, floor)
    return V @ np.diag(w) @ V.T


# Packing of symmetric matrices into vectors that preserves the Frobenius
# inner product (off-diagonals scaled by sqrt(2)), so Euclidean projections in
# packed coordinates are Frobenius projections on matrices.  Entry t of the
# packed vector is (k, l), k <= l, in row-major upper-triangle order.

@functools.lru_cache(maxsize=64)
def _sym_layout(n: int):
    """Read-only (rows, cols, weights) of the packed upper triangle of n x n."""
    rows, cols = np.triu_indices(n)
    weights = np.where(rows == cols, 1.0, np.sqrt(2.0))
    for a in (rows, cols, weights):
        a.setflags(write=False)
    return rows, cols, weights


def sym_pack(M) -> np.ndarray:
    return sym_pack_stack(symmetrize(M)[None])[0]


def sym_pack_stack(X) -> np.ndarray:
    """sym_pack of each matrix of a (k, s, s) stack, as a (k, sym_dim(s))
    array; the symmetric part of each is packed, without a symmetry check."""
    rows, cols, weights = _sym_layout(X.shape[-1])
    return 0.5 * (X[:, rows, cols] + X[:, cols, rows]) * weights


def sym_unpack(v, n: int) -> np.ndarray:
    return sym_blocks(np.ravel(v), [(n, 0.0)])[0]


def sym_dim(n: int) -> int:
    return n * (n + 1) // 2


@functools.lru_cache(maxsize=64)
def sym_basis(n: int) -> np.ndarray:
    """Isometric duplication matrix: vec(sym_unpack(v, n)) = sym_basis(n) @ v.

    Its transpose packs: sym_pack(M) = sym_basis(n).T @ vec(M) for symmetric M.
    Built once per n and read-only, as _sym_layout is.
    """
    rows, cols, weights = _sym_layout(n)
    t = np.arange(rows.size)
    D = np.zeros((n * n, rows.size))
    D[rows + n * cols, t] = 1.0 / weights
    D[cols + n * rows, t] = 1.0 / weights
    D.setflags(write=False)
    return D


# ---------------------------------------------------------------------------
# Projection onto an affine set intersected with a product of PSD cones
# ---------------------------------------------------------------------------
# A block layout [(size, floor), ...] describes a packed vector as consecutive
# symmetric blocks, block b constrained to {X : X >= floor_b I}.

@functools.lru_cache(maxsize=64)
def _cone_plan(layout: tuple):
    """Read-only plan of a layout: (groups, packed length).

    One group per distinct block size s: (s, positions, index, floors), with
    positions the layout places of the size-s blocks, index[b] the packed
    entries of block positions[b] (so x[index] holds the whole group) and
    floors[b] its floor.
    """
    starts = np.cumsum([0] + [sym_dim(size) for size, _ in layout])
    groups = []
    for s in sorted({size for size, _ in layout}):
        positions = tuple(b for b, (size, _) in enumerate(layout) if size == s)
        index = starts[list(positions)][:, None] + np.arange(sym_dim(s))
        floors = np.array([layout[b][1] for b in positions], dtype=float)
        for a in (index, floors):
            a.setflags(write=False)
        groups.append((s, positions, index, floors))
    return tuple(groups), int(starts[-1])


@functools.lru_cache(maxsize=64)
def _identity_columns(layout: tuple) -> np.ndarray:
    """Read-only (packed length, blocks) matrix E of a layout: column b is the
    packed identity of block b."""
    starts = np.cumsum([0] + [sym_dim(size) for size, _ in layout])
    E = np.zeros((int(starts[-1]), len(layout)))
    for b, (size, _) in enumerate(layout):
        rows, cols, _ = _sym_layout(size)
        E[starts[b] + np.flatnonzero(rows == cols), b] = 1.0
    E.setflags(write=False)
    return E


def _identity_start(x_p, V, layout) -> np.ndarray:
    """The identity-weight point of the affine set {x : V'x = V'x_p}.

    With E the layout's block identities (_identity_columns), alpha fits
    V'E alpha to V'x_p in least squares under the rank rule _rank, so
    directions V'E does not reach get coefficient 0 (a block whose identity
    lies in the kernel, or all of them, which leaves x_p).  The clipped
    combination c = E max(alpha, 0) is projected onto the set:
    c - V(V'c) + x_p.
    """
    E = _identity_columns(tuple(layout))
    G = V.T @ E
    u, s, vh = np.linalg.svd(G, full_matrices=False)
    k = _rank(s, RANK_TOL)
    alpha = np.maximum(vh[:k].T @ ((u[:, :k].T @ (V.T @ x_p)) / s[:k]), 0.0)
    return E @ alpha - V @ (G @ alpha) + x_p  # V'c = G alpha


def _grouped_blocks(x, layout):
    """(group, (k, s, s) stack of its unpacked blocks) per size group of the plan."""
    x = np.asarray(x, dtype=float)
    groups, dim = _cone_plan(tuple(layout))
    if x.shape != (dim,):
        raise DimensionError(f"packed vector has shape {x.shape}, layout needs ({dim},)")
    for group in groups:
        size, _, index, _ = group
        rows, cols, weights = _sym_layout(size)
        v = x[index] / weights
        X = np.zeros((index.shape[0], size, size))
        X[:, rows, cols] = v
        X[:, cols, rows] = v
        yield group, X


def sym_blocks(x, layout) -> list:
    """The symmetric blocks of a packed vector, in layout order."""
    blocks = [None] * len(layout)
    for (_, positions, _, _), X in _grouped_blocks(x, layout):
        for b, Xb in zip(positions, X):
            blocks[b] = Xb
    return blocks


def cone_project(x, layout) -> np.ndarray:
    """Frobenius projection of a packed vector onto the layout's cone product.

    Per block size, one batched eigh: every block V diag(w) V' becomes
    V diag(max(w, floor)) V', repacked with sym_pack's arithmetic, so the
    result is bitwise that of sym_pack(psd_project(X, floor)) block by block.
    """
    if not np.isfinite(x).all():
        raise ValueError("matrix contains non-finite entries")
    out = np.empty(len(x))
    for (_, _, index, floors), X in _grouped_blocks(x, layout):
        w, V = np.linalg.eigh(X)
        M = (V * np.maximum(w, floors[:, None])[:, None, :]) @ V.transpose(0, 2, 1)
        out[index] = sym_pack_stack(M)
    return out


def affine_slice(V, rows, values):
    """The points x with V'x = 0 and rows[k] . x = values[k], as
    (x_p, V_a, miss).

    V has orthonormal columns, a basis of the constraint rows.  The rows are
    appended one at a time by two Gram-Schmidt passes: u, the unit part of a
    row orthogonal to the basis so far, joins it, and x_p moves along u to
    meet the row's value.  So x_p is the minimum-norm point, in span(V_a),
    and V_a an orthonormal basis of the slice's constraint rows.  A row
    within SLICE_SPAN_TOL of the span adds no direction: its value is
    already fixed on the set, and x_p is None when that value misses the
    row's by more than SLICE_MISS_TOL max(1, |x_p|), so that no point
    reaches the slice.  miss is
    that relative miss, |value - a . x_p| / max(1, |x_p|), of the first row
    no point reaches, and 0.0 when x_p is returned.
    """
    x_p, first_miss = np.zeros(len(V)), 0.0
    for a, value in zip(rows, values):
        g = a - V @ (V.T @ a)
        g -= V @ (V.T @ g)  # second Gram-Schmidt pass keeps V_a orthonormal
        norm = float(np.linalg.norm(g))
        miss = value - a @ x_p
        if norm >= SLICE_SPAN_TOL:
            x_p += g * (miss / norm**2)
            V = np.column_stack([V, g / norm])
        elif not first_miss:
            relative = abs(miss) / max(1.0, float(np.linalg.norm(x_p)))
            first_miss = relative if relative > SLICE_MISS_TOL else 0.0
    return (None if first_miss else x_p), V, first_miss


def _anderson(step, z):
    """Iterate a fixed-point map z -> g(z) with type-II Anderson mixing
    (Walker & Ni 2011) until its answer's residual falls within tol =
    PROJECTION_TOL, for at most cap = PROJECTION_CAP iterations.

    step(z) returns (g, out, res): the map's image, the candidate answer and
    that answer's residual.  The mixed step is z = g - dG gamma, gamma the
    least-squares fit of the last ANDERSON_MEMORY residual differences dF to
    f = g - z.  The history is cleared when |f| grows by more than
    ANDERSON_RESTART times.  The step stays plain on the first iteration,
    while |f| <= ANDERSON_FLOOR * scale (a stalled loop, whose residual is
    round-off) and when the mixed point is non-finite.  Stops when res <=
    tol * scale, scale = max(1, |out|).  Returns (out, reason, iterations,
    res / scale), reason "converged" or "cap" after cap iterations.  A
    stalled loop stops with reason "cap" and the iterations it ran as soon
    as it can no longer converge in time: plain steps of a nonexpansive map
    never grow |f|, and res moves by at most 2 |f| a step.
    """
    cap, tol = PROJECTION_CAP, PROJECTION_TOL
    dG, dF = np.empty((2, z.size, ANDERSON_MEMORY))
    # Ring buffers of the differences; `added` counts them since the last restart.
    added, g_prev, f_prev, f_prev_norm = 0, None, None, np.inf
    for it in range(1, cap + 1):
        g, out, res = step(z)
        scale = max(1.0, float(np.linalg.norm(out)))
        if res <= tol * scale:
            return out, "converged", it, res / scale
        f = g - z
        f_norm = float(np.linalg.norm(f))
        if f_norm <= ANDERSON_FLOOR * scale and 2 * (cap - it) * f_norm < res - tol * scale:
            return out, "cap", it, res / scale
        if f_norm > ANDERSON_RESTART * f_prev_norm:
            added = 0
        elif g_prev is not None:
            slot = added % ANDERSON_MEMORY
            dG[:, slot], dF[:, slot] = g - g_prev, f - f_prev
            added += 1
        g_prev, f_prev, f_prev_norm = g, f, f_norm
        z = g
        if added and f_norm > ANDERSON_FLOOR * scale:
            kept = min(added, ANDERSON_MEMORY)
            gamma = np.linalg.lstsq(dF[:, :kept], f, rcond=ANDERSON_RCOND)[0]
            mixed = g - dG[:, :kept] @ gamma
            if np.isfinite(mixed).all():
                z = mixed
    return out, "cap", cap, res / scale


def project_affine_cone(x_p, V, layout):
    """Alternating projections between {x : V'x = V'x_p} and the layout's
    cones, Anderson-mixed by _anderson in full coordinates.

    V has orthonormal columns, a basis of the affine set's constraint rows,
    and x_p is a point of the set in span(V).  The plain step maps x to
    x' = c - V(V'c) + x_p, the projection onto the set of c = P_cone(x).
    It starts from the set's identity-weight point (_identity_start), the
    projection onto the set of the best-fitting nonnegative combination of
    the block identities, which is that combination itself when the set
    holds one (x_p, the minimum-norm point, usually has an indefinite
    block), and stops when |x' - c| <= PROJECTION_TOL * max(1, |x'|).
    Returns (x', reason, iterations, gap),
    gap = |x' - c| / max(1, |x'|) at stop, with reason "converged", "cap"
    after PROJECTION_CAP iterations (or at once from a stalled loop that can
    no longer converge), or "point" (no iteration, gap 0) when the rows span
    the whole space and x_p is the whole set.
    """
    if V.shape[1] == V.shape[0]:
        return x_p, "point", 0, 0.0

    def step(x):
        c = cone_project(x, layout)
        x = c - V @ (V.T @ c) + x_p
        return x, x, float(np.linalg.norm(x - c))

    return _anderson(step, _identity_start(x_p, V, layout))


def cone_verdict(x, reason: str, layout):
    """Whether a projection result lies in the cones: True, False, or None;
    the acceptance rule of both cone searches.  A single point is tested
    with slack POINT_SLACK and decides either way.  A converged point lies
    only within the stop tolerance of the cones, so it is tested with
    CONVERGED_SLACK and decides nothing when it fails; neither does a capped
    run.  A floor-zero block may dip to -slack times the largest Frobenius
    norm among them (at least 1), a block with a positive floor to floor - slack.
    """
    if reason not in ("point", "converged"):
        return None
    slack = POINT_SLACK if reason == "point" else CONVERGED_SLACK
    blocks = sym_blocks(x, layout)
    scale = max([1.0] + [float(np.linalg.norm(X))
                         for X, (_, floor) in zip(blocks, layout) if floor == 0.0])
    for X, (_, floor) in zip(blocks, layout):
        bound = -slack * scale if floor == 0.0 else floor - slack
        if float(np.linalg.eigvalsh(X).min()) < bound:
            return False if reason == "point" else None
    return True
