"""Dense linear-algebra kernels shared by the rest of the package.

Everything here operates on plain numpy arrays and is a pure function of its
inputs.  Matrices handed to these routines must be finite; constructors and
entry points reject NaN/Inf.

Affine sets are held by their constraint rows: an orthonormal basis V
(row_basis, under the one rank rule _rank that nullspace, matrix_rank and
realization.controllable_basis share) and a point x_p in span(V), so that
projecting onto the set is c - V(V'c) + x_p at O(dim * rank) and no kernel
basis is formed.  affine_slice cuts such a set by further rows, one at a
time: the one normalization row trace(R) = m, or one row per pinned entry.
Cone searches over such a set start at its identity-weight point
(_identity_start), the projection of the best nonnegative multiples of the
layout's block identities, not at x_p.  Lyapunov equations are solved by
Bartels-Stewart on one Schur form, for one or a stack of right-hand sides:
slice by slice (LAPACK trsyl), or a tall stack by one column sweep of the
Schur form with all slices as right-hand sides (_swept, _schur_sweep);
the Kronecker helpers (kron, kron_sum) serve as references and for small
closed-form maps only.
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
HURWITZ_MARGIN = 1e-9          # Hurwitz means every Re(eig) < -HURWITZ_MARGIN
LYAPUNOV_RESIDUAL_TOL = 1e-9   # relative residual bound of every Lyapunov solution
NASH_TOL = 1e-8                # default tolerance of the final Nash check (--tol, the file's tol)
R_FLOOR = 1e-6                 # eigenvalue floor imposed on each R_ii
PROJECTION_CAP = 10_000        # iteration cap of every projection loop
PROJECTION_TOL = 1e-10         # stop rule of every projection loop
CONVERGED_SLACK = 1e-7         # a converged point's relative slack to the cones (cone_verdict)
POINT_SLACK = 1e-9             # a single point's relative slack to the cones (cone_ok's default)
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
    """A Lyapunov solve's matrix has an eigenvalue with Re >= -HURWITZ_MARGIN,
    read off the diagonal of its Schur form."""


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


@functools.lru_cache(maxsize=64)
def _schur_lwork(n: int) -> int:
    """LAPACK's optimal workspace of a real Schur factorization of size n,
    which scipy.linalg.schur would otherwise query on every call."""
    from scipy.linalg import lapack
    return int(lapack.dgees(_no_sort, np.zeros((n, n)), lwork=-1)[-2][0])


def _schur(M):
    """Real Schur form M = U T U' (T standardized, unsorted) by one LAPACK
    gees call with the cached workspace: the factorization
    scipy.linalg.schur(M, lwork=_schur_lwork(n)) computes, bitwise, without
    its argument handling.  solve_lyapunov's one factorization."""
    from scipy.linalg import lapack
    T, _, _, _, U, _, info = lapack.dgees(_no_sort, M, lwork=_schur_lwork(len(M)))
    if info:  # pragma: no cover - rare: the QR iteration did not converge
        raise NumericalFailureError("Schur factorization failed: "
                                    "Schur form not found. Possibly ill-conditioned.")
    return T, U


def is_hurwitz(M) -> bool:
    """True iff every eigenvalue has real part < -HURWITZ_MARGIN, read as
    solve_lyapunov reads it off one Schur form's diagonal (no Schur vectors)."""
    from scipy.linalg import lapack
    A = require_square(M)
    T, *_, info = lapack.dgees(_no_sort, A, compute_v=0, lwork=_schur_lwork(len(A)))
    if info:  # pragma: no cover - rare: the QR iteration did not converge
        raise NumericalFailureError("Schur factorization failed")
    return bool(T.diagonal().max() < -HURWITZ_MARGIN)


def solve_lyapunov(Acl, W, *, with_margin: bool = False):
    """Solve P Acl + Acl' P = -W for symmetric W and Hurwitz Acl.

    Bartels-Stewart: real Schur Acl' = U T U', then T Y + Y T' = -U' W U.
    W may also be a (k, n, n) stack of right-hand sides: Acl is factored once,
    the basis changes run batched over the stack, and the k solutions come
    back as a stack.  Every slice must be finite and symmetric within PSD_TOL
    (relative) and every solution passes its own residual check.  The
    triangular equations are solved one slice at a time by LAPACK trsyl, or,
    for a tall stack (_swept), all at once by one column sweep of T
    (_schur_sweep).  with_margin returns (P, margin) instead, with the
    Hurwitz margin -max Re eig(Acl) read off the diagonal of T, so a caller
    that needs both factors Acl once.  A margin not above HURWITZ_MARGIN
    raises NotHurwitzError before anything is solved, so a caller may also
    use the solve itself as its stability test (newton_kleinman does).
    """
    import scipy.linalg  # deferred: commands that solve no Lyapunov skip it
    A = require_square(Acl, "Acl")
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
    T, U = _schur(A.T)
    top = float(T.diagonal().max())  # standardized 2x2 blocks hold Re(eig) on the diagonal
    if not top < -HURWITZ_MARGIN:
        raise NotHurwitzError("Acl must be Hurwitz for a Lyapunov solve")
    C = -(U.T @ (Ws @ U))
    if _swept(*C.shape[:2]):
        C = _schur_sweep(T, C)
    else:
        for k in range(len(C)):
            Y, scale, info = scipy.linalg.lapack.dtrsyl(T, T, C[k], tranb="T")
            if info < 0:
                raise NumericalFailureError(f"trsyl rejected argument {-info}")
            C[k] = Y / scale
    P = U @ C @ U.T
    P = 0.5 * (P + P.transpose(0, 2, 1))
    for resid, w in zip(_fro(P @ A + A.T @ P + Ws), scales):
        if resid > LYAPUNOV_RESIDUAL_TOL * w:
            raise NumericalFailureError(f"Lyapunov residual {resid:.3e} above tolerance")
    P = P if W.ndim == 3 else P[0]
    return (P, -top) if with_margin else P


def _swept(k: int, n: int) -> bool:
    """Whether solve_lyapunov solves a (k, n, n) stack by the column sweep
    (_schur_sweep): k >= max(2n, 32), decided by the stack's shape alone.

    Time of a whole solve_lyapunov call with the sweep over that with the
    per-slice trsyl loop, median over five random Hurwitz matrices with
    complex pairs (in-process, one BLAS thread):

        n \\ k     16    24    32    36    48    64   144   288
        1                   0.53
        2                   0.65
        4       1.26        0.88  0.87
        6             1.04  0.90
        8       1.23  0.98  0.86
        12            0.93        0.73
        16      1.04        0.75        0.67        0.62
        24                              0.74
        32                                    0.68        0.60

    Below the rule the sweep's n LAPACK calls and their set-up cost about
    as much as the k unblocked trsyl calls they replace, or more.  Single
    right-hand sides and short stacks (verify_nash's N slices, the bundled
    games' maps) stay on trsyl, bitwise as before.
    """
    return k >= max(2 * n, 32)


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


def row_basis(M) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical row space of M, the
    orthogonal complement of nullspace(M) under the same rank rule.

    One thin SVD of M: a wide M (few constraint rows, many unknowns) never
    pays for a basis of its kernel.
    """
    A = as_matrix(M)
    u, s, vh = np.linalg.svd(A, full_matrices=False)
    return vh[:_rank(s, RANK_TOL)].T.conj()


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
    A = symmetrize(M)
    rows, cols, weights = _sym_layout(A.shape[0])
    return A[rows, cols] * weights


def sym_pack_stack(X) -> np.ndarray:
    """sym_pack of each matrix of a (k, s, s) stack, as a (k, sym_dim(s))
    array; the symmetric part of each is packed, without a symmetry check."""
    rows, cols, weights = _sym_layout(X.shape[-1])
    return 0.5 * (X[:, rows, cols] + X[:, cols, rows]) * weights


def sym_unpack(v, n: int) -> np.ndarray:
    rows, cols, weights = _sym_layout(n)
    x = np.asarray(v, dtype=float).ravel() / weights
    A = np.zeros((n, n))
    A[rows, cols] = x
    A[cols, rows] = x
    return A


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


def cone_ok(x, layout, slack: float = POINT_SLACK) -> bool:
    """True iff every block of x lies in its cone within slack.

    Floor-zero blocks may dip to -slack times the largest Frobenius norm among
    them (at least 1); a block with a positive floor must keep its minimum
    eigenvalue above floor - slack.
    """
    blocks = sym_blocks(x, layout)
    scale = max([1.0] + [float(np.linalg.norm(X))
                         for X, (_, floor) in zip(blocks, layout) if floor == 0.0])
    for X, (_, floor) in zip(blocks, layout):
        bound = -slack * scale if floor == 0.0 else floor - slack
        if float(np.linalg.eigvalsh(X).min()) < bound:
            return False
    return True


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


def _anderson(step, z, tangent=None):
    """Iterate a fixed-point map z -> g(z) with type-II Anderson mixing
    (Walker & Ni 2011) until its answer's residual falls within tol =
    PROJECTION_TOL, for at most cap = PROJECTION_CAP iterations.

    step(z) returns (g, out, res): the map's image, the candidate answer and
    that answer's residual.  The mixed step is z = g - dG gamma, gamma the
    least-squares fit of the last ANDERSON_MEMORY residual differences dF to
    f = g - z.  When the map's images lie on an affine set, tangent(d)
    projects a difference onto the set's directions, so that the fit sees
    only those: rounding off the set would otherwise pass for fresh
    directions once |f| nears tol.  The history is cleared when |f| grows by
    more than ANDERSON_RESTART times.  The step stays plain on the first
    iteration, while |f| <= ANDERSON_FLOOR * scale (a stalled loop, whose
    residual is round-off) and when the mixed point is non-finite.  Stops
    when res <= tol * scale, scale = max(1, |out|).  Returns (out, reason,
    iterations, res / scale), reason "converged" or "cap" after cap
    iterations.  A stalled loop returns the cap tuple at once when it can no
    longer converge in time: plain steps of a nonexpansive map never grow
    |f|, and res moves by at most 2 |f| a step.
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
        f = g - z if tangent is None else tangent(g - z)
        f_norm = float(np.linalg.norm(f))
        if f_norm <= ANDERSON_FLOOR * scale and 2 * (cap - it) * f_norm < res - tol * scale:
            return out, "cap", cap, res / scale
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

    return _anderson(step, _identity_start(x_p, V, layout), tangent=lambda d: d - V @ (V.T @ d))


def cone_verdict(x, reason: str, layout):
    """Whether a projection result lies in the cones: True, False, or None;
    the acceptance rule of both cone searches.  A single point is tested
    strictly and decides either way.  A converged point lies only within the
    stop tolerance of the cones, so it is tested with CONVERGED_SLACK and
    decides nothing when it fails; neither does a capped run.
    """
    if reason == "point":
        return cone_ok(x, layout)
    if reason == "converged" and cone_ok(x, layout, CONVERGED_SLACK):
        return True
    return None
