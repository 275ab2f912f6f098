"""Dense linear-algebra kernels shared by the rest of the package.

Everything here operates on plain numpy arrays and is a pure function of its
inputs.  Matrices handed to these routines must be finite; constructors and
entry points reject NaN/Inf.
"""

from __future__ import annotations

import functools

import numpy as np

# Default tolerances.  Callers may override per call; nothing below hard-codes
# them inside the logic.
PSD_TOL = 1e-8
RANK_TOL = 1e-9
HURWITZ_MARGIN = 1e-9
LYAPUNOV_RESIDUAL_TOL = 1e-9
R_FLOOR = 1e-6                 # eigenvalue floor imposed on each R_ii
PROJECTION_CAP = 10_000        # iteration cap of every projection loop
PROJECTION_TOL = 1e-10         # stop rule of every projection loop
ANDERSON_MEMORY = 5            # residual differences mixed by _anderson
ANDERSON_RESTART = 2.0         # fixed-point residual growth that clears that history
ANDERSON_FLOOR = 1e-14         # relative residual below which mixing fits round-off only


class DimensionError(ValueError):
    """Incompatible or invalid matrix dimensions."""


class NumericalFailureError(RuntimeError):
    """An iterative or direct solve failed to produce a usable result."""


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


def symmetrize(M, tol: float = PSD_TOL, name: str = "matrix") -> np.ndarray:
    """Return (M + M')/2, rejecting inputs asymmetric beyond tol (relative)."""
    A = require_square(M, name)
    scale = max(1.0, float(np.linalg.norm(A)))
    if np.linalg.norm(A - A.T) > tol * scale:
        raise ValueError(f"{name} is not symmetric within tolerance {tol}")
    return 0.5 * (A + A.T)


def eig(M) -> np.ndarray:
    """All eigenvalues (with multiplicity) of a square matrix."""
    A = require_square(M)
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailureError(f"eigenvalue iteration failed: {exc}") from exc


def is_hurwitz(M, margin: float = HURWITZ_MARGIN) -> bool:
    """True iff every eigenvalue has real part < -margin."""
    return bool(np.max(eig(M).real) < -margin)


def is_psd(M, tol: float = PSD_TOL) -> bool:
    """True iff the symmetric matrix M has min eigenvalue >= -tol*max(1,||M||)."""
    A = symmetrize(M, tol)
    w = np.linalg.eigvalsh(A)
    return bool(w.min() >= -tol * max(1.0, float(np.linalg.norm(A))))


def is_pd(M, tol: float = PSD_TOL) -> bool:
    """Strict variant of is_psd: min eigenvalue > +tol*max(1,||M||)."""
    A = symmetrize(M, tol)
    w = np.linalg.eigvalsh(A)
    return bool(w.min() > tol * max(1.0, float(np.linalg.norm(A))))


def vec(M) -> np.ndarray:
    """Column-stacking vectorization (column 1 first)."""
    A = as_matrix(M)
    return A.flatten(order="F")


def unvec(v, rows: int, cols: int) -> np.ndarray:
    v = np.asarray(v, dtype=float).ravel()
    if v.size != rows * cols:
        raise DimensionError(f"cannot reshape length {v.size} into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def kron(M, N) -> np.ndarray:
    return np.kron(as_matrix(M), as_matrix(N))


def kron_sum(N, M) -> np.ndarray:
    """Kronecker sum: (N (x) I_m) + (I_n (x) M) for N n x n, M m x m."""
    A = require_square(N, "N")
    B = require_square(M, "M")
    n, m = A.shape[0], B.shape[0]
    return np.kron(A, np.eye(m)) + np.kron(np.eye(n), B)


def solve_lyapunov(Acl, W, tol: float = LYAPUNOV_RESIDUAL_TOL) -> np.ndarray:
    """Solve P Acl + Acl' P = -W for symmetric W and Hurwitz Acl.

    Bartels-Stewart: real Schur Acl' = U T U', trsyl on T Y + Y T' = -U' W U.
    W may also be a (k, n, n) stack of right-hand sides: Acl is factored once,
    and the k solutions come back as a stack, each residual-checked.
    """
    import scipy.linalg  # deferred: commands that solve no Lyapunov skip it
    A = require_square(Acl, "Acl")
    W = np.asarray(W, dtype=float)
    stack = [symmetrize(Wk, name="W") for Wk in (W if W.ndim == 3 else [W])]
    if any(Ws.shape != A.shape for Ws in stack):
        raise DimensionError("Acl and W must have the same shape")
    try:
        T, U = scipy.linalg.schur(A.T, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailureError(f"Schur factorization failed: {exc}") from exc
    if not np.diag(T).max() < -HURWITZ_MARGIN:  # 2x2 blocks hold Re(eig) on the diagonal
        raise ValueError("Acl must be Hurwitz for a Lyapunov solve")
    Ps = []
    for Ws in stack:
        Y, scale, info = scipy.linalg.lapack.dtrsyl(T, T, -(U.T @ (Ws @ U)), tranb="T")
        if info < 0:
            raise NumericalFailureError(f"trsyl rejected argument {-info}")
        P = U @ (Y / scale) @ U.T
        P = 0.5 * (P + P.T)
        resid = np.linalg.norm(P @ A + A.T @ P + Ws)
        if resid > tol * max(1.0, float(np.linalg.norm(Ws))):
            raise NumericalFailureError(f"Lyapunov residual {resid:.3e} above tolerance")
        Ps.append(P)
    return np.stack(Ps) if W.ndim == 3 else Ps[0]


def nullspace(M, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical right nullspace of M.

    Returns an array with zero columns when M has full column rank.
    """
    A = as_matrix(M)
    u, s, vh = np.linalg.svd(A, full_matrices=True)
    if s.size == 0:
        return np.eye(A.shape[1])
    cutoff = tol * max(1.0, s[0])
    rank = int(np.sum(s > cutoff))
    return vh[rank:].T.conj()


def matrix_rank(M, tol: float = RANK_TOL) -> int:
    A = np.atleast_2d(np.asarray(M))
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.sum(s > tol * max(1.0, s[0])))


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


def sym_unpack(v, n: int) -> np.ndarray:
    rows, cols, weights = _sym_layout(n)
    x = np.asarray(v, dtype=float).ravel() / weights
    A = np.zeros((n, n))
    A[rows, cols] = x
    A[cols, rows] = x
    return A


def sym_dim(n: int) -> int:
    return n * (n + 1) // 2


def sym_basis(n: int) -> np.ndarray:
    """Isometric duplication matrix: vec(sym_unpack(v, n)) = sym_basis(n) @ v.

    Its transpose packs: sym_pack(M) = sym_basis(n).T @ vec(M) for symmetric M.
    """
    rows, cols, weights = _sym_layout(n)
    t = np.arange(rows.size)
    D = np.zeros((n * n, rows.size))
    D[rows + n * cols, t] = 1.0 / weights
    D[cols + n * rows, t] = 1.0 / weights
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
    for (size, _, index, floors), X in _grouped_blocks(x, layout):
        rows, cols, weights = _sym_layout(size)
        w, V = np.linalg.eigh(X)
        M = (V * np.maximum(w, floors[:, None])[:, None, :]) @ V.transpose(0, 2, 1)
        out[index] = 0.5 * (M[:, rows, cols] + M[:, cols, rows]) * weights
    return out


def cone_ok(x, layout, slack: float = 1e-9) -> bool:
    """True iff every block of x lies in its cone within slack.

    Floor-zero blocks may dip to -slack times the largest Frobenius norm among
    them (at least 1); a block with a positive floor must keep its minimum
    eigenvalue above floor * (1 - 1e-3) - slack.
    """
    blocks = sym_blocks(x, layout)
    scale = max([1.0] + [float(np.linalg.norm(X))
                         for X, (_, floor) in zip(blocks, layout) if floor == 0.0])
    for X, (_, floor) in zip(blocks, layout):
        bound = -slack * scale if floor == 0.0 else floor * (1.0 - 1e-3) - slack
        if float(np.linalg.eigvalsh(X).min()) < bound:
            return False
    return True


def affine_slice(Z, a, value: float):
    """The points Z c of span(Z) with a . (Z c) = value, as (x_p, Y).

    Z has orthonormal columns; x_p is the minimum-norm point and Y an
    orthonormal basis of the slice's directions.  None when a vanishes on
    span(Z), so that no point of the span reaches a nonzero value.
    """
    g = Z.T @ a
    norm = float(np.linalg.norm(g))
    if norm < 1e-12:
        return None
    return Z @ (g * (value / norm**2)), Z @ nullspace(g[None, :] / norm)


def _anderson(step, lift, z, x, cap: int, tol: float):
    """Iterate a fixed-point map z -> g(z) with type-II Anderson mixing
    (Walker & Ni 2011) until its answer's residual falls within tol.

    The loop works on coordinates z; x = lift(z) is the point the map is
    evaluated at (the caller passes lift(z) of the start as x).
    step(x) returns (g, lift(g), out, res): the map's image, its lift, the
    candidate answer and that answer's residual.  The mixed step is
    z = g - dG gamma, gamma the least-squares fit of the last ANDERSON_MEMORY
    residual differences dF to f = g - z.  The history is cleared when |f|
    grows by more than ANDERSON_RESTART times.  The step stays plain on the
    first iteration, while |f| <= ANDERSON_FLOOR * scale (a stalled loop,
    whose residual is round-off) and when the mixed point is non-finite.
    Stops when res <= tol * scale, scale = max(1, |out|).  Returns (out,
    reason, iterations, res / scale), reason "converged" or "cap" after cap
    iterations.  A stalled loop returns the cap tuple at once when it can no
    longer converge in time: plain steps of a nonexpansive map never grow
    |f|, and res moves by at most 2 |f| a step.
    """
    dG, dF = np.empty((2, z.size, ANDERSON_MEMORY))
    # Ring buffers of the differences; `added` counts them since the last restart.
    added, g_prev, f_prev, f_prev_norm = 0, None, None, np.inf
    for it in range(1, cap + 1):
        g, x_g, out, res = step(x)
        scale = max(1.0, float(np.linalg.norm(out)))
        if res <= tol * scale:
            return out, "converged", it, res / scale
        f = g - z
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
        z, x = g, x_g
        if added and f_norm > ANDERSON_FLOOR * scale:
            kept = min(added, ANDERSON_MEMORY)
            gamma = np.linalg.lstsq(dF[:, :kept], f, rcond=1e-10)[0]
            mixed = g - dG[:, :kept] @ gamma
            if np.isfinite(mixed).all():
                z, x = mixed, lift(mixed)
    return out, "cap", cap, res / scale


def project_affine_cone(x_p, Y, layout, cap: int = PROJECTION_CAP,
                        tol: float = PROJECTION_TOL):
    """Alternating projections between {x_p + Y z} and the layout's cones,
    Anderson-mixed by _anderson.

    Y has orthonormal columns and x_p lies in the affine set.  The plain step
    maps z to g = Y'(c - x_p), c = P_cone(x_p + Y z), whose image
    x' = x_p + Y g is P_aff(c); it starts from z = 0 and stops when
    |x' - c| <= tol * max(1, |x'|).  Returns (x', reason, iterations, gap),
    gap = |x' - c| / max(1, |x'|) at stop, with reason "converged", "cap"
    after cap iterations (or at once from a stalled loop that can no longer
    converge), or "point" (no iteration, gap 0) when Y has no columns and x_p
    is the whole set.
    """
    if Y.shape[1] == 0:
        return x_p, "point", 0, 0.0

    def step(x):
        c = cone_project(x, layout)
        g = Y.T @ (c - x_p)
        x = x_p + Y @ g
        return g, x, x, float(np.linalg.norm(x - c))

    return _anderson(step, lambda z: x_p + Y @ z, np.zeros(Y.shape[1]), x_p, cap, tol)


def cone_verdict(x, reason: str, layout, slack: float):
    """Whether a projection result lies in the cones: True, False, or None.

    A single point is tested strictly and decides either way.  A converged
    point lies only within the stop tolerance of the cones, so it is tested
    with `slack` and decides nothing when it fails; neither does a capped run.
    """
    if reason == "point":
        return cone_ok(x, layout)
    if reason == "converged" and cone_ok(x, layout, slack):
        return True
    return None
