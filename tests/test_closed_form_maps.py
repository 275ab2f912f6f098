"""Closed-form linear maps against unit-vector probe builders.

The probe builders below push each packed basis vector through sym_unpack and
the defining operation (polynomial products, the Kronecker system, one
Lyapunov solve per column).  They are slow but obviously right, and are kept
here as the reference implementations of the maps the package builds in
closed form.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from nashinduce import GameSystem, StrategyProfile, closed_loop, is_stabilizing
from nashinduce.feasibility import _player_nullspace, build_vectorized_system
from nashinduce.numerics import (
    kron_sum,
    nullspace,
    sym_basis,
    sym_dim,
    sym_pack,
    sym_unpack,
    vec,
)
from nashinduce.polymat import PolyMatrix
from nashinduce.realization import attach_feedback, right_coprime_factorization

from conftest import coeff_stack, original_stationarity_map, para_map, poly_kalman_map

SIZES = [(n, m) for n in range(2, 11) for m in (1, 2, 3) if m <= n]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def loop_sym_pack(M):
    A = 0.5 * (M + M.T)
    r2 = np.sqrt(2.0)
    n = A.shape[0]
    return np.array([A[k, l] * (1.0 if k == l else r2)
                     for k in range(n) for l in range(k, n)])


def loop_sym_unpack(v, n):
    A = np.zeros((n, n))
    r2 = np.sqrt(2.0)
    idx = [(k, l) for k in range(n) for l in range(k, n)]
    for x, (k, l) in zip(v, idx):
        if k == l:
            A[k, k] = x
        else:
            A[k, l] = A[l, k] = x / r2
    return A


def probe(dim, apply):
    """Matrix of a linear map from its images of the unit vectors."""
    cols = []
    for t in range(dim):
        e = np.zeros(dim)
        e[t] = 1.0
        cols.append(apply(e))
    return np.column_stack(cols)


def probe_para_map(L, R, dmax):
    n = L.rows
    L_para = L.paraconjugate()
    return probe(sym_dim(n), lambda e: coeff_stack(
        L_para @ PolyMatrix.constant(sym_unpack(e, n)) @ R, dmax))


def probe_player_map(system, profile, i):
    n, m = system.n, system.m[i]
    M = build_vectorized_system(system, profile, i)
    nq, nr = sym_dim(n), sym_dim(m)

    def apply(e):
        Q, R, P = sym_unpack(e[:nq], n), sym_unpack(e[nq:nq + nr], m), sym_unpack(e[nq + nr:], n)
        return M @ np.concatenate([vec(Q), vec(R), vec(P)])

    return probe(2 * nq + nr, apply)


def probe_stationarity_map(system, profile, i):
    n, N = system.n, system.num_players
    Acl = closed_loop(system, profile.K)
    offs = np.cumsum([0, sym_dim(n)] + [sym_dim(mj) for mj in system.m])

    def apply(e):
        Q = sym_unpack(e[offs[0]:offs[1]], n)
        Rrow = [sym_unpack(e[offs[1 + j]:offs[2 + j]], system.m[j]) for j in range(N)]
        W = Q + sum(profile.K[j].T @ Rrow[j] @ profile.K[j] for j in range(N))
        P = np.linalg.solve(kron_sum(Acl.T, Acl.T), -vec(0.5 * (W + W.T))).reshape(
            (n, n), order="F")
        P = 0.5 * (P + P.T)
        return (Rrow[i] @ profile.K[i] - system.B[i].T @ P).ravel()

    return probe(offs[-1], apply)


def assert_same_map(M, ref, tol=1e-9):
    assert M.shape == ref.shape
    assert np.max(np.abs(M - ref)) <= tol * max(1.0, float(np.max(np.abs(ref))))
    assert nullspace(M).shape[1] == nullspace(ref).shape[1]


def random_factorization(n, m, seed):
    rng = np.random.default_rng([n, m, seed])
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    B = rng.standard_normal((n, m))
    K = rng.standard_normal((m, n))
    return attach_feedback(right_coprime_factorization(A, B), K)


def stable_game(n, m, seed):
    """Two players (m and 1 inputs) with small gains on a Hurwitz plant."""
    rng = np.random.default_rng([n, m, seed])
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    A -= (max(0.0, float(np.max(np.linalg.eigvals(A).real))) + 1.0) * np.eye(n)
    Bs = [rng.standard_normal((n, m)), rng.standard_normal((n, 1))]
    Ks = [0.1 / n * rng.standard_normal((B.shape[1], n)) for B in Bs]
    system = GameSystem(A, Bs)
    assert is_stabilizing(system, Ks)
    return system, StrategyProfile.stabilizing(system, Ks)


@pytest.mark.parametrize("n, m", SIZES)
def test_kalman_maps_match_probe(n, m):
    fac = random_factorization(n, m, 0)
    dmax = int(2 * max(fac.S.degree, fac.D.degree, fac.D_tilde.degree) + 2)
    pairs = [(fac.S, fac.S), (fac.D_tilde, fac.D_tilde), (fac.D, fac.D)]
    maps = [para_map(L, R, dmax) for L, R in pairs]
    refs = [probe_para_map(L, R, dmax) for L, R in pairs]
    for M, ref in zip(maps, refs):
        assert_same_map(M, ref)
    # The joint (Q, R) map of the polynomial Kalman reference, kernel dimension included.
    assert_same_map(poly_kalman_map(fac), np.hstack([-refs[0], refs[1] - refs[2]]))


def map_game(kind, n, N, m):
    """A random stable game of SIZES, or a Nash game from perfbench/games.py,
    the benchmark's seeded generators: the ladder recipe, the closed-form
    construction, or the bundled remark2 (whose player 1 is uncontrollable)."""
    if kind == "stable":
        return stable_game(n, m, 0)
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import games
    if kind == "ladder":
        game = games.ladder_nash((1,), n, N, m)
    elif kind == "closed":
        game = games.closed_form_nash((1,), n, N, m)
    else:
        game = games.bundled(kind)
    system = GameSystem(game.A, game.B)
    return system, StrategyProfile.stabilizing(system, game.K)


MAP_GAMES = ([pytest.param(("stable", n, 2, m), id=f"{n}-{m}") for n, m in SIZES]
             + [pytest.param(spec, id="{}-n{}-N{}-m{}".format(*spec))
                for spec in (("ladder", 4, 2, 1), ("ladder", 8, 3, 2), ("ladder", 12, 2, 3),
                             ("ladder", 16, 2, 2), ("closed", 8, 2, 3), ("closed", 16, 3, 1),
                             ("closed", 16, 2, 2))]
             + [pytest.param(("remark2", 3, 2, None), id="remark2")])


@pytest.mark.parametrize("spec", MAP_GAMES)
def test_time_domain_maps_match_probe(spec):
    # The adjoint-built stationarity map, taken from its Schur coordinates
    # Qh = U'QU back to Q through the packed congruence, agrees with one
    # Kronecker Lyapunov solve per packed unit vector to 1e-10 relative.
    system, profile = map_game(*spec)
    n = system.n
    for i in range(system.num_players):
        Z, dims = _player_nullspace(system, profile, i)
        ref = probe_player_map(system, profile, i)
        assert dims == (sym_dim(n), sym_dim(system.m[i]), sym_dim(n))
        assert Z.shape[1] == nullspace(ref).shape[1]
        assert np.max(np.abs(ref @ Z)) <= 1e-9 * max(1.0, float(np.max(np.abs(ref))))
        assert_same_map(original_stationarity_map(system, profile, i),
                        probe_stationarity_map(system, profile, i), tol=1e-10)


@pytest.mark.parametrize("n", range(1, 33))
def test_sym_packing_is_bit_identical_to_loops(n):
    rng = np.random.default_rng(n)
    for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
        C = scale * rng.standard_normal((n, n))
        M = C + C.T
        assert np.array_equal(sym_pack(M), loop_sym_pack(M))
        v = scale * rng.standard_normal(sym_dim(n))
        assert np.array_equal(sym_unpack(v, n), loop_sym_unpack(v, n))
        assert np.allclose(sym_basis(n) @ v, vec(sym_unpack(v, n)), rtol=1e-15, atol=0.0)
